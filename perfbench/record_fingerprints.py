"""Record the output fingerprints that the benchmark checks every op against.

    python3 perfbench/record_fingerprints.py [--workload NAME ...]

Run from the repository root, at the commit whose outputs are the reference.
For each workload and each of the SEED_POOL input sets it runs one op and
stores the final energy, dbar_norm_sq and lps_accum and bochner_vel(k=0,
s=1) in perfbench/fingerprints.json, merging into entries already there.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run

    run.pin_threads()
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    path = workloads.FINGERPRINTS
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workloads": {}}
    doc["pool"] = workloads.SEED_POOL
    doc["code"] = run.git_commit()
    run.WORK.mkdir(exist_ok=True)
    for name in args.workload or workloads.WORKLOADS:
        table = doc["workloads"].setdefault(name, {})
        for seed in range(workloads.SEED_POOL):
            work = Path(tempfile.mkdtemp(dir=run.WORK))
            try:
                inputs = workloads.setup(workloads.WORKLOADS[name], seed)
                if inputs.workload.linearize:
                    workloads.write_base(inputs, work / "base")
                res = workloads.run_op(inputs, work / "out")
                problems = workloads.check_op(inputs, res, None, res.values)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if problems:
                print(f"{name} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            table[str(seed)] = res.values
            print(f"{name} seed {seed}: {res.values}", flush=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
