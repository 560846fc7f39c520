"""Solver benchmark: runs one workload in one process and prints its metrics.

    python3 perfbench/run.py --workload lamb-n2N16 --seed 0 --seconds 25 --trace 0

Run from the repository root; the solver is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The line before it records the environment and the sample counts.  See
perfbench/README.md for the workloads and the meaning of each metric.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("DOLBEAULT_NS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
LATE_OPS = 4


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> dict:
    """Default every thread-count variable to 1 and cap it at nproc; must run
    before numpy is imported."""
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, "1"))
        except ValueError:
            value = 1
        os.environ[var] = str(min(max(value, 1), nproc()))
    return {var: os.environ[var] for var in THREAD_VARS}


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:])
    return head


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "l2": _read(cache / "index2" / "size"),
        "l3": _read(cache / "index3" / "size"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "git_commit": git_commit(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it reports that
    dolbeault_ns is imported and config, grid and initial data are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run the workload; returns (result object, run details).

    The first op in the process is a warm-up: it is checked and is the
    bit-identity reference, but it is not timed into the medians and not
    counted in setup_s (see README.md).  Timed ops start while fewer than
    `seconds` have passed since the warm-up ended; past that, at most
    LATE_OPS more are started to get a first sample.  An untraced run spreads
    its SETUP_PROBES setup probes evenly over that window, between ops.  A
    traced run alternates traced and untraced ops, so the tracing overhead
    is measured in-run.  When no op gives a sample the result carries no
    metrics.
    """
    from perfbench import spans, workloads

    wl = workloads.WORKLOADS[workload]
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if trace else None
    setup_times = []
    try:
        inputs = workloads.setup(wl, seed)
        if wl.linearize:
            workloads.write_base(inputs, work / "base")
        fingerprint = workloads.load_fingerprint(inputs)

        attempted = failed = late = 0
        reference = None
        warm_total = None
        plain, traced, layers = [], [], []
        deadline = None
        probe_at = []
        while True:
            now = time.perf_counter()
            if deadline is not None:
                while probe_at and now >= probe_at[0]:
                    setup_times.append(probe_setup(workload, seed))
                    probe_at.pop(0)
                    now = time.perf_counter()
                if now >= deadline:
                    if (plain and (traced or not trace)) or late >= LATE_OPS:
                        break
                    late += 1
            op_id = attempted
            use_trace = trace and deadline is not None and len(traced) <= len(plain)
            out_dir = work / f"op{op_id}"
            attempted += 1
            try:
                if use_trace:
                    with tracer.recording(op_id):
                        res = workloads.run_op(inputs, out_dir)
                else:
                    res = workloads.run_op(inputs, out_dir)
                problems = workloads.check_op(inputs, res, reference, fingerprint)
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                res, problems = None, [f"{type(exc).__name__}: {exc}"]
            shutil.rmtree(out_dir, ignore_errors=True)
            if problems:
                failed += 1
                print(f"op {op_id} failed: " + "; ".join(problems), file=sys.stderr)
            if res is not None and reference is None:
                reference = res.traj.velocities[-1].to_fourier().data.copy()
            if deadline is None:
                warm_total = res.total_s if res is not None else None
                start = time.perf_counter()
                deadline = start + seconds
                if not trace:
                    probe_at = [start + (i + 0.5) * seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
            elif res is not None:
                sample = {"step_ms": res.step_ms, "total_s": res.total_s}
                (traced if use_trace else plain).append(sample)
                if use_trace:
                    layers.append(
                        spans.op_metrics(
                            tracer.spans,
                            op_id,
                            steps=res.traj.config.steps,
                            snapshots=len(res.traj.velocities),
                            saved=len(res.traj.velocities),
                            loaded=len(res.loaded.velocities) + res.base_snapshots,
                        )
                    )
            res = None  # keep one op's trajectories alive at a time
            if attempted > 3 and failed == attempted:
                break
        for _ in probe_at:
            setup_times.append(probe_setup(workload, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = {
        "workload": workload,
        "seed": seed,
        "pool_seed": inputs.pool_seed,
        "timed_ops": len(plain),
        "traced_ops": len(traced),
        "setup_probes": setup_times,
        "warmup_total_s": warm_total,
    }
    if not plain or (trace and not traced):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, details
    med_total = statistics.median(r["total_s"] for r in plain)
    details["total_s_range"] = [min(r["total_s"] for r in plain), max(r["total_s"] for r in plain)]
    if trace:
        metrics = {name: _metric(statistics.median(m[name] for m in layers), spans.UNITS[name]) for name in layers[0]}
        metrics["trace.overhead_frac"] = _metric(statistics.median(r["total_s"] for r in traced) / med_total - 1.0, "1")
        metrics["warmup.first_op_excess_s"] = _metric(
            (warm_total - med_total) if warm_total is not None else 0.0, "s"
        )
        SPANS_OUT.mkdir(exist_ok=True)
        with open(SPANS_OUT / f"spans-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "step_ms": _metric(statistics.median(r["step_ms"] for r in plain), "ms"),
            "total_s": _metric(med_total, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "ok_frac": _metric((attempted - failed) / attempted, "1"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dolbeault_ns" / "__init__.py").is_file():
        print(f"error: no solver sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        workloads.setup(workloads.WORKLOADS[args.workload], args.seed)
        print("ready", flush=True)
        return 0

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(threads), "run": details}))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
