"""The tracing wrappers must not change what they measure.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import sys

import pytest

import dolbeault_ns.dolbeault as dolbeault
import dolbeault_ns.dynamics as dynamics
from dolbeault_ns.forms import FormField
from dolbeault_ns.spectral import SpectralGrid
from perfbench import run, spans, workloads

COUNTS = (
    "spectral.fft_calls_per_step",
    "spectral.fft_calls_per_snapshot",
    "spectral.field_transforms_per_step",
    "spectral.computed_mb_per_step",
    "forms.m_calls_per_step",
    "dolbeault.leray_calls_per_step",
    "io.mb_written",
    "io.mb_read",
)


def _wrapped_bindings() -> list:
    """Names in dolbeault_ns namespaces still bound to a tracing wrapper."""
    return [
        f"{owner}.{attr}"
        for owner, attrs in _bindings().items()
        for attr, obj in attrs.items()
        if hasattr(obj, spans.MARK)
    ]


def _bindings() -> dict:
    owners = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "dolbeault_ns"}
    owners["SpectralGrid"] = SpectralGrid
    return {name: dict(vars(owner)) for name, owner in owners.items()}


@pytest.fixture(scope="module")
def lamb(tmp_path_factory):
    return workloads.setup(workloads.WORKLOADS["lamb-n2N16"], seed=0), tmp_path_factory.mktemp("ops")


def _traced_op(inputs, tmp, tracer, op_id):
    with tracer.recording(op_id):
        res = workloads.run_op(inputs, tmp / f"traced{op_id}")
    n = len(res.traj.velocities)
    return res, spans.op_metrics(tracer.spans, op_id, res.traj.config.steps, n, n, n)


def test_traced_op_is_bit_identical_and_unwrapped(lamb):
    inputs, tmp = lamb
    before = _bindings()
    plain = workloads.run_op(inputs, tmp / "plain")
    tracer = spans.Tracer()
    traced, _ = _traced_op(inputs, tmp, tracer, op_id=0)

    assert traced.traj.velocities[-1].data.tobytes() == plain.traj.velocities[-1].data.tobytes()
    assert workloads._same_trajectory(traced.traj, plain.traj)
    assert traced.values == plain.values
    assert tracer.spans and all(s.op == 0 for s in tracer.spans)
    assert _wrapped_bindings() == []
    after = _bindings()
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        assert all(after[name][attr] is obj for attr, obj in attrs.items()), name

    with pytest.raises(ValueError):
        with tracer.recording(1):
            dolbeault.dbar_star(FormField.zeros(inputs.u0.grid, 0))
    assert _wrapped_bindings() == []
    assert tracer._stack == []


def test_counts_repeat_and_lamb_does_nine_transforms_per_step(lamb):
    inputs, tmp = lamb
    tracer = spans.Tracer()
    _, first = _traced_op(inputs, tmp, tracer, op_id=0)
    _, second = _traced_op(inputs, tmp, tracer, op_id=1)

    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    # 4 per Heun stage plus 1 in the per-step diagnostics; each snapshot's
    # pressure source costs 4 more, counted apart from the steps
    assert first["spectral.fft_calls_per_step"] == 9
    assert first["spectral.fft_calls_per_snapshot"] == 4
    assert first["dolbeault.leray_calls_per_step"] == 3
    assert first["forms.m_calls_per_step"] == 4
    assert first["dynamics.gate_s"] == 0.0


def test_corrupted_final_state_counts_as_failed(monkeypatch, tmp_path):
    simulate = dynamics.simulate

    def corrupted(config, u0):
        traj = simulate(config, u0)
        traj.velocities[-1].data[0].flat[1] += 1e-9
        return traj

    monkeypatch.setattr(dynamics, "simulate", corrupted)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result, _ = run.measure("lamb-n2N16", seed=0, seconds=0.0, trace=False)

    assert result["attempted"] == 2
    assert result["failed"] == 2
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_ops_that_keep_raising_end_the_run(monkeypatch, tmp_path):
    run_op = workloads.run_op
    calls = []

    def raising_after_warmup(inputs, out_dir):
        calls.append(out_dir)
        if len(calls) > 1:
            raise RuntimeError("broken op")
        return run_op(inputs, out_dir)

    monkeypatch.setattr(workloads, "run_op", raising_after_warmup)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result, _ = run.measure("lamb-n2N16", seed=0, seconds=0.0, trace=False)

    assert result == {"correct": False, "attempted": 1 + run.LATE_OPS, "failed": run.LATE_OPS, "metrics": {}}
