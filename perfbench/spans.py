"""Span tracing of the solver's public functions, from outside the program.

While a Tracer is recording, every public function of the spectral, forms,
dolbeault, dynamics, io and norms modules, and SpectralGrid.fft/ifft, is
replaced by a wrapper in every dolbeault_ns namespace that binds it (for
example dynamics.leray_project as well as dolbeault.leray_project).  Each
call records a span: name, start, end, parent span and op id.  Spans stay
in memory; the originals are put back when recording stops.

A span's self time is its duration minus the durations of its child spans
(calls are nested and single-threaded, so children never overlap).
"""

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "dolbeault_ns"
MODULES = ("spectral", "forms", "dolbeault", "dynamics", "io", "norms")
MARK = "__perfbench_span__"

FFT = ("spectral.SpectralGrid.fft", "spectral.SpectralGrid.ifft")
SOLVES = ("dynamics.simulate", "dynamics.solve_linearized")
SOURCES = ("dynamics.nonlinearity", "dynamics.linearized_b")
PRESSURE = "dolbeault.pressure_recover"

UNITS = {
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_calls_per_snapshot": "count",
    "spectral.field_transforms_per_step": "count",
    "spectral.fft_ms_per_step": "ms",
    "spectral.computed_mb_per_step": "MB",
    "spectral.dealias_ms_per_step": "ms",
    "forms.m1_ms_per_step": "ms",
    "forms.m2_ms_per_step": "ms",
    "forms.m_calls_per_step": "count",
    "dolbeault.leray_calls_per_step": "count",
    "dolbeault.leray_ms_per_step": "ms",
    "dolbeault.dbar_ms_per_step": "ms",
    "dolbeault.pressure_ms_per_snapshot": "ms",
    "dynamics.nonlinearity_ms_per_step": "ms",
    "dynamics.linearized_b_ms_per_step": "ms",
    "dynamics.solve_self_ms_per_step": "ms",
    "dynamics.gate_s": "s",
    "io.save_ms_per_snapshot": "ms",
    "io.load_ms_per_snapshot": "ms",
    "io.mb_written": "MB",
    "io.mb_read": "MB",
    "norms.energy_report_ms": "ms",
    "norms.bochner_vel_ms": "ms",
    "trace.uncovered_frac": "1",
}


def _fft_meter(args, result):
    grid, values = args[0], args[1]
    return values.size // grid.size, values.nbytes + result.nbytes


METERS = {
    # (field transforms, bytes in + out) of one FFT call
    "spectral.SpectralGrid.fft": _fft_meter,
    "spectral.SpectralGrid.ifft": _fft_meter,
    # (fields, blob bytes) of one field directory
    "io.save_field": lambda args, result: (1, args[1].data.nbytes),
    "io.load_field": lambda args, result: (1, result.data.nbytes),
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "units", "nbytes")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.units = 0
        self.nbytes = 0

    def to_json(self) -> list:
        return [self.name, self.op, self.parent, self.start, self.end]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextmanager
    def recording(self, op_id):
        """Install the wrappers, tag spans with op_id, restore on exit."""
        restore = self._install()
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack, clock, meter = self.spans, self._stack, time.perf_counter, METERS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self._op, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if meter is not None:
                span.units, span.nbytes = meter(args, result)
            return result

        traced.__wrapped__ = fn
        setattr(traced, MARK, name)
        return traced

    def _install(self) -> list:
        wrappers = {}
        for mod_name in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{mod_name}.{attr}", obj))
        restore = []
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        grid_cls = importlib.import_module(f"{PACKAGE}.spectral").SpectralGrid
        for method in ("fft", "ifft"):
            original = grid_cls.__dict__[method]
            restore.append((grid_cls, method, original))
            setattr(grid_cls, method, self._wrap(f"spectral.SpectralGrid.{method}", original))
        return restore


def _solve_regions(names: list) -> list:
    """Label the solve's direct child spans 'prelude', 'step' or 'snapshot'.

    A snapshot is a pressure_recover call together with the spans from the
    source evaluation (nonlinearity or linearized_b) that feeds it.  Spans
    before the first snapshot (custom gate, initial projection, the t = 0
    diagnostics) are the prelude; everything else is inner-step work.
    """
    labels = ["step"] * len(names)
    for k, name in enumerate(names):
        if name == PRESSURE:
            j = k
            while j > 0 and names[j] not in SOURCES:
                j -= 1
            if names[j] not in SOURCES:
                j = k
            labels[j : k + 1] = ["snapshot"] * (k + 1 - j)
    first = labels.index("snapshot") if "snapshot" in labels else len(labels)
    labels[:first] = ["prelude"] * first
    return labels


def op_metrics(spans: list, op_id, steps: int, snapshots: int, saved: int, loaded: int) -> dict:
    """Per-layer figures of one traced op.

    steps and snapshots are those of the solve; saved and loaded count the
    trajectory snapshots (u and p) written and read by the whole op.
    """
    ids = [i for i, s in enumerate(spans) if s.op == op_id]
    dur = {i: spans[i].end - spans[i].start for i in ids}
    covered = defaultdict(float)
    for i in ids:
        if spans[i].parent is not None:
            covered[spans[i].parent] += dur[i]
    self_t = {i: dur[i] - covered[i] for i in ids}

    solve = next(i for i in ids if spans[i].parent is None and spans[i].name in SOLVES)
    direct = [i for i in ids if spans[i].parent == solve]
    region = dict(zip(direct, _solve_regions([spans[i].name for i in direct])))
    for i in ids:  # parents precede children in creation order
        parent = spans[i].parent
        if parent is not None and parent != solve and parent in region:
            region[i] = region[parent]
    step = [i for i in ids if region.get(i) == "step"]
    snap = [i for i in ids if region.get(i) == "snapshot"]

    def pick(sel, names):
        return [i for i in sel if spans[i].name in names]

    def count(sel, *names):
        return len(pick(sel, names))

    def self_ms(sel, *names):
        return 1e3 * sum(self_t[i] for i in pick(sel, names))

    def incl_ms(sel, *names):
        return 1e3 * sum(dur[i] for i in pick(sel, names))

    def nbytes(sel, *names):
        return sum(spans[i].nbytes for i in pick(sel, names))

    return {
        "spectral.fft_calls_per_step": count(step, *FFT) / steps,
        "spectral.fft_calls_per_snapshot": count(snap, *FFT) / snapshots,
        "spectral.field_transforms_per_step": sum(spans[i].units for i in pick(step, FFT)) / steps,
        "spectral.fft_ms_per_step": self_ms(step, *FFT) / steps,
        "spectral.computed_mb_per_step": nbytes(step, *FFT) / 1e6 / steps,
        "spectral.dealias_ms_per_step": self_ms(step, "spectral.apply_dealias") / steps,
        "forms.m1_ms_per_step": self_ms(step, "forms.apply_m1") / steps,
        "forms.m2_ms_per_step": self_ms(step, "forms.apply_m2") / steps,
        "forms.m_calls_per_step": count(step, "forms.apply_m1", "forms.apply_m2") / steps,
        "dolbeault.leray_calls_per_step": count(step, "dolbeault.leray_project") / steps,
        "dolbeault.leray_ms_per_step": self_ms(step, "dolbeault.leray_project") / steps,
        "dolbeault.dbar_ms_per_step": self_ms(step, "dolbeault.dbar", "dolbeault.dbar_star") / steps,
        "dolbeault.pressure_ms_per_snapshot": incl_ms(snap, PRESSURE) / snapshots,
        "dynamics.nonlinearity_ms_per_step": self_ms(step, "dynamics.nonlinearity") / steps,
        "dynamics.linearized_b_ms_per_step": self_ms(step, "dynamics.linearized_b") / steps,
        "dynamics.solve_self_ms_per_step": 1e3 * self_t[solve] / steps,
        "dynamics.gate_s": incl_ms(list(region), "dynamics.verify_key1") / 1e3,
        "io.save_ms_per_snapshot": incl_ms(ids, "io.save_field") / saved,
        "io.load_ms_per_snapshot": incl_ms(ids, "io.load_field") / loaded,
        "io.mb_written": nbytes(ids, "io.save_field") / 1e6,
        "io.mb_read": nbytes(ids, "io.load_field") / 1e6,
        "norms.energy_report_ms": incl_ms(ids, "norms.energy_report"),
        "norms.bochner_vel_ms": incl_ms(ids, "norms.bochner_vel"),
        "trace.uncovered_frac": self_t[solve] / dur[solve],
    }
