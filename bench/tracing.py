"""Span recorder, wrapper installer and FFT counters for the traced run.

Spans are recorded from outside the package: each named public function
is replaced, where its caller looks it up, by a wrapper that opens a
span around the call.  Spans stay in memory until the run ends.

The FFT counters wrap the ``numpy.fft`` and ``scipy.fft`` entry points.
They must be installed before ``kvicsek`` is imported, so that a module
doing ``from numpy.fft import fftn`` binds the counting wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

import numpy as np

# Metric name -> the (module, attribute) sites where callers look it up.
# A site that a later refactor removes is skipped, so the function then
# reports calls = 0 instead of failing the run.
SITES = {
    "kinetic.run_experiment": [("kvicsek.kinetic", "run_experiment")],
    "kinetic.step_kinetic": [("kvicsek.kinetic", "step_kinetic")],
    "spectral.norm": [("kvicsek.kinetic", "norm")],
    "spectral.remainder": [("kvicsek.kinetic", "remainder")],
    "spectral.x_average": [("kvicsek.kinetic", "x_average")],
    "spectral.write_snapshot": [("kvicsek.kinetic", "write_snapshot")],
    "config.write_csv": [("kvicsek.presets", "write_csv"), ("kvicsek.config", "write_csv")],
    "config.write_manifest": [("kvicsek.presets", "write_manifest")],
    "influence.make_influence": [("kvicsek.presets", "make_influence")],
    "homogeneous.evolve_homogeneous": [("kvicsek.homogeneous", "evolve_homogeneous")],
    "homogeneous.solve_compatibility": [("kvicsek.homogeneous", "solve_compatibility")],
    "homogeneous.linear_stability": [("kvicsek.homogeneous", "linear_stability")],
    "linear.evolve_mode": [("kvicsek.linear", "evolve_mode")],
    "linear.step_mode": [("kvicsek.linear", "step_mode")],
    "linear.comparison_sandwich": [("kvicsek.linear", "comparison_sandwich")],
    "linear.map_mode_jobs": [("kvicsek.linear", "map_mode_jobs")],
    "agents.em_step": [("kvicsek.agents", "em_step")],
    "agents.angular_drift": [("kvicsek.agents", "angular_drift")],
    "agents.order_parameter": [("kvicsek.agents", "order_parameter")],
    "agents.empirical_density": [("kvicsek.agents", "empirical_density")],
}

# Spans opened on a pool thread with no open span of their own are
# attributed to the innermost open span of this function.
POOL_ROOT = "linear.map_mode_jobs"

# Argument that counts a call's units of work, for per-step figures.
WORK_ARGS = {"homogeneous.evolve_homogeneous": "n_steps"}

# Per-layer metrics beyond the four per wrapped function, with their units.
DERIVED_UNITS = {
    "kinetic.step_kappa0_ms": "ms",
    "kinetic.align_ms": "ms",
    "fft.calls_per_step": "count",
    "fft.bytes_per_step": "bytes-computed",
    "io.bytes_written": "bytes",
    "homogeneous.step_us": "us",
    "linear.map_mode_jobs.serial_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
    "trace.uncovered_s": "s",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SITES:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.p50_ms": "ms", f"{name}.p90_ms": "ms"})
    units.update(DERIVED_UNITS)
    return units


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "work",
                 "fft_calls", "fft_bytes")

    def __init__(self, sid, name, parent, thread, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = start
        self.work = 0
        self.fft_calls = 0
        self.fft_bytes = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Recorder:
    """Collects spans and FFT counts while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_roots: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._pool_roots[-1].id if self._pool_roots else None
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(), time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        if name == POOL_ROOT:
            self._pool_roots.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name == POOL_ROOT:
            self._pool_roots.remove(span)

    def wrap(self, name: str, fn):
        work_arg = WORK_ARGS.get(name)
        sig = inspect.signature(fn) if work_arg else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                if sig is not None:
                    span.work = int(sig.bind(*args, **kwargs).arguments.get(work_arg, 0))
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def count_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.enabled:
                a = args[0] if args else next(iter(kwargs.values()))
                nbytes = np.asarray(a).nbytes + np.asarray(out).nbytes
                stack = self._stack()
                if stack:
                    stack[-1].fft_calls += 1
                    stack[-1].fft_bytes += nbytes
            return out

        return wrapper

    def install_fft_counters(self) -> None:
        """Wrap the transform entry points; call before importing kvicsek."""
        for modname in ("numpy.fft", "scipy.fft"):
            mod = importlib.import_module(modname)
            for attr in FFT_NAMES:
                orig = getattr(mod, attr, None)
                if orig is not None:
                    setattr(mod, attr, self.count_fft(orig))

    def install_spans(self) -> None:
        for name, sites in SITES.items():
            wrapped = {}
            for modname, attr in sites:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self.wrap(name, orig)
                setattr(mod, attr, wrapped[id(orig)])


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    Children on pool threads may overlap one another; their union is
    subtracted, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, [])]
        covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-function calls, self time and duration percentiles, plus coverage."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {name: [] for name in SITES}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    out: dict[str, float] = {}
    for name, idx in by_name.items():
        durs_ms = np.array([(spans[i].end - spans[i].start) * 1e3 for i in idx])
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.self_s"] = float(sum(selfs[i] for i in idx))
        out[f"{name}.p50_ms"] = float(np.percentile(durs_ms, 50)) if idx else 0.0
        out[f"{name}.p90_ms"] = float(np.percentile(durs_ms, 90)) if idx else 0.0

    # FFT counts are attributed to the innermost open span; fold them into
    # every ancestor so that a step's figure includes its helpers' transforms.
    incl_calls = [s.fft_calls for s in spans]
    incl_bytes = [s.fft_bytes for s in spans]
    for s in reversed(spans):
        if s.parent is not None:
            incl_calls[s.parent] += incl_calls[s.id]
            incl_bytes[s.parent] += incl_bytes[s.id]
    # The median step, because the first step also pays one-off lazy set-up
    # (the kernel multiplier's fft2).
    steps = by_name["kinetic.step_kinetic"]
    out["fft.calls_per_step"] = float(np.median([incl_calls[i] for i in steps])) if steps else 0.0
    out["fft.bytes_per_step"] = float(np.median([incl_bytes[i] for i in steps])) if steps else 0.0

    hom = by_name["homogeneous.evolve_homogeneous"]
    hom_steps = sum(spans[i].work for i in hom)
    out["homogeneous.step_us"] = (
        sum(selfs[i] for i in hom) / hom_steps * 1e6 if hom_steps else 0.0
    )

    covered = _union_length([(s.start, s.end) for s in spans])
    out["trace.self_sum_frac"] = sum(selfs) / wall_s
    out["trace.uncovered_s"] = max(0.0, wall_s - covered)
    return out
