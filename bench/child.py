"""One benchmark repetition in a fresh interpreter; prints one JSON record.

Started by ``run.py``.  The parent passes the monotonic clock reading
taken just before it spawned this process, so ``setup_s`` covers
interpreter start, ``import kvicsek`` and building the inputs.  By hand
it re-records the reference outputs:

    PYTHONPATH=src python3 bench/child.py kinetic --seed 0 --size full --record-reference
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
PROBE_CALLS = 5


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _kappa0_probe(out: dict, size: dict) -> float:
    """Median ms of public step_kinetic with kappa = 0 on the run's final state."""
    import kvicsek.influence as influence
    import kvicsek.kinetic as kinetic
    import kvicsek.spectral as spectral

    opts = dict(size["presets"][0][1])
    last = sorted(out["dirs"]["kinetic"].glob("snapshot_*.bin"))[-1]
    f, header = spectral.read_snapshot(last)
    params = kinetic.KineticParams(
        kappa=0.0, nu=float(opts["nu"]), grid=f.grid, dt=float(opts["dt"]), t_end=float(opts["t_end"])
    )
    kernels = influence.make_influence(f.grid, phi="bump", sigma=float(opts["sigma"]))
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter()
        kinetic.step_kinetic(f, params, kernels, header["time"])
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _dir_bytes(dirs: dict) -> int:
    return sum(p.stat().st_size for d in dirs.values() for p in Path(d).rglob("*") if p.is_file())


def run_rep(args) -> dict:
    rec: dict = {"ok": False, "failures": []}
    recorder = None
    if args.trace:
        from tracing import Recorder, layer_metrics

        recorder = Recorder()
        recorder.install_fft_counters()

    import kvicsek
    import kvicsek.linear
    import numpy
    import scipy
    import workloads

    w = workloads.WORKLOADS[args.workload]
    size = w.sizes[args.size]
    out_dir = Path(args.out)
    inputs = w.setup(args.seed, size, out_dir)
    rec["setup_s"] = time.monotonic() - args.t_spawn
    rec["versions"] = {"kvicsek": kvicsek.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__}
    pool_size = getattr(kvicsek.linear, "pool_size", None)
    rec["pool_size"] = pool_size() if pool_size else None

    if recorder is not None:
        recorder.install_spans()
        recorder.enabled = True
    cpu0, t0 = _rusage_cpu(), time.perf_counter()
    try:
        out = w.run(inputs)
    except Exception as exc:  # a failed run is counted, not fatal
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["traceback"] = traceback.format_exc()
        return rec
    finally:
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = _rusage_cpu() - cpu0
        if recorder is not None:
            recorder.enabled = False

    try:
        rec["failures"] = _check(args, w, size, out)
    except Exception as exc:  # a check that cannot read the outputs fails the run
        rec["failures"] = [f"check crashed: {type(exc).__name__}: {exc}"]
    rec["io_bytes"] = _dir_bytes(out["dirs"])

    if recorder is not None:
        rec["layers"] = layer_metrics(recorder.spans, rec["wall_s"])
        if args.workload == "kinetic":
            rec["layers"]["kinetic.step_kappa0_ms"] = _kappa0_probe(out, size)
        if args.spans:
            spans = [s.as_dict() for s in recorder.spans]
            Path(args.spans).write_text(json.dumps(spans) + "\n")
    rec["ok"] = not rec["failures"]
    return rec


def _check(args, w, size, out) -> list[str]:
    import workloads

    fails = w.check(out, size)
    tables = workloads.output_tables(out)
    ref_path = REFERENCE_DIR / f"{args.workload}-{args.size}.json"
    if args.record_reference:
        ref_path.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    if args.seed == 0:
        fails += workloads.compare_reference(tables, json.loads(ref_path.read_text()))
    return fails


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--t-spawn", type=float, default=time.monotonic(),
                   help="monotonic clock reading just before the parent spawned this process")
    p.add_argument("--out", default=str(HERE.parent / ".bench_out" / "record"),
                   help="scratch directory for the outputs; removed at exit")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", help="write the recorded spans to this JSON file")
    p.add_argument("--record-reference", action="store_true",
                   help="overwrite the reference outputs with this run's (seed 0 only)")
    args = p.parse_args(argv)
    if args.record_reference and args.seed != 0:
        p.error("--record-reference needs --seed 0")
    try:
        rec = run_rep(args)
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
