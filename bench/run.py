"""kvicsek benchmark: run workloads in fresh processes, check outputs, print metrics.

    python3 bench/run.py --workload kinetic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # kinetic, sweep, agents, compare in turn

Each repetition is one fresh interpreter (``child.py``), started only
after the previous one ended: a closed loop with one client.  The loop
repeats for ``--seconds`` and reports medians.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates traced and untraced
repetitions and prints the per-layer metrics.  The last line of standard
output is one JSON object; a results file with the environment record
and every repetition goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("kinetic", "sweep", "agents", "compare")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
MIN_REPS = 3
# One invocation must end within 180 s: start no repetition after
# BUDGET_S, and kill any repetition still running at DEADLINE_S.
BUDGET_S = 140.0
DEADLINE_S = 170.0


def _median(xs):
    return statistics.median(xs) if xs else None


def _quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (None, None)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own repository, if it is one; never a parent's."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_ticks() -> list[int]:
    """Aggregate CPU tick counters from /proc/stat (user ... steal), or [] if unreadable."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def _steal_frac(start: list[int], end: list[int]) -> float | None:
    """Share of the machine's CPU time the hypervisor took from this VM."""
    if len(start) < 8 or len(end) < 8:
        return None
    total = sum(end) - sum(start)
    return (end[7] - start[7]) / total if total > 0 else None


def environment() -> dict:
    """What produced the numbers; recorded, not pinned."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "VICSEK_THREADS")},
        "loadavg_start": list(os.getloadavg()),
        "cpu_ticks_start": _cpu_ticks(),
        "git_commit": _git_commit(ROOT),
    }


def _child_env(serial: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if serial:
        env["VICSEK_THREADS"] = "1"
    return env


def warm_up() -> None:
    """Compile the bytecode once, as an installed package would have it."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import kvicsek, workloads, tracing"
    # A failure here shows again, and is counted, in the first repetition.
    subprocess.run([sys.executable, "-c", code], env=_child_env(False), cwd=ROOT,
                   capture_output=True, timeout=DEADLINE_S)


def spawn(workload: str, seed: int, size: str, kind: str, index: int, timeout: float) -> dict:
    """One repetition in a fresh process; kind is plain, traced or serial."""
    tag = f"{workload}-{size}-{kind}-{index}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), workload, "--seed", str(seed), "--size", size,
           "--out", str(OUT / "reps" / tag)]
    if kind == "traced":
        cmd += ["--trace", "--spans", str(OUT / f"spans_{workload}_seed{seed}_{index}.json")]
    env = _child_env(serial=kind == "serial")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "ok": False, "error": f"killed after {timeout:.0f} s"}
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if proc.returncode != 0:
        rec["ok"] = False
        rec.setdefault("error", f"exit {proc.returncode}")
    rec["kind"] = kind
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Repeat the workload for `seconds`; return the summary and every record."""
    env = environment()
    t_start = time.monotonic()
    warm_up()
    cycle = ["plain"]
    if trace:
        cycle = ["traced", "plain"] + (["serial"] if workload == "sweep" else [])
    reps: list[dict] = []
    while True:
        for kind in cycle:
            timeout = max(1.0, DEADLINE_S - (time.monotonic() - t_start))
            reps.append(spawn(workload, seed, size, kind, len(reps), timeout))
        elapsed = time.monotonic() - t_start
        if elapsed > BUDGET_S or (elapsed >= seconds and len(reps) >= (len(cycle) if trace else MIN_REPS)):
            break
    env["loadavg_end"] = list(os.getloadavg())
    env["steal_frac"] = _steal_frac(env.pop("cpu_ticks_start"), _cpu_ticks())

    ok = {kind: [r for r in reps if r["ok"] and r["kind"] == kind] for kind in ("plain", "traced", "serial")}
    stats = {}
    for name in E2E_UNITS:
        xs = [r[name] for r in ok["plain"]]
        q1, q3 = _quartiles(xs)
        stats[name] = {"value": _median(xs), "unit": E2E_UNITS[name], "n": len(xs), "q1": q1, "q3": q3}
    failed = sum(not r["ok"] for r in reps)
    summary = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(reps),
        "failed": failed,
        "failed_frac": failed / len(reps),
        "end_to_end": stats,
        "pool_size": next((r.get("pool_size") for r in ok["plain"]), None),
        "environment": env,
    }
    if trace:
        summary["per_layer"] = _per_layer(workload, ok)
    summary["reps"] = reps
    return summary


def _per_layer(workload: str, ok: dict) -> dict:
    units = layer_units()
    traced = ok["traced"]
    out = {}
    for name in units:
        xs = [r["layers"][name] for r in traced if name in r.get("layers", {})]
        out[name] = _median(xs) if xs else 0.0
    plain_wall = _median([r["wall_s"] for r in ok["plain"]])
    traced_wall = _median([r["wall_s"] for r in traced])
    if plain_wall and traced_wall:
        out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    out["io.bytes_written"] = _median([r["io_bytes"] for r in ok["plain"]]) or 0.0
    out["linear.map_mode_jobs.serial_wall_s"] = _median([r["wall_s"] for r in ok["serial"]]) or 0.0
    if workload == "kinetic" and out["kinetic.step_kappa0_ms"]:
        out["kinetic.align_ms"] = out["kinetic.step_kinetic.p50_ms"] - out["kinetic.step_kappa0_ms"]
    return {name: {"value": out[name], "unit": units[name]} for name in units}


def report(summary: dict) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    w = summary["workload"]
    print(f"[{w}] seed={summary['seed']} size={summary['size']} trace={summary['trace']} "
          f"attempted={summary['attempted']} failed={summary['failed']} pool_size={summary['pool_size']}")
    for r in summary["reps"]:
        if not r["ok"]:
            detail = r.get("error") or "; ".join(r.get("failures", []))
            print(f"[{w}] {r['kind']} run FAILED: {detail}")
    if summary["trace"]:
        metrics = summary["per_layer"]
        for name, m in metrics.items():
            print(f"[{w}] {name:42s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {}
        for name, m in summary["end_to_end"].items():
            if m["value"] is None:
                continue
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
            print(f"[{w}] {name:12s} {m['value']:.6g} {m['unit']}  "
                  f"(median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    print(f"[{w}] {'failed_frac':12s} {summary['failed_frac']:.6g} ratio  "
          f"({summary['failed']} of {summary['attempted']} runs failed)")
    env = summary["environment"]
    steal = "n/a" if env["steal_frac"] is None else f"{env['steal_frac']:.3f}"
    print(f"[{w}] env: {env['cpu_count']} x {env['cpu_model']}; python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']}; {env['env']}; "
          f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}, steal {steal}; "
          f"commit {env['git_commit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{w}_seed{summary['seed']}_trace{summary['trace']}.json"
    path.write_text(json.dumps(summary, indent=1, default=str) + "\n")
    print(f"[{w}] results: {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four in turn)")
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 also compares with the reference outputs")
    p.add_argument("--seconds", type=float, default=25.0, help="how long to repeat each workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny problem sizes, for the self-test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "kvicsek" / "__init__.py").is_file():
        print(f"error: no kvicsek sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    names = [args.workload] if args.workload else list(WORKLOADS)
    summaries = [measure(n, args.seed, args.seconds, bool(args.trace), size) for n in names]
    metrics = {}
    for s in summaries:
        m = report(s)
        metrics.update(m if args.workload else {f"{s['workload']}.{k}": v for k, v in m.items()})
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
