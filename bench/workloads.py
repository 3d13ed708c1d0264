"""The four benchmark workloads: inputs from a seed, the timed run, output checks.

Each workload has a ``full`` size, which the benchmark measures, and a
``smoke`` size, a tiny problem for the self-test.  ``setup`` builds the
inputs (counted in ``setup_s``); ``run`` is the timed interval, from the
first call into the package to the last output written; ``check`` reads
the outputs back and returns the failed checks, and runs outside the
timed interval.  Package functions are looked up on their modules at
call time, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kvicsek.agents as agents
import kvicsek.config as config
import kvicsek.influence as influence
import kvicsek.presets as presets
import kvicsek.spectral as spectral


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, dict]
    setup: Callable[[int, dict, Path], object]
    run: Callable[[object], dict]
    check: Callable[[dict, dict], list[str]]


def read_csv(path: Path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]], ndmin=2)
    return {name: rows[:, j] for j, name in enumerate(header)}


# ---------------------------------------------------------------------------
# Preset workloads (kinetic, sweep, compare)
# ---------------------------------------------------------------------------


def _setup_presets(seed: int, size: dict, out_dir: Path) -> list[presets.ExperimentConfig]:
    return [presets.ExperimentConfig(name, dict(opts), out_dir / name, seed) for name, opts in size["presets"]]


def _run_presets(configs: list[presets.ExperimentConfig]) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cfg in configs:
            presets.run_preset(cfg)
    return {
        "dirs": {cfg.preset: cfg.out_dir for cfg in configs},
        "warnings": [str(w.message) for w in caught],
    }


# AC-06 bound, the same one the kinetic preset enforces.
MASS_DRIFT_TOL = 1e-12


def _check_kinetic(out: dict, size: dict) -> list[str]:
    fails = []
    run = read_csv(out["dirs"]["kinetic"] / "kinetic.csv")
    drift = float(np.max(np.abs(run["mass"] - run["mass"][0])) / abs(run["mass"][0]))
    if not drift < MASS_DRIFT_TOL:
        fails.append(f"kinetic: mass drift {drift:.3e} >= {MASS_DRIFT_TOL}")
    negative = [w for w in out["warnings"] if "negative" in w]
    if negative:
        fails.append(f"kinetic: negativity warning: {negative[0]}")
    n_snap = len(list(out["dirs"]["kinetic"].glob("snapshot_*.bin")))
    if n_snap != size["snapshots"]:
        fails.append(f"kinetic: {n_snap} snapshots written, expected {size['snapshots']}")
    return fails


SLOPE_TARGET, SLOPE_TOL = 0.5, 0.1


def _check_sweep(out: dict, size: dict) -> list[str]:
    fails = []
    pd = read_csv(out["dirs"]["phase-diagram"] / "phase_diagram.csv")
    for ratio, r2, stable in zip(pd["ratio"], pd["r2"], pd["stable"]):
        if ratio < 2 and stable != 1:
            fails.append(f"sweep: ratio {ratio:g} < 2 reported unstable")
        if ratio > 2 and stable != 0:
            fails.append(f"sweep: ratio {ratio:g} > 2 reported stable")
        if (r2 != 0) != (ratio > 2):
            fails.append(f"sweep: r2 = {r2:g} at ratio {ratio:g}")
    rates = read_csv(out["dirs"]["linear-ed"] / "rates.csv")
    slope = float(np.polyfit(np.log(rates["nu"]), np.log(rates["rate"]), 1)[0])
    if not abs(slope - SLOPE_TARGET) <= SLOPE_TOL:
        fails.append(f"sweep: rate-vs-nu log-log slope {slope:.4f} not {SLOPE_TARGET} +- {SLOPE_TOL}")
    return fails


def _check_compare(out: dict, size: dict) -> list[str]:
    """The compare preset's own band, re-read from its CSV."""
    opts = dict(size["presets"][0][1])
    band = float(opts.get("band", 0.05))
    t_end = float(opts["t_end"])
    cmp = read_csv(out["dirs"]["compare"] / "compare.csv")
    fails = []
    for tc in np.linspace(0.0, t_end, 10 + 1)[1:]:
        idx = int(np.argmin(np.abs(cmp["t"] - tc)))
        if not cmp["diff"][idx] <= band:
            fails.append(f"compare: SDE/PDE gap {cmp['diff'][idx]:.4f} > {band} at t={cmp['t'][idx]:.2f}")
    return fails


# ---------------------------------------------------------------------------
# Agents workload (library calls)
# ---------------------------------------------------------------------------


@dataclass
class AgentInputs:
    ensemble: agents.AgentEnsemble
    kde_grid: spectral.TorusGrid
    size: dict
    out_dir: Path


def _setup_agents(seed: int, size: dict, out_dir: Path) -> AgentInputs:
    n_x, n_theta = size["influence_grid"]
    grid = spectral.TorusGrid(n_x, n_x, n_theta)
    kernels = influence.make_influence(grid, phi="bump", sigma=1.0)
    g0 = presets.perturbed_profile(n_theta, 0.2, seed)
    e = agents.ensemble_from_profile(size["n"], g0, kernels, kappa=1.0, nu=0.1, seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    return AgentInputs(e, spectral.TorusGrid(*size["kde_grid"]), size, out_dir)


def _run_agents(inputs: AgentInputs) -> dict:
    e = inputs.ensemble
    steps, kde_every, dt = inputs.size["steps"], inputs.size["kde_every"], inputs.size["dt"]
    m_rows, kde_rows = [], []

    def density(i, e):
        d = agents.empirical_density(e, inputs.kde_grid)
        kde_rows.append((i, d.mass, float(np.sqrt(np.sum(np.abs(d.coeffs) ** 2)))))

    for i in range(steps):
        if i % kde_every == 0:
            density(i, e)
        e = agents.em_step(e, dt)
        m = agents.order_parameter(e)
        m_rows.append((e.t, m.real, m.imag, abs(m)))
    density(steps, e)
    config.write_csv(inputs.out_dir / "agents.csv", ["t", "re_m", "im_m", "abs_m"], m_rows)
    config.write_csv(inputs.out_dir / "kde.csv", ["step", "mass", "coeff_l2"], kde_rows)
    return {"dirs": {"agents": inputs.out_dir}, "initial": inputs.ensemble}


PROJECTION_TOL = 1e-12


def _check_agents(out: dict, size: dict) -> list[str]:
    fails = []
    kde = read_csv(out["dirs"]["agents"] / "kde.csv")
    err = float(np.max(np.abs(kde["mass"] - 1.0)))
    if not err < 1e-12:
        fails.append(f"agents: KDE mass off by {err:.3e}")
    proj = agents.projection_drift_check(out["initial"])
    if not proj < PROJECTION_TOL:
        fails.append(f"agents: projection drift check {proj:.3e} >= {PROJECTION_TOL}")
    return fails


# ---------------------------------------------------------------------------
# Registry; BENCHMARK.json says why each workload is in the benchmark
# ---------------------------------------------------------------------------

_KINETIC = {"grid": "32,32,128", "sigma": "1.0", "kappa": "0.04", "nu": "0.01", "dt": "0.05"}

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="kinetic",
            sizes={
                "full": {
                    "presets": [("kinetic", {**_KINETIC, "t_end": "1.5",
                                             "sample_every": "10", "snapshot_every": "15"})],
                    "snapshots": 2,
                },
                "smoke": {
                    "presets": [("kinetic", {**_KINETIC, "grid": "8,8,16", "t_end": "0.2",
                                             "sample_every": "2", "snapshot_every": "2"})],
                    "snapshots": 2,
                },
            },
            setup=_setup_presets,
            run=_run_presets,
            check=_check_kinetic,
        ),
        Workload(
            name="sweep",
            sizes={
                "full": {
                    "presets": [
                        ("phase-diagram", {"ratio_steps": "23", "n_theta": "128", "t_end": "1.0"}),
                        ("linear-ed", {"k_list": "1,0", "nu_list": "3e-2,1e-2,3e-3,1e-3",
                                       "n_theta": "512", "horizon_factor": "2.0"}),
                    ],
                },
                "smoke": {
                    "presets": [
                        ("phase-diagram", {"ratio_steps": "5", "n_theta": "32", "t_end": "0.1"}),
                        ("linear-ed", {"k_list": "1,0", "nu_list": "3e-2,1e-2",
                                       "n_theta": "64", "horizon_factor": "2.0"}),
                    ],
                },
            },
            setup=_setup_presets,
            run=_run_presets,
            check=_check_sweep,
        ),
        Workload(
            name="agents",
            sizes={
                "full": {"n": 1024, "influence_grid": (8, 64), "kde_grid": (16, 16, 32),
                         "steps": 10, "kde_every": 5, "dt": 0.02},
                "smoke": {"n": 64, "influence_grid": (4, 16), "kde_grid": (4, 4, 8),
                          "steps": 3, "kde_every": 2, "dt": 0.02},
            },
            setup=_setup_agents,
            run=_run_agents,
            check=_check_agents,
        ),
        Workload(
            name="compare",
            sizes={
                "full": {"presets": [("compare", {"ratio": "4", "nu": "0.1", "n": "10000",
                                                  "t_end": "10"})]},
                "smoke": {"presets": [("compare", {"ratio": "4", "nu": "0.1", "n": "4000",
                                                   "t_end": "0.4", "n_theta": "32"})]},
            },
            setup=_setup_presets,
            run=_run_presets,
            check=_check_compare,
        ),
    ]
}


REF_ROWS = 21


def output_tables(out: dict) -> dict[str, dict[str, list[float]]]:
    """The CSV products compared against the recorded reference.

    Long series keep REF_ROWS evenly spaced rows plus their row count,
    which keeps the recorded reference small.
    """
    tables = {}
    for preset, d in sorted(out["dirs"].items()):
        for path in sorted(Path(d).glob("*.csv")):
            cols = read_csv(path)
            n = len(next(iter(cols.values())))
            idx = np.unique(np.linspace(0, n - 1, min(n, REF_ROWS)).astype(int))
            table = {k: v[idx].tolist() for k, v in cols.items()}
            table["rows"] = [n]
            tables[f"{preset}/{path.name}"] = table
    return tables


# A reordered floating-point sum moves results by a few ulps times the
# steps it is carried through; a wrong answer moves them by far more.
REF_RTOL = 1e-9


def compare_reference(tables: dict, ref: dict) -> list[str]:
    fails = []
    if sorted(tables) != sorted(ref):
        return [f"reference: output files {sorted(tables)} != {sorted(ref)}"]
    for fname, cols in ref.items():
        if sorted(cols) != sorted(tables[fname]):
            fails.append(f"reference: {fname} columns differ")
            continue
        for col, want in cols.items():
            want = np.asarray(want)
            got = np.asarray(tables[fname][col])
            if got.shape != want.shape:
                fails.append(f"reference: {fname}:{col} has {got.size} rows, expected {want.size}")
                continue
            scale = max(float(np.max(np.abs(want))), math.ulp(1.0)) if want.size else 1.0
            err = float(np.max(np.abs(got - want))) if want.size else 0.0
            if not err <= REF_RTOL * scale:
                fails.append(f"reference: {fname}:{col} off by {err:.3e} (scale {scale:.3e})")
    return fails
