"""Experiment presets tying the solver modules into runnable artifacts.

Each preset is one table of its options (name -> default) and a build
step.  The table is the one place an option's name, type (that of the
default: float, int, str or the 3-int grid) and default is written; a
callable default derives a float from the other options when the key is
absent.  ``run_preset`` resolves the options against the table, builds
everything that can reject input, writes the manifest, and only then
runs, so a configuration error (exit 2) leaves no output behind.  The
runs emit plot-ready CSVs with deterministic content for a fixed seed,
and raise NumericsError when one of their built-in assertions (sandwich,
mass, equivalence bands) fails; a ValueError raised by a run is one too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import agents as ag
from . import homogeneous as hom
from . import kinetic as kin
from . import linear as lin
from .config import due, parse_option, resolve_options, step_count, write_csv, write_manifest
from .errors import ConfigError, NumericsError
from .influence import angular_kernel, make_influence
from .spectral import TWO_PI, AngularProfile, TorusGrid, theta_points, write_header_and_payload


@dataclass
class ExperimentConfig:
    preset: str
    options: dict[str, str] = field(default_factory=dict)
    out_dir: Path = Path("out")
    seed: int = 0


Run = Callable[[], list[Path]]


@dataclass(frozen=True)
class Preset:
    """An option table (name -> default) and a build step.

    ``build(cfg, options)`` constructs everything that can reject the
    options (a ValueError is a configuration error) and returns the run.
    """

    options: dict[str, object]
    build: Callable[[ExperimentConfig, dict[str, Any]], Run]


PRESETS: dict[str, Preset] = {}


def _preset(name: str, **options: object):
    """Register ``build`` as preset ``name`` with its option table, given as keywords."""

    def register(build):
        PRESETS[name] = Preset(options, build)
        return build

    return register


def run_preset(cfg: ExperimentConfig) -> list[Path]:
    try:
        preset = PRESETS[cfg.preset]
    except KeyError:
        raise ConfigError(
            f"unknown preset {cfg.preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    options = resolve_options(cfg.options, preset.options)
    try:
        run = preset.build(cfg, options)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    write_manifest(cfg.out_dir, cfg.preset, cfg.seed, options)
    try:
        return run()
    except ValueError as exc:
        raise NumericsError(str(exc)) from exc


def _parse_k_list(text: str) -> list[tuple[int, int]]:
    ks = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            a, b = (int(v) for v in part.split(","))
        except ValueError:
            raise ConfigError(f"k_list entry {part!r} is not two integers k1,k2") from None
        ks.append((a, b))
    if not ks:
        raise ConfigError("k_list is empty")
    return ks


def perturbed_profile(n_theta: int, amplitude: float = 0.2, seed: int = 0) -> AngularProfile:
    """Unit-mass density 1/2pi plus a low-mode perturbation; ValueError unless it is > 0 on its grid."""
    rng = np.random.default_rng(seed)
    th = theta_points(n_theta)
    pert = np.cos(th) + 0.4 * rng.uniform(-1, 1) * np.sin(2 * th) + 0.2 * rng.uniform(-1, 1) * np.cos(3 * th)
    pert /= np.max(np.abs(pert))
    vals = (1.0 + amplitude * pert) / TWO_PI
    prof = AngularProfile.from_values(vals)
    g = AngularProfile(prof.coeffs / (TWO_PI * prof.coeffs[0]))
    low = float(np.min(g.values.real))
    if not low > 0:
        raise ValueError(f"amplitude {amplitude!r} gives an initial density with min g = {low:.3g}, not > 0")
    return g


# ---------------------------------------------------------------------------
# linear-passive presets
# ---------------------------------------------------------------------------


def _mode_csv_names(prefix: str, states: list[lin.ModeState]) -> list[str]:
    """One CSV name per row of a per-mode preset; ValueError if two rows would share a file."""
    names = [f"{prefix}_k{s.k[0]}_{s.k[1]}_nu{s.nu:g}.csv" for s in states]
    for j, name in enumerate(names):
        if name in names[:j]:
            raise ValueError(
                f"rows {names.index(name)} and {j} (k={states[j].k}, nu={states[j].nu!r}) "
                f"would both write {name}"
            )
    return names


@_preset("linear-ed", k_list="1,0", nu_list="1e-3,3e-4,1e-4,3e-5", n_theta=512,
         horizon_factor=5.0, beta=lin.MAX_BETA)
def _linear_ed(cfg: ExperimentConfig, o: dict[str, Any]) -> Run:
    ks = _parse_k_list(o["k_list"])
    nus = [parse_option("nu_list", x, 0.0) for x in o["nu_list"].split(",")]
    eta0 = AngularProfile.from_function(np.cos, o["n_theta"])
    weights = lin.HypoWeights(o["beta"])
    states = [lin.ModeState(k=k, eta=eta0, t=0.0, nu=nu) for k in ks for nu in nus]
    names = _mode_csv_names("mode", states)
    for s in states:
        lin.ed_schedule(s, o["horizon_factor"])  # rejects a short fit window before any output

    def run() -> list[Path]:
        fits = lin.measure_ed_rate(states, o["horizon_factor"], weights)
        paths = []
        for name, fit in zip(names, fits):
            series = fit.series
            rows = zip(
                series.t, series.norm_l2, series.norm_hm1,
                series.f_hypo, series.f_lower, series.f_upper, series.zeta,
            )
            paths.append(
                write_csv(
                    cfg.out_dir / name,
                    ["t", "norm_L2", "norm_Hm1", "F_hypo", "F_lower", "F_upper", "zeta"],
                    rows,
                )
            )
        summary = [(s.k[0], s.k[1], s.nu, fit.rate, fit.stderr) for s, fit in zip(states, fits)]
        paths.append(
            write_csv(cfg.out_dir / "rates.csv", ["k1", "k2", "nu", "rate", "stderr"], summary)
        )
        return paths

    return run


@_preset("mixing", k_list="1,0", nu=1e-4, n_theta=512, dt=0.05,
         horizon=lambda o: 1.0 / np.sqrt(o["nu"]))
def _mixing(cfg: ExperimentConfig, o: dict[str, Any]) -> Run:
    nu, horizon = o["nu"], o["horizon"]
    eta0 = AngularProfile.from_function(np.cos, o["n_theta"])
    states = [lin.ModeState(k=k, eta=eta0, t=0.0, nu=nu) for k in _parse_k_list(o["k_list"])]
    names = _mode_csv_names("mixing", states)
    lin.mixing_window(nu, horizon, o["dt"])

    def run() -> list[Path]:
        curves = lin.mixing_curve(states, horizon, o["dt"])
        paths = [
            write_csv(cfg.out_dir / name, ["t", "norm_Hm1"], zip(curve.t, curve.norm_hm1))
            for name, curve in zip(names, curves)
        ]
        summary = [(s.k[0], s.k[1], nu, c.slope, c.stderr) for s, c in zip(states, curves)]
        paths.append(
            write_csv(cfg.out_dir / "mixing_slopes.csv", ["k1", "k2", "nu", "slope", "stderr"], summary)
        )
        return paths

    return run


# ---------------------------------------------------------------------------
# kinetic preset
# ---------------------------------------------------------------------------

MASS_DRIFT_TOL = 1e-12


@_preset("kinetic", kappa=0.04, nu=0.01, grid=(32, 32, 128), dt=0.05, t_end=30.0,
         snapshot_every=0, sample_every=10, eps_rel=0.5, sigma=1.0)
def _kinetic(cfg: ExperimentConfig, o: dict[str, Any]) -> Run:
    grid = TorusGrid(*o["grid"])
    params = kin.KineticParams(o["kappa"], o["nu"], grid, o["dt"], o["t_end"])
    kernels = make_influence(grid, phi="bump", sigma=o["sigma"])
    f0 = kin.default_initial(grid, o["eps_rel"] / TWO_PI**3, cfg.seed)
    low = float(np.min(f0.values))
    if not low > 0:
        raise ValueError(f"eps_rel {o['eps_rel']!r} gives an initial density with min f = {low:.3g}, not > 0")

    def run() -> list[Path]:
        result = kin.run_experiment(
            params,
            kernels,
            f0,
            sample_every=o["sample_every"],
            snapshot_every=o["snapshot_every"],
            out_dir=cfg.out_dir,
        )
        rows = zip(
            result.t, result.fneq_l2, result.fneq_hm1, result.favg_l2, result.min_f, result.mass,
            result.order_parameter.real, result.order_parameter.imag, np.abs(result.order_parameter),
        )
        path = write_csv(
            cfg.out_dir / "kinetic.csv",
            ["t", "fneq_L2", "fneq_Hm1", "favg_L2", "min_f", "mass", "re_m", "im_m", "abs_m"],
            rows,
        )
        drift = np.max(np.abs(result.mass - result.mass[0])) / abs(result.mass[0])
        if drift > MASS_DRIFT_TOL:
            raise NumericsError(f"mass drift {drift:.3e} exceeds {MASS_DRIFT_TOL}")
        return result.snapshots + [path]

    return run


# ---------------------------------------------------------------------------
# homogeneous presets
# ---------------------------------------------------------------------------


@_preset("homogeneous", ratio=4.0, nu=0.1, n_theta=256, dt=0.005, t_end=50.0, amplitude=0.2,
         sample_every=10)
def _homogeneous(cfg: ExperimentConfig, o: dict[str, Any]) -> Run:
    kernel = angular_kernel(o["n_theta"])
    g0 = perturbed_profile(o["n_theta"], o["amplitude"], cfg.seed)
    state = hom.HomogeneousState(g=g0, t=0.0, kappa=o["ratio"] * o["nu"], nu=o["nu"])

    def run() -> list[Path]:
        traj = hom.evolve_homogeneous(
            state, kernel, o["dt"], step_count(o["t_end"], o["dt"]),
            sample_every=o["sample_every"], record_energy=True,
        )
        m = traj.order_parameter
        path = write_csv(
            cfg.out_dir / "homogeneous.csv",
            ["t", "re_m", "im_m", "abs_m", "free_energy", "fisher"],
            zip(traj.t, m.real, m.imag, np.abs(m), traj.free_energy, traj.fisher),
        )
        increases = np.diff(traj.free_energy) - 1e-10 * (1.0 + np.abs(traj.free_energy[:-1]))
        if np.any(increases > 0):
            raise NumericsError("free energy increased along the trajectory")
        return [path]

    return run


@_preset("phase-diagram", ratio_min=0.5, ratio_max=6.0, ratio_steps=23, nu=0.1,
         n_theta=128, dt=0.01, t_end=120.0, amplitude=0.2)
def _phase_diagram(cfg: ExperimentConfig, o: dict[str, Any]) -> Run:
    nu, dt = o["nu"], o["dt"]
    kernel = angular_kernel(o["n_theta"])
    g0 = perturbed_profile(o["n_theta"], o["amplitude"], cfg.seed)

    n_steps = step_count(o["t_end"], dt)
    ratios = [float(r) for r in np.linspace(o["ratio_min"], o["ratio_max"], o["ratio_steps"])]
    states = [hom.HomogeneousState(g=g0, t=0.0, kappa=r * nu, nu=nu) for r in ratios]

    def run() -> list[Path]:
        trajs = hom.evolve_homogeneous(states, kernel, dt, n_steps, sample_every=50)
        rows = []
        for ratio, traj in zip(ratios, trajs):
            root = hom.solve_compatibility(ratio)
            stab = hom.linear_stability(kernel, ratio * nu, nu, l_max=min(8, o["n_theta"] // 2))
            rows.append((ratio, root.r2 or 0.0, abs(traj.order_parameter[-1]), stab.stable))
        rows.sort(key=lambda r: r[0])
        path = write_csv(cfg.out_dir / "phase_diagram.csv", ["ratio", "r2", "final_abs_m", "stable"], rows)
        return [path]

    return run


# ---------------------------------------------------------------------------
# agents presets
# ---------------------------------------------------------------------------


@_preset("agents", n=4096, kappa=1.0, nu=0.1, dt=0.02, t_end=20.0, sample_every=5,
         snapshot_every=0, phi="uniform", sigma=1.0, n_theta=64, n_x=8, amplitude=0.2)
def _agents(cfg: ExperimentConfig, o: dict[str, Any]) -> Run:
    n_theta, dt, snapshot_every = o["n_theta"], o["dt"], o["snapshot_every"]
    grid = TorusGrid(o["n_x"], o["n_x"], n_theta)
    influence = make_influence(grid, phi=o["phi"], sigma=o["sigma"])
    g0 = perturbed_profile(n_theta, o["amplitude"], cfg.seed)

    def run() -> list[Path]:
        e = ag.ensemble_from_profile(o["n"], g0, influence, kappa=o["kappa"], nu=o["nu"], seed=cfg.seed)

        n_steps = step_count(o["t_end"], dt)
        rows = []
        paths: list[Path] = []
        m = ag.order_parameter(e)
        rows.append((e.t, m.real, m.imag, abs(m)))
        for step in range(1, n_steps + 1):
            e = ag.em_step(e, dt)
            if due(step, n_steps, o["sample_every"]):
                m = ag.order_parameter(e)
                rows.append((e.t, m.real, m.imag, abs(m)))
            if snapshot_every > 0 and due(step, n_steps, snapshot_every):
                header = {"n": e.n, "time": e.t, "layout": "rows (x1,x2,theta) float64 little-endian"}
                payload = np.column_stack([e.x, e.theta]).astype("<f8")
                path = cfg.out_dir / f"agents_{step:08d}.bin"
                paths.append(write_header_and_payload(path, header, payload))
        paths.append(write_csv(cfg.out_dir / "agents.csv", ["t", "re_m", "im_m", "abs_m"], rows))
        return paths

    return run


@_preset("compare", ratio=4.0, nu=0.1, n=10000, t_end=60.0, dt_sde=0.02, dt_pde=0.01,
         n_theta=128, checkpoints=10, band=0.05)
def _compare(cfg: ExperimentConfig, o: dict[str, Any]) -> Run:
    """Homogeneous PDE against the SDE with uniform Phi at the same ratio.

    For uniform Phi the agents' angular law follows the homogeneous
    equation with effective alignment kappa/(2pi)^2 (the x-marginal of a
    probability density on T^2 carries the torus area), so the SDE runs
    at kappa = ratio * nu * (2pi)^2.
    """
    ratio, nu, t_end, n_theta = o["ratio"], o["nu"], o["t_end"], o["n_theta"]
    th = theta_points(n_theta)
    g0 = AngularProfile.from_values((1.0 + np.cos(th)) / TWO_PI)
    influence = make_influence(TorusGrid(4, 4, n_theta), phi="uniform")
    kernel = influence.angular
    state = hom.HomogeneousState(g=g0, t=0.0, kappa=ratio * nu, nu=nu)

    def run() -> list[Path]:
        dt_pde, dt_sde = o["dt_pde"], o["dt_sde"]
        traj = hom.evolve_homogeneous(state, kernel, dt_pde, step_count(t_end, dt_pde), sample_every=5)

        kappa_agents = ratio * nu * TWO_PI**2
        e = ag.ensemble_from_profile(o["n"], g0, influence, kappa=kappa_agents, nu=nu, seed=cfg.seed)

        times = [e.t]
        m_sde = [abs(ag.order_parameter(e))]
        n_steps = step_count(t_end, dt_sde)
        for step in range(1, n_steps + 1):
            e = ag.em_step(e, dt_sde)
            if due(step, n_steps, max(1, n_steps // 200)):
                times.append(e.t)
                m_sde.append(abs(ag.order_parameter(e)))
        times = np.asarray(times)
        m_sde = np.asarray(m_sde)
        m_pde = np.interp(times, traj.t, np.abs(traj.order_parameter))

        path = write_csv(
            cfg.out_dir / "compare.csv",
            ["t", "abs_m_pde", "abs_m_sde", "diff"],
            zip(times, m_pde, m_sde, np.abs(m_pde - m_sde)),
        )
        band = o["band"]
        for tc in np.linspace(0.0, t_end, o["checkpoints"] + 1)[1:]:
            idx = int(np.argmin(np.abs(times - tc)))
            gap = abs(m_pde[idx] - m_sde[idx])
            if not gap <= band:  # a NaN order parameter fails too
                raise NumericsError(
                    f"SDE/PDE order parameters differ by {gap:.3f} > {band} at t={times[idx]:.2f}"
                )
        return [path]

    return run
