"""Experiment presets tying the solver modules into runnable artifacts.

Every preset writes a manifest before any data, emits plot-ready CSVs
with deterministic content for a fixed seed, and raises NumericsError
when one of its built-in assertions (sandwich, mass, equivalence bands)
fails.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import agents as ag
from . import homogeneous as hom
from . import kinetic as kin
from . import linear as lin
from .config import Options, write_csv, write_manifest
from .errors import ConfigError, NumericsError
from .fitting import fit_rate
from .influence import angular_kernel, make_influence
from .spectral import TWO_PI, AngularProfile, TorusGrid, theta_points, write_header_and_payload


@dataclass
class ExperimentConfig:
    preset: str
    options: dict[str, str] = field(default_factory=dict)
    out_dir: Path = Path("out")
    seed: int = 0


def run_preset(cfg: ExperimentConfig) -> list[Path]:
    try:
        runner = _PRESETS[cfg.preset]
    except KeyError:
        raise ConfigError(
            f"unknown preset {cfg.preset!r}; choose from {sorted(_PRESETS)}"
        ) from None
    return runner(cfg)


@contextmanager
def _config_errors():
    """Report a ValueError of a constructor that rejects an option as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def _parse_k_list(text: str) -> list[tuple[int, int]]:
    ks = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        a, b = part.split(",")
        ks.append((int(a), int(b)))
    if not ks:
        raise ConfigError("empty k list")
    return ks


def perturbed_profile(n_theta: int, amplitude: float = 0.2, seed: int = 0) -> AngularProfile:
    """Unit-mass density 1/2pi plus a low-mode perturbation, strictly positive."""
    rng = np.random.default_rng(seed)
    th = theta_points(n_theta)
    pert = np.cos(th) + 0.4 * rng.uniform(-1, 1) * np.sin(2 * th) + 0.2 * rng.uniform(-1, 1) * np.cos(3 * th)
    pert /= np.max(np.abs(pert))
    vals = (1.0 + amplitude * pert) / TWO_PI
    prof = AngularProfile.from_values(vals)
    return AngularProfile(prof.coeffs / (TWO_PI * prof.coeffs[0]))


# ---------------------------------------------------------------------------
# linear-passive presets
# ---------------------------------------------------------------------------


def _linear_ed(cfg: ExperimentConfig) -> list[Path]:
    o = Options(cfg.options)
    n_theta = o.i("n_theta", 512)
    horizon_factor = o.f("horizon_factor", 5.0)
    beta = o.f("beta", lin.MAX_BETA)
    with _config_errors():
        ks = _parse_k_list(o.s("k_list", "1,0"))
        nus = [float(x) for x in o.s("nu_list", "1e-3,3e-4,1e-4,3e-5").split(",")]
        eta0 = AngularProfile.from_function(np.cos, n_theta)
        weights = lin.HypoWeights(beta)
        states = [lin.ModeState(k=k, eta=eta0, t=0.0, nu=nu) for k in ks for nu in nus]
    write_manifest(cfg.out_dir, cfg.preset, cfg.seed, o.resolved)

    paths = []
    summary = []
    for state in states:
        k, nu = state.k, state.nu
        t_ed = 1.0 / np.sqrt(nu * state.k_norm)
        dt = min(0.05, t_ed / 50.0)
        n_steps = int(np.ceil(horizon_factor * t_ed / dt))
        _, series = lin.evolve_mode(
            state, dt, n_steps, weights=weights, sample_every=max(1, n_steps // 2000)
        )
        keep = (series.t >= t_ed) & (series.norm_l2 > lin.UNDERFLOW_FLOOR * series.norm_l2[0])
        slope, stderr = fit_rate(series.t[keep], series.norm_l2[keep])
        name = f"mode_k{k[0]}_{k[1]}_nu{nu:g}.csv"
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
        summary.append((k[0], k[1], nu, -slope, stderr))
    paths.append(
        write_csv(cfg.out_dir / "rates.csv", ["k1", "k2", "nu", "rate", "stderr"], summary)
    )
    return paths


def _mixing(cfg: ExperimentConfig) -> list[Path]:
    o = Options(cfg.options)
    nu = o.f("nu", 1e-4)
    _require_positive("nu", nu)
    n_theta = o.i("n_theta", 512)
    dt = o.f("dt", 0.05)
    horizon = o.f("horizon", 1.0 / np.sqrt(nu))
    with _config_errors():
        ks = _parse_k_list(o.s("k_list", "1,0"))
        eta0 = AngularProfile.from_function(np.cos, n_theta)
    write_manifest(cfg.out_dir, cfg.preset, cfg.seed, o.resolved)

    paths = []
    summary = []
    for k in ks:
        curve = lin.mixing_curve(k, nu, eta0, horizon=horizon, dt=dt)
        name = f"mixing_k{k[0]}_{k[1]}_nu{nu:g}.csv"
        paths.append(write_csv(cfg.out_dir / name, ["t", "norm_Hm1"], zip(curve.t, curve.norm_hm1)))
        summary.append((k[0], k[1], nu, curve.slope, curve.stderr))
    paths.append(
        write_csv(cfg.out_dir / "mixing_slopes.csv", ["k1", "k2", "nu", "slope", "stderr"], summary)
    )
    return paths


# ---------------------------------------------------------------------------
# kinetic preset
# ---------------------------------------------------------------------------

MASS_DRIFT_TOL = 1e-12


def _kinetic(cfg: ExperimentConfig) -> list[Path]:
    o = Options(cfg.options)
    kappa = o.f("kappa", 0.04)
    nu = o.f("nu", 0.01)
    n1, n2, nth = o.grid3("grid", "32,32,128")
    dt = o.f("dt", 0.05)
    t_end = o.f("t_end", 30.0)
    sample_every = o.i("sample_every", 10)
    snapshot_every = o.i("snapshot_every", 0)
    eps_rel = o.f("eps_rel", 0.5)
    sigma = o.f("sigma", 1.0)
    with _config_errors():
        grid = TorusGrid(n1, n2, nth)
        params = kin.KineticParams(kappa=kappa, nu=nu, grid=grid, dt=dt, t_end=t_end, seed=cfg.seed)
        kernels = make_influence(grid, phi="bump", sigma=sigma)
    write_manifest(cfg.out_dir, cfg.preset, cfg.seed, o.resolved)

    run = kin.run_experiment(
        params,
        kernels,
        eps=eps_rel / TWO_PI**3,
        sample_every=sample_every,
        snapshot_every=snapshot_every,
        out_dir=cfg.out_dir,
    )
    rows = zip(
        run.t, run.fneq_l2, run.fneq_hm1, run.favg_l2, run.min_f, run.mass,
        run.order_parameter.real, run.order_parameter.imag, np.abs(run.order_parameter),
    )
    path = write_csv(
        cfg.out_dir / "kinetic.csv",
        ["t", "fneq_L2", "fneq_Hm1", "favg_L2", "min_f", "mass", "re_m", "im_m", "abs_m"],
        rows,
    )
    drift = np.max(np.abs(run.mass - run.mass[0])) / abs(run.mass[0])
    if drift > MASS_DRIFT_TOL:
        raise NumericsError(f"mass drift {drift:.3e} exceeds {MASS_DRIFT_TOL}")
    return run.snapshots + [path]


# ---------------------------------------------------------------------------
# homogeneous presets
# ---------------------------------------------------------------------------


def _homogeneous(cfg: ExperimentConfig) -> list[Path]:
    o = Options(cfg.options)
    nu = o.f("nu", 0.1)
    ratio = o.f("ratio", 4.0)
    kappa = o.f("kappa", ratio * nu)
    n_theta = o.i("n_theta", 256)
    dt = o.f("dt", 0.005)
    t_end = o.f("t_end", 50.0)
    amplitude = o.f("amplitude", 0.2)
    sample_every = o.i("sample_every", 10)
    _require_positive("nu", nu)
    with _config_errors():
        kernel = angular_kernel(n_theta)
        g0 = perturbed_profile(n_theta, amplitude, cfg.seed)
        state = hom.HomogeneousState(g=g0, t=0.0, kappa=kappa, nu=nu)
    write_manifest(cfg.out_dir, cfg.preset, cfg.seed, o.resolved)

    traj = hom.evolve_homogeneous(
        state, kernel, dt, int(round(t_end / dt)),
        sample_every=sample_every, record_energy=True,
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


def _phase_diagram(cfg: ExperimentConfig) -> list[Path]:
    o = Options(cfg.options)
    ratio_min = o.f("ratio_min", 0.5)
    ratio_max = o.f("ratio_max", 6.0)
    ratio_steps = o.i("ratio_steps", 23)
    nu = o.f("nu", 0.1)
    n_theta = o.i("n_theta", 128)
    dt = o.f("dt", 0.01)
    t_end = o.f("t_end", 120.0)
    amplitude = o.f("amplitude", 0.2)
    _require_positive("nu", nu)
    with _config_errors():
        kernel = angular_kernel(n_theta)
        g0 = perturbed_profile(n_theta, amplitude, cfg.seed)
    write_manifest(cfg.out_dir, cfg.preset, cfg.seed, o.resolved)

    rows = []
    for ratio in np.linspace(ratio_min, ratio_max, ratio_steps):
        root = hom.solve_compatibility(float(ratio))
        state = hom.HomogeneousState(g=g0, t=0.0, kappa=float(ratio) * nu, nu=nu)
        traj = hom.evolve_homogeneous(state, kernel, dt, int(round(t_end / dt)), sample_every=50)
        stab = hom.linear_stability(kernel, float(ratio) * nu, nu, l_max=8)
        rows.append((float(ratio), root.r2 or 0.0, abs(traj.order_parameter[-1]), stab.stable))
    rows.sort(key=lambda r: r[0])
    path = write_csv(cfg.out_dir / "phase_diagram.csv", ["ratio", "r2", "final_abs_m", "stable"], rows)
    return [path]


# ---------------------------------------------------------------------------
# agents presets
# ---------------------------------------------------------------------------


def _agents(cfg: ExperimentConfig) -> list[Path]:
    o = Options(cfg.options)
    n = o.i("n", 4096)
    kappa = o.f("kappa", 1.0)
    nu = o.f("nu", 0.1)
    dt = o.f("dt", 0.02)
    t_end = o.f("t_end", 20.0)
    sample_every = o.i("sample_every", 5)
    snapshot_every = o.i("snapshot_every", 0)
    phi = o.s("phi", "uniform")
    sigma = o.f("sigma", 1.0)
    n_theta = o.i("n_theta", 64)
    amplitude = o.f("amplitude", 0.2)
    n_x = max(4, o.i("n_x", 8))
    _require_positive("sigma", sigma)
    with _config_errors():
        grid = TorusGrid(n_x, n_x, n_theta)
        influence = make_influence(grid, phi=phi, sigma=sigma)
        influence.phi_series  # the drift's series of Phi: resolve it before any output
    write_manifest(cfg.out_dir, cfg.preset, cfg.seed, o.resolved)

    g0 = perturbed_profile(n_theta, amplitude, cfg.seed)
    e = ag.ensemble_from_profile(n, g0, influence, kappa=kappa, nu=nu, seed=cfg.seed)

    n_steps = int(round(t_end / dt))
    rows = []
    paths: list[Path] = []
    m = ag.order_parameter(e)
    rows.append((e.t, m.real, m.imag, abs(m)))
    for i in range(n_steps):
        e = ag.em_step(e, dt)
        if (i + 1) % sample_every == 0 or i == n_steps - 1:
            m = ag.order_parameter(e)
            rows.append((e.t, m.real, m.imag, abs(m)))
        if snapshot_every > 0 and ((i + 1) % snapshot_every == 0 or i == n_steps - 1):
            header = {"n": e.n, "time": e.t, "layout": "rows (x1,x2,theta) float64 little-endian"}
            payload = np.column_stack([e.x, e.theta]).astype("<f8")
            path = cfg.out_dir / f"agents_{i + 1:08d}.bin"
            paths.append(write_header_and_payload(path, header, payload))
    paths.append(write_csv(cfg.out_dir / "agents.csv", ["t", "re_m", "im_m", "abs_m"], rows))
    return paths


def _compare(cfg: ExperimentConfig) -> list[Path]:
    """Homogeneous PDE against the SDE with uniform Phi at the same ratio.

    For uniform Phi the agents' angular law follows the homogeneous
    equation with effective alignment kappa/(2pi)^2 (the x-marginal of a
    probability density on T^2 carries the torus area), so the SDE runs
    at kappa = ratio * nu * (2pi)^2.
    """
    o = Options(cfg.options)
    ratio = o.f("ratio", 4.0)
    nu = o.f("nu", 0.1)
    n = o.i("n", 10000)
    t_end = o.f("t_end", 60.0)
    dt_sde = o.f("dt_sde", 0.02)
    dt_pde = o.f("dt_pde", 0.01)
    n_theta = o.i("n_theta", 128)
    checkpoints = o.i("checkpoints", 10)
    band = o.f("band", 0.05)
    write_manifest(cfg.out_dir, cfg.preset, cfg.seed, o.resolved)

    th = theta_points(n_theta)
    g0 = AngularProfile.from_values((1.0 + np.cos(th)) / TWO_PI)
    kernel = angular_kernel(n_theta)
    state = hom.HomogeneousState(g=g0, t=0.0, kappa=ratio * nu, nu=nu)
    traj = hom.evolve_homogeneous(state, kernel, dt_pde, int(round(t_end / dt_pde)), sample_every=5)

    grid = TorusGrid(4, 4, n_theta)
    influence = make_influence(grid, phi="uniform")
    kappa_agents = ratio * nu * TWO_PI**2
    e = ag.ensemble_from_profile(n, g0, influence, kappa=kappa_agents, nu=nu, seed=cfg.seed)

    times = [e.t]
    m_sde = [abs(ag.order_parameter(e))]
    n_steps = int(round(t_end / dt_sde))
    for i in range(n_steps):
        e = ag.em_step(e, dt_sde)
        if (i + 1) % max(1, n_steps // 200) == 0 or i == n_steps - 1:
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
    check_times = np.linspace(0.0, t_end, checkpoints + 1)[1:]
    for tc in check_times:
        idx = int(np.argmin(np.abs(times - tc)))
        gap = abs(m_pde[idx] - m_sde[idx])
        if gap > band:
            raise NumericsError(
                f"SDE/PDE order parameters differ by {gap:.3f} > {band} at t={times[idx]:.2f}"
            )
    return [path]


_PRESETS = {
    "linear-ed": _linear_ed,
    "mixing": _mixing,
    "kinetic": _kinetic,
    "homogeneous": _homogeneous,
    "phase-diagram": _phase_diagram,
    "agents": _agents,
    "compare": _compare,
}

PRESET_NAMES = tuple(sorted(_PRESETS))
