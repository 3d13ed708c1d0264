"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.  Criteria with stated runtime budgets assert
the elapsed wall-clock as part of the criterion.
"""

import time

import numpy as np
import pytest
from scipy.special import ive

import kvicsek.agents as ag
from kvicsek.config import step_count
from kvicsek.fitting import fit_rate
from kvicsek.homogeneous import (
    HomogeneousState,
    evolve_homogeneous,
    fisher_information,
    free_energy,
    frouvelle_liu_rhs,
    homogeneous_rhs,
    linear_stability,
    solve_compatibility,
    von_mises_state,
)
from kvicsek.influence import InfluencePair, angular_kernel, bump_phi, make_influence
from kvicsek.kinetic import KineticParams, default_initial, run_experiment, step_kinetic
from kvicsek.linear import (
    HypoWeights,
    ModeState,
    evolve_mode,
    measure_ed_rate,
    mixing_curve,
)
from kvicsek.presets import perturbed_profile
from kvicsek.spectral import (
    TWO_PI,
    AngularProfile,
    SpectralField,
    TorusGrid,
    fft_wavenumbers,
    remainder,
    x_average,
)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


def test_ac01_linear_enhanced_dissipation_nu_scaling():
    t0 = time.time()
    eta0 = AngularProfile.from_function(np.cos, 512)
    nus = np.array([1e-3, 3e-4, 1e-4, 3e-5])
    fits = measure_ed_rate([ModeState(k=(1, 0), eta=eta0, t=0.0, nu=float(nu)) for nu in nus])
    rates = [fit.rate for fit in fits]
    slope = np.polyfit(np.log(nus), np.log(rates), 1)[0]
    elapsed = time.time() - t0
    ok = abs(slope - 0.5) <= 0.1 and elapsed <= 120.0
    report("AC-01", ok, f"log-log slope {slope:.4f} (target 0.5 +- 0.1), {elapsed:.1f}s <= 120s")


def test_ac02_rate_k_scaling():
    t0 = time.time()
    eta0 = AngularProfile.from_function(np.cos, 512)
    nu = 1e-4
    states = [ModeState(k=k, eta=eta0, t=0.0, nu=nu) for k in ((1, 0), (2, 0))]
    r1, r2 = (fit.rate for fit in measure_ed_rate(states))
    ratio = r2 / r1
    elapsed = time.time() - t0
    ok = abs(ratio - np.sqrt(2.0)) <= 0.15 * np.sqrt(2.0) and elapsed <= 60.0
    report("AC-02", ok, f"rate ratio {ratio:.4f} (target sqrt2 +- 15%), {elapsed:.1f}s <= 60s")


def test_ac03_hypocoercivity_sandwich_50_trajectories():
    rng = np.random.default_rng(2024)
    weights = HypoWeights(1.0 / 4096.0)
    violations = 0
    ls = fft_wavenumbers(64)
    for _ in range(50):
        k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        if k == (0, 0):
            k = (1, 1)
        c = np.zeros(64, dtype=complex)
        sel = np.abs(ls) <= 20
        c[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
        nu = float(10.0 ** rng.uniform(-4, -2))
        s = ModeState(k=k, eta=AngularProfile(c), t=0.0, nu=nu)
        dt = float(rng.uniform(0.01, 0.2))
        # evolve_mode evaluates the sandwich at every sample and raises on violation
        evolve_mode(s, dt, 200, weights=weights, sample_every=1)
    report("AC-03", violations == 0, "bounds held at every sampled time on 50 random trajectories")


def test_ac04_linear_mixing_decay():
    t0 = time.time()
    nu = 1e-4
    eta0 = AngularProfile.from_function(np.cos, 512)
    curve = mixing_curve(ModeState(k=(1, 0), eta=eta0, t=0.0, nu=nu), horizon=1.0 / np.sqrt(nu), dt=0.05)
    elapsed = time.time() - t0
    ok = abs(curve.slope + 0.5) <= 0.15 and elapsed <= 60.0
    report("AC-04", ok, f"H^-1 log-log slope {curve.slope:.4f} (target -0.5 +- 0.15), {elapsed:.1f}s <= 60s")


def test_ac05_nonlinear_enhanced_dissipation():
    t0 = time.time()
    nu = 1e-2
    kappa = nu**0.9
    grid = TorusGrid(32, 32, 128)
    kernels = make_influence(grid, phi="bump", sigma=1.0)
    params = KineticParams(kappa=kappa, nu=nu, grid=grid, dt=0.05, t_end=50.0)
    assert params.ed_regime
    run = run_experiment(params, kernels, default_initial(grid, 0.5 / TWO_PI**3, seed=0), sample_every=5)
    keep = run.fneq_l2 > 1e-13 * run.fneq_l2[0]
    slope, _ = fit_rate(run.t[keep], run.fneq_l2[keep], window=(1.0 / np.sqrt(nu), 50.0))
    rate = -slope
    envelope = (1.0 + run.favg_l2[0]) * (1.0 + np.sqrt(kappa / nu))
    prefactor = run.favg_l2.max() / envelope
    elapsed = time.time() - t0
    ok = rate >= 0.1 * np.sqrt(nu) and prefactor <= 10.0 and elapsed <= 600.0
    report(
        "AC-05",
        ok,
        f"decay rate {rate:.4f} >= {0.1 * np.sqrt(nu):.4f}, envelope prefactor "
        f"{prefactor:.3f} <= 10, {elapsed:.0f}s <= 600s",
    )


def test_ac06_mass_conservation_ten_thousand_steps():
    grid = TorusGrid(8, 8, 32)
    kernels = make_influence(grid, phi="bump", sigma=1.0)
    params = KineticParams(kappa=0.05, nu=0.02, grid=grid, dt=0.005, t_end=50.0)
    f = default_initial(grid, 0.5 / TWO_PI**3, seed=0)
    m0 = f.mass
    t = 0.0
    worst = 0.0
    for _ in range(10000):
        f = step_kinetic(f, params, kernels, t)
        t += params.dt
        worst = max(worst, abs(f.mass - m0) / abs(m0))
    report("AC-06", worst < 1e-12, f"relative mass drift {worst:.3e} < 1e-12 over 10^4 steps")


def test_ac07_free_energy_dissipation():
    kernel = angular_kernel(256)
    nu = 0.1
    details = []
    ok = True
    for ratio in (1.0, 4.0):
        s = HomogeneousState(g=perturbed_profile(256, 0.3, seed=7), t=0.0, kappa=ratio * nu, nu=nu)
        traj = evolve_homogeneous(s, kernel, 0.005, 3000, sample_every=1, record_energy=True)
        deltas = np.diff(traj.free_energy)
        monotone = np.all(deltas <= 1e-10 * (1.0 + np.abs(traj.free_energy[:-1])))

        dt = 1e-4
        st = HomogeneousState(g=perturbed_profile(256, 0.3, seed=7), t=0.0, kappa=ratio * nu, nu=nu)
        st = evolve_homogeneous(st, kernel, dt, 200, sample_every=200).final
        mid = evolve_homogeneous(st, kernel, dt, 1).final
        nxt = evolve_homogeneous(mid, kernel, dt, 1).final
        fd = (free_energy(nxt, kernel) - free_energy(st, kernel)) / (2 * dt)
        d = fisher_information(mid, kernel)
        rel = abs(fd + d) / d
        ok = ok and monotone and rel <= 0.01
        details.append(f"ratio {ratio}: monotone={monotone}, |dF/dt + D|/D = {rel:.2e}")
    report("AC-07", ok, "; ".join(details))


def test_ac08_phase_transition():
    t0 = time.time()
    nu = 0.1
    kernel = angular_kernel(256)

    # both ratios (1.5 and 4) as one batch of rows
    g0 = perturbed_profile(256, 0.2, seed=8)
    states = [HomogeneousState(g=g0, t=0.0, kappa=r * nu, nu=nu) for r in (1.5, 4.0)]
    low, high = evolve_homogeneous(states, kernel, 0.01, 20000, sample_every=200)
    m_low = abs(low.order_parameter[-1])

    root = solve_compatibility(4.0)
    m_high = abs(high.order_parameter[-1])

    stable_below = linear_stability(kernel, 1.9999999 * nu, nu, 8).stable
    unstable_above = linear_stability(kernel, 2.0000001 * nu, nu, 8).stable
    elapsed = time.time() - t0
    ok = (
        m_low < 1e-3
        and abs(m_high - root.r2) < 1e-3
        and stable_below
        and not unstable_above
        and elapsed <= 120.0
    )
    report(
        "AC-08",
        ok,
        f"|m|(ratio 1.5) = {m_low:.2e} < 1e-3; |m|(ratio 4) - r2 = "
        f"{abs(m_high - root.r2):.2e} < 1e-3; verdict flips at 2; {elapsed:.0f}s <= 120s",
    )


def test_ac09_stationary_residual():
    kernel = angular_kernel(256)
    root = solve_compatibility(4.0)
    g = von_mises_state(4.0, root.r2, 256)
    s = HomogeneousState(g=g, t=0.0, kappa=0.4, nu=0.1)
    resid = homogeneous_rhs(s, kernel).norm_l2()
    report("AC-09", resid < 1e-8, f"stationary residual L2 = {resid:.3e} < 1e-8 at n_theta=256")


def test_ac10_oracle_equivalences():
    # alignment operator vs direct quadrature at 16^3
    grid = TorusGrid(16, 16, 16)
    kernels = make_influence(grid, phi="bump", sigma=1.0)
    rng = np.random.default_rng(10)
    vals = 1.0 + 0.5 * rng.standard_normal(grid.shape)
    f = SpectralField.from_values(grid, vals).dealiased()
    L = kernels.apply(f)
    n = 16
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    phi_mat = kernels.phi_values[idx[:, :, None, None], idx[None, None, :, :]]
    psi_mat = kernels.angular.psi.values.real[(idx + n // 2) % n]
    w = (TWO_PI / n) ** 3
    tmp = np.tensordot(phi_mat, f.values.real, axes=([1, 3], [0, 1]))
    direct = w * np.tensordot(tmp, psi_mat, axes=([2], [1]))
    align_dev = np.max(np.abs(L.values.real - direct)) / np.max(np.abs(direct))

    # Frouvelle-Liu dual-path agreement over 100 random profiles
    ls = fft_wavenumbers(64)
    fl_worst = 0.0
    for _ in range(100):
        c = np.zeros(64, dtype=complex)
        sel = np.abs(ls) <= 64 // 3 - 2
        c[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
        g = AngularProfile.from_values(AngularProfile(c).values.real)
        sphere, direct_p = frouvelle_liu_rhs(g)
        scale = max(np.max(np.abs(direct_p.values)), 1e-30)
        fl_worst = max(fl_worst, np.max(np.abs(sphere.values - direct_p.values)) / scale)

    # projection-form drift equivalence over 100 random configurations
    influence = make_influence(TorusGrid(8, 8, 64), phi="bump", sigma=0.8, psi_factor="cos_squared")
    pd_worst = 0.0
    for _ in range(100):
        e = ag.AgentEnsemble(
            x=rng.random((100, 2)) * TWO_PI,
            theta=rng.uniform(-np.pi, np.pi, 100),
            kappa=0.9,
            nu=0.1,
            influence=influence,
            rng=ag._make_rng(0),
        )
        pd_worst = max(pd_worst, ag.projection_drift_check(e))

    ok = align_dev < 1e-10 and fl_worst < 1e-10 and pd_worst < 1e-12
    report(
        "AC-10",
        ok,
        f"alignment {align_dev:.2e} < 1e-10; sphere-form {fl_worst:.2e} < 1e-10; "
        f"projection drift {pd_worst:.2e} < 1e-12",
    )


def test_ac11_reduction_consistency():
    # kappa = 0 matches the per-mode solver on every k slice
    grid = TorusGrid(8, 8, 32)
    kernels = make_influence(grid)
    params = KineticParams(kappa=0.0, nu=1e-3, grid=grid, dt=0.02, t_end=1.0)
    rng = np.random.default_rng(11)
    f = SpectralField.from_values(grid, 1.0 + 0.3 * rng.standard_normal(grid.shape)).dealiased()
    modes = {}
    for a in range(8):
        for b in range(8):
            k = (int(grid.k1[a]), int(grid.k2[b]))
            if k == (0, 0):
                continue
            modes[(a, b)] = ModeState(k=k, eta=AngularProfile(f.coeffs[a, b, :].copy()), t=0.0, nu=1e-3)
    t = 0.0
    for _ in range(50):
        f = step_kinetic(f, params, kernels, t)
        t += params.dt
    finals = evolve_mode(list(modes.values()), params.dt, 50, sample_every=50)
    modes = {key: s for key, (s, _) in zip(modes, finals)}
    linear_dev = max(
        np.max(np.abs(f.coeffs[a, b, :] - st.eta.coeffs)) for (a, b), st in modes.items()
    )

    # x-independent data matches the homogeneous integrator over t in [0, 1]
    grid = TorusGrid(8, 8, 64)
    kernels = make_influence(grid)
    g0 = perturbed_profile(64, 0.3, seed=12)
    f = SpectralField.from_values(grid, np.broadcast_to(g0.values.real, grid.shape))
    params = KineticParams(kappa=0.3, nu=0.1, grid=grid, dt=0.01, t_end=1.0)
    hs = HomogeneousState(g=g0, t=0.0, kappa=0.3, nu=0.1)
    kernel = angular_kernel(64)
    t = 0.0
    hom_dev = 0.0
    for _ in range(100):
        f = step_kinetic(f, params, kernels, t)
        t += params.dt
        hs = evolve_homogeneous(hs, kernel, params.dt, 1).final
        hom_dev = max(hom_dev, float(np.max(np.abs(x_average(f).coeffs - hs.g.coeffs))))

    ok = linear_dev < 1e-10 and hom_dev < 1e-8
    report(
        "AC-11",
        ok,
        f"kappa=0 per-mode deviation {linear_dev:.2e} < 1e-10; "
        f"x-independent vs homogeneous {hom_dev:.2e} < 1e-8",
    )


def test_ac12_sde_pde_agreement():
    t0 = time.time()
    nu, ratio, n, t_end = 0.1, 4.0, 10000, 60.0
    n_theta = 128
    from kvicsek.spectral import theta_points

    th = theta_points(n_theta)
    g0 = AngularProfile.from_values((1.0 + np.cos(th)) / TWO_PI)
    kernel = angular_kernel(n_theta)
    state = HomogeneousState(g=g0, t=0.0, kappa=ratio * nu, nu=nu)
    traj = evolve_homogeneous(state, kernel, 0.01, int(t_end / 0.01), sample_every=10)

    influence = make_influence(TorusGrid(4, 4, n_theta), phi="uniform")
    # x-uniform probability density on T^2 x T: angular law evolves with
    # effective alignment kappa/(2pi)^2, so the agents run at ratio*nu*(2pi)^2
    e = ag.ensemble_from_profile(n, g0, influence, kappa=ratio * nu * TWO_PI**2, nu=nu, seed=12)
    dt = 0.02
    checkpoints = np.linspace(t_end / 10.0, t_end, 10)
    gaps = []
    next_cp = 0
    steps = int(round(t_end / dt))
    for i in range(steps):
        e = ag.em_step(e, dt)
        while next_cp < len(checkpoints) and e.t >= checkpoints[next_cp] - dt / 2:
            m_sde = abs(ag.order_parameter(e))
            m_pde = np.interp(e.t, traj.t, np.abs(traj.order_parameter))
            gaps.append(abs(m_sde - m_pde))
            next_cp += 1
    elapsed = time.time() - t0
    ok = len(gaps) == 10 and max(gaps) <= 0.05 and elapsed <= 300.0
    report(
        "AC-12",
        ok,
        f"max |m| gap over 10 checkpoints {max(gaps):.4f} <= 0.05, {elapsed:.0f}s <= 300s",
    )


def _ac13_density(x1, x2, th):
    """A probability density on T^2 x T with x-inhomogeneous low modes."""
    mix = (
        0.3 * np.cos(x1)
        + 0.2 * np.cos(x1 + x2 + th)
        + 0.3 * np.cos(th)
        + 0.15 * np.cos(x2 - th + 1.0)
    )
    return (1.0 + mix) / TWO_PI**3


# Calibrated over seeds 1-6: at N = 8000 the largest m gap was 0.015-0.037
# and the rho gap 0.005-0.021; at 4N = 32000 they fell to 0.009-0.021 and
# 0.002-0.008.  The bands are >= 3x the N = 8000 gaps of the seed used here.
AC13_N, AC13_SEED = 8000, 1
AC13_BAND_M, AC13_BAND_RHO = 0.06, 0.03


def test_ac13_inhomogeneous_sde_pde_agreement():
    t0 = time.time()
    grid = TorusGrid(16, 16, 32)
    # the sigma = 1 bump scaled to mass 20: at kappa = 1 alignment moves m(t)
    # by ~3x the band, so the comparison sees the drift, not only transport
    bump = bump_phi(1.0)
    phi_mass = TWO_PI**2 * ive(0, 1.0) ** 2
    pair = InfluencePair(
        grid=grid, phi_fn=lambda x1, x2: 20.0 * bump(x1, x2) / phi_mass, angular=angular_kernel(grid.n_theta)
    )
    kappa, nu, dt, t_end = 1.0, 0.1, 0.02, 4.0
    n_steps = int(round(t_end / dt))
    checkpoints = {50, 100, 150, 200}  # t = 1, 2, 3, 4

    def pde(k):
        params = KineticParams(kappa=k, nu=nu, grid=grid, dt=dt, t_end=t_end)
        f = SpectralField.from_function(grid, _ac13_density)
        rows = []
        for i in range(n_steps):
            f = step_kinetic(f, params, pair, i * dt)
            if i + 1 in checkpoints:
                c = f.coeffs
                rows.append((c[0, 0, 1] / c[0, 0, 0], abs(c[1, 0, 0] / c[0, 0, 0])))
        return rows

    pde_rows, pde_free = pde(kappa), pde(0.0)

    # |rho-hat(1, 0)| through the KDE, with the kernel's weight at k1 = 1 divided out
    bw = 0.3
    w1 = ive(1, 1.0 / bw**2) / ive(0, 1.0 / bw**2)
    e = ag.ensemble_from_density(AC13_N, _ac13_density, pair, kappa=kappa, nu=nu, seed=AC13_SEED)
    sde_rows = []
    for i in range(n_steps):
        e = ag.em_step(e, dt)
        if i + 1 in checkpoints:
            d = ag.empirical_density(e, grid, bandwidth=bw).coeffs
            sde_rows.append((ag.order_parameter(e), abs(d[1, 0, 0] / (w1 * d[0, 0, 0]))))

    gap_m = max(abs(a[0] - b[0]) for a, b in zip(sde_rows, pde_rows))
    gap_rho = max(abs(a[1] - b[1]) for a, b in zip(sde_rows, pde_rows))
    drift_effect = max(abs(a[0] - b[0]) for a, b in zip(pde_rows, pde_free))
    elapsed = time.time() - t0
    ok = (
        gap_m <= AC13_BAND_M
        and gap_rho <= AC13_BAND_RHO
        and drift_effect >= 2 * AC13_BAND_M
        and elapsed <= 60.0
    )
    report(
        "AC-13",
        ok,
        f"bump-Phi agents (N={AC13_N}) vs kinetic PDE on x-inhomogeneous data: max |m| gap "
        f"{gap_m:.4f} <= {AC13_BAND_M}, max |rho(1,0)| gap {gap_rho:.4f} <= {AC13_BAND_RHO}; "
        f"alignment moves m by {drift_effect:.3f} >= {2 * AC13_BAND_M}; {elapsed:.0f}s <= 60s",
    )


def test_ac14_kinetic_phase_transition():
    # x-inhomogeneous data mix away and the x-average then follows the homogeneous
    # dynamics through kappa/nu = 2: decay to m = 0 at ratio 1.5, |m| -> r2 at ratio 4
    t0 = time.time()
    grid = TorusGrid(8, 8, 32)
    nu, dt, t_end, every = 0.25, 0.02, 40.0, 50
    kernels = make_influence(grid, phi="bump", sigma=1.0)
    g0 = perturbed_profile(32, 0.2, seed=8)
    avg = SpectralField.from_values(grid, np.broadcast_to(g0.values.real, grid.shape))
    f0 = SpectralField(grid, avg.coeffs + remainder(default_initial(grid, 0.5 / TWO_PI**3)).coeffs)
    ratios = (1.5, 4.0)
    runs = [
        run_experiment(KineticParams(kappa=r * nu, nu=nu, grid=grid, dt=dt, t_end=t_end), kernels, f0, every)
        for r in ratios
    ]
    homs = evolve_homogeneous(
        [HomogeneousState(g=g0, t=0.0, kappa=r * nu, nu=nu) for r in ratios],
        angular_kernel(32), dt, step_count(t_end, dt), sample_every=every,
    )
    gap = max(np.max(np.abs(run.order_parameter - hom.order_parameter)) for run, hom in zip(runs, homs))
    same_clock = all(np.array_equal(run.t, hom.t) for run, hom in zip(runs, homs))
    m_low, m_high = (np.abs(run.order_parameter) for run in runs)
    decay_low, decay_high = (run.fneq_l2[-1] / run.fneq_l2[0] for run in runs)
    r2 = solve_compatibility(4.0).r2
    elapsed = time.time() - t0
    ok = (
        gap <= 1e-5
        and same_clock
        and m_low[-1] <= 0.1 * m_low[0]
        and decay_low <= 1e-3
        and abs(m_high[-1] - r2) <= 1e-3
        and elapsed <= 10.0
    )
    report(
        "AC-14",
        ok,
        f"kinetic vs homogeneous |m| gap {gap:.1e} <= 1e-5; ratio 1.5: |m| {m_low[0]:.4f} -> "
        f"{m_low[-1]:.5f} <= 0.1 |m(0)|, remainder L2 x{decay_low:.1e} <= 1e-3; ratio 4: "
        f"|m| - r2 = {abs(m_high[-1] - r2):.1e} <= 1e-3, remainder L2 only x{decay_high:.3f} "
        f"(slow in the ordered phase); {elapsed:.1f}s <= 10s",
    )
