"""Nonlinear kinetic solver: reductions, conservation, kernels, runner."""

import re

import numpy as np
import pytest

from kvicsek.config import due, step_count, step_times
from kvicsek.errors import NumericsError, StepSizeError
from kvicsek.homogeneous import HomogeneousState, evolve_homogeneous
from kvicsek.influence import (
    KERNEL_CHECK_TOL,
    AngularKernel,
    InfluencePair,
    angular_kernel,
    bump_phi,
    make_influence,
    uniform_phi,
)
from kvicsek import homogeneous, kinetic, spectral
from kvicsek.kinetic import (
    KineticParams,
    _alignment,
    default_initial,
    run_experiment,
    step_kinetic,
)
from kvicsek.linear import ModeState, evolve_mode, speed_decaying
from kvicsek.presets import perturbed_profile
from kvicsek.spectral import (
    TWO_PI,
    AngularProfile,
    SpectralField,
    TorusGrid,
    diffusion_factor,
    mirror,
    norm,
    read_snapshot,
    remainder,
    theta_points,
    x_average,
)

from full_rhs import full_rhs
from oracles import dealias_mask, dealiased


class TestParams:
    def test_validation(self):
        grid = TorusGrid(8, 8, 8)
        with pytest.raises(ValueError):
            KineticParams(kappa=-0.1, nu=0.1, grid=grid, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            KineticParams(kappa=0.1, nu=0.0, grid=grid, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            KineticParams(kappa=0.1, nu=0.1, grid=grid, dt=-0.1, t_end=1.0)

    @pytest.mark.parametrize(
        "dt, t_end", [(np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)]
    )
    def test_non_finite_times_rejected(self, dt, t_end):
        with pytest.raises(ValueError, match="finite and positive"):
            KineticParams(kappa=0.1, nu=0.1, grid=TorusGrid(8, 8, 8), dt=dt, t_end=t_end)

    def test_regime_flags(self):
        grid = TorusGrid(8, 8, 8)
        nu = 1e-2
        p = KineticParams(kappa=nu**0.9, nu=nu, grid=grid, dt=0.1, t_end=1.0)
        assert p.ed_regime
        p2 = KineticParams(kappa=nu**0.5, nu=nu, grid=grid, dt=0.1, t_end=1.0)
        assert not p2.ed_regime
        assert KineticParams(kappa=0.05 * nu, nu=nu, grid=grid, dt=0.1, t_end=1.0).mixing_regime
        # kappa/nu = 2 lies in the regime only for nu < 2^{-1/(1/6 - 0.05)} ~ 2.6e-3
        for nu, inside in ((2.5e-3, True), (2.8e-3, False)):
            p3 = KineticParams(kappa=2 * nu, nu=nu, grid=grid, dt=0.1, t_end=1.0)
            assert p3.ed_regime is inside


def _assert_kernel_structure(pair: InfluencePair) -> None:
    """The paper's (Phi, Psi) structure, to KERNEL_CHECK_TOL (U' = Psi to 1e-10)."""
    tol = KERNEL_CHECK_TOL
    pv = pair.phi_values
    assert np.max(np.abs(pv - mirror(pv, (0, 1), np.empty_like(pv)))) <= tol * np.max(np.abs(pv))  # Phi even
    assert abs(np.sum(pv) * TWO_PI**2 / pv.size - 1.0) <= tol  # Phi has unit discrete mass
    psi, pf = pair.angular.psi.values, pair.angular.psi_factor.values
    scale = np.max(np.abs(psi))
    assert max(np.max(np.abs(psi.imag)), np.max(np.abs(pf.imag))) <= tol * scale  # Psi and psi real
    psi, pf = psi.real, pf.real
    assert np.max(np.abs(psi - np.sin(theta_points(psi.size)) * pf)) <= tol * scale  # Psi = sin psi
    assert np.min(pf) >= -tol * scale  # psi nonnegative
    assert np.max(np.abs(pf - mirror(pf, (0,), np.empty_like(pf)))) <= tol * scale  # psi even
    assert abs(pair.angular.psi.mass) <= tol * max(scale, 1.0)  # Psi has mean zero
    u = pair.angular.primitive.values.real
    assert np.max(u) <= tol * np.max(np.abs(u))  # U <= 0
    assert abs(u[0]) <= tol * max(scale, 1.0)  # U(-pi) = 0: the theta grid starts at -pi
    assert np.max(np.abs(pair.angular.primitive.derivative().values.real - psi)) <= 1e-10 * scale  # U' = Psi


class TestValidateKernels:
    """make_influence and angular_kernel check the inputs; the rest holds by construction."""

    def test_sine_kernel_passes_and_reproduces_primitive(self):
        grid = TorusGrid(16, 16, 64)
        pair = make_influence(grid, phi="bump", sigma=1.0)
        _assert_kernel_structure(pair)
        u = pair.angular.primitive.values.real
        th = theta_points(64)
        assert np.max(np.abs(u - (-1.0 - np.cos(th)))) < 1e-12

    def test_shifted_phi_fails_symmetry_with_location(self):
        grid = TorusGrid(16, 16, 16)
        shifted = lambda x1, x2: np.exp((np.cos(x1 - 0.8) + np.cos(x2) - 2.0))
        with pytest.raises(ValueError, match=r"Phi is not even: .* of max\|Phi\| at x-grid index \(\d+, \d+\)"):
            make_influence(grid, phi=shifted)

    def test_cos_squared_factor_passes(self):
        grid = TorusGrid(8, 8, 64)
        pair = make_influence(grid, psi_factor="cos_squared")
        _assert_kernel_structure(pair)
        # quadrature confirmation that the mean of Psi vanishes
        psi_vals = pair.angular.psi.values.real
        assert abs(psi_vals.sum() * TWO_PI / 64) < 1e-12

    def test_dense_factor_passes(self):
        _assert_kernel_structure(make_influence(TorusGrid(8, 8, 64), psi_factor=PSI_FACTORS["dense"]))

    @pytest.mark.parametrize(
        "psi_factor, message",
        [(lambda th: 1.0 + 0.5 * np.sin(th), "psi is not even"),
         (np.cos, "psi is not finite and nonnegative: its minimum is -1"),
         (lambda th: np.where(th > 0, np.inf, 1.0), "psi is not finite and nonnegative")],
        ids=["odd", "negative", "infinite"],
    )
    def test_angular_kernel_rejects_a_factor_off_the_structure(self, psi_factor, message):
        with pytest.raises(ValueError, match=message):
            angular_kernel(64, psi_factor)
        with pytest.raises(ValueError, match=message):
            make_influence(TorusGrid(8, 8, 64), psi_factor=psi_factor)


class TestPhiValues:
    @pytest.mark.parametrize("phi", ["bump", "uniform", lambda x1, x2: 2.0 + np.cos(x1) * np.cos(2 * x2)])
    @pytest.mark.parametrize("by_make_influence", [True, False])
    def test_phi_values_are_phi_fn_on_the_grid_and_read_only(self, phi, by_make_influence):
        grid = TorusGrid(8, 16, 8)
        if by_make_influence:
            pair = make_influence(grid, phi=phi, sigma=0.5)
        else:
            phi_fn = bump_phi(0.5) if phi == "bump" else uniform_phi() if phi == "uniform" else phi
            pair = InfluencePair(grid=grid, phi_fn=phi_fn, angular=angular_kernel(8))
        samples = pair.phi_fn(grid.x1[:, None], grid.x2[None, :])
        assert pair.phi_values.shape == (8, 16) and pair.phi_values.dtype == np.float64
        assert np.array_equal(pair.phi_values, np.broadcast_to(samples, (8, 16)))
        with pytest.raises(ValueError, match="read-only"):
            pair.phi_values[0, 0] = 1.0
        if by_make_influence:
            assert abs(np.sum(pair.phi_values) * TWO_PI**2 / 128 - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "phi, mass",
        [(lambda x1, x2: 0.0 * x1 * x2, "0.0"),
         (lambda x1, x2: np.full(np.broadcast(x1, x2).shape, np.nan), "nan"),
         (lambda x1, x2: -1.0 + 0.0 * x1 * x2, "-39.4"),
         (lambda x1, x2: np.cos(x1) + 0.0 * x2, r"-2\.7\d*e-15"),
         (lambda x1, x2: -np.cos(x1) + 0.0 * x2, r"2\.7\d*e-15"),
         (lambda x1, x2: np.select([x1 == 0.0, x1 == np.pi], [np.inf, -np.inf], 1.0) + 0.0 * x2, "nan")],
        ids=["zero", "nan", "negative", "round-off-negative", "round-off-positive", "plus-and-minus-inf"],
    )
    def test_normalize_rejects_a_phi_with_no_mass(self, phi, mass):
        # dividing by the discrete mass would give NaN, sign-flipped or ~1e15-scaled kernels;
        # cos(x1) sums to -/+2.7e-15 on the 8x8 grid, round-off of its |Phi| mass 23.8
        with pytest.raises(ValueError, match=f"Phi has discrete mass {mass}"):
            make_influence(TorusGrid(8, 8, 8), phi=phi)


class TestAlignmentOperator:
    def test_x_independent_data(self):
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        g = perturbed_profile(32, 0.4, seed=0)
        f = SpectralField.from_values(grid, np.broadcast_to(g.values.real, grid.shape))
        L = pair.apply(f)
        off = L.coeffs.copy()
        off[0, 0, :] = 0.0
        assert np.max(np.abs(off)) < 1e-14 * np.max(np.abs(L.coeffs))

    def test_constant_gives_zero(self):
        grid = TorusGrid(8, 8, 16)
        pair = make_influence(grid)
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.full_like(x1 + x2 + th, 0.7))
        assert np.max(np.abs(pair.apply(f).coeffs)) < 1e-15

    def test_narrow_bump_against_quadrature(self):
        # concentrated (von Mises-like) angular bump at theta0: spectral L
        # matches the direct double quadrature, and the angular pattern
        # correlates with sin(theta0 - theta)
        grid = TorusGrid(16, 16, 16)
        pair = make_influence(grid, phi="bump", sigma=1.0)
        theta0 = 0.9
        f = SpectralField.from_function(
            grid,
            lambda x1, x2, th: (1.0 + 0.3 * np.cos(x1)) * np.exp(2.0 * np.cos(th - theta0)),
        )
        L = pair.apply(f)

        n = 16
        idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        phi_mat = pair.phi_values[idx[:, :, None, None], idx[None, None, :, :]]
        psi_mat = pair.angular.psi.values.real[(idx + n // 2) % n]
        w = (TWO_PI / n) ** 3
        tmp = np.tensordot(phi_mat, f.values.real, axes=([1, 3], [0, 1]))
        direct = w * np.tensordot(tmp, psi_mat, axes=([2], [1]))
        assert np.max(np.abs(L.values.real - direct)) < 1e-10 * np.max(np.abs(direct))

        pattern = np.sin(theta0 - theta_points(n))
        profile = L.values.real[0, 0, :]
        corr = np.dot(pattern, profile) / (np.linalg.norm(pattern) * np.linalg.norm(profile))
        assert corr > 0.99


class TestStepKinetic:
    def test_kappa_zero_reduces_to_per_mode(self):
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.0, nu=1e-3, grid=grid, dt=0.02, t_end=1.0)
        rng = np.random.default_rng(3)
        f = dealiased(SpectralField.from_values(grid, 1.0 + 0.3 * rng.standard_normal(grid.shape)))
        modes = {}
        for a in range(8):
            for b in range(8):
                k = (int(grid.k1[a]), int(grid.k2[b]))
                if k == (0, 0):
                    continue
                modes[(a, b)] = ModeState(k=k, eta=AngularProfile(f.coeffs[a, b, :].copy()), t=0.0, nu=1e-3)
        t = 0.0
        for _ in range(50):
            f = step_kinetic(f, params, pair, t)
            t += params.dt
        finals = evolve_mode(list(modes.values()), params.dt, 50, sample_every=50)
        modes = {key: s for key, (s, _) in zip(modes, finals)}
        worst = max(
            np.max(np.abs(f.coeffs[a, b, :] - st.eta.coeffs)) for (a, b), st in modes.items()
        )
        assert worst < 1e-10

    def test_kappa_zero_step_is_the_per_mode_step_bit_for_bit(self):
        # AC-11's setup: both layers run spectral.transport on the same factor
        # rows, so every k2 >= 0 mode off the Nyquist rows agrees exactly
        grid = TorusGrid(8, 8, 32)
        params = KineticParams(kappa=0.0, nu=1e-3, grid=grid, dt=0.02, t_end=1.0)
        rng = np.random.default_rng(11)
        f = dealiased(SpectralField.from_values(grid, 1.0 + 0.3 * rng.standard_normal(grid.shape)))
        modes = {
            (a, b): ModeState(
                k=(int(grid.k1[a]), int(grid.k2[b])), eta=AngularProfile(f.coeffs[a, b]), t=0.0, nu=1e-3
            )
            for a in range(8)
            for b in range(4)
            if (a, b) != (0, 0) and a != 4
        }
        assert len(modes) == 27
        pair = make_influence(grid)
        t = 0.0
        for _ in range(50):
            f = step_kinetic(f, params, pair, t)
            t += params.dt
        finals = evolve_mode(list(modes.values()), params.dt, 50, sample_every=50)
        modes = {key: s for key, (s, _) in zip(modes, finals)}
        for (a, b), s in modes.items():
            assert np.array_equal(f.coeffs[a, b], s.eta.coeffs), (a, b)

    def test_x_independent_matches_homogeneous(self):
        grid = TorusGrid(8, 8, 64)
        pair = make_influence(grid)
        g0 = perturbed_profile(64, 0.3, seed=4)
        f = SpectralField.from_values(grid, np.broadcast_to(g0.values.real, grid.shape))
        params = KineticParams(kappa=0.3, nu=0.1, grid=grid, dt=0.01, t_end=1.0)
        hs = HomogeneousState(g=g0, t=0.0, kappa=0.3, nu=0.1)
        ker = angular_kernel(64)
        t = 0.0
        for _ in range(100):
            f = step_kinetic(f, params, pair, t)
            t += params.dt
        hs = evolve_homogeneous([hs], ker, params.dt, 100, sample_every=100)[0].final
        assert np.max(np.abs(x_average(f).coeffs - hs.g.coeffs)) < 1e-8

    def test_x_independent_data_meet_the_same_step_guard(self):
        # The bound 0.5 / (kappa l_max sup + 1) from the first alignment RHS;
        # kappa/nu = 1 is subcritical, so the second half-step's sup is smaller.
        grid = TorusGrid(8, 8, 64)
        g0 = perturbed_profile(64, 0.3, seed=4)
        f = SpectralField.from_values(grid, np.broadcast_to(g0.values.real, grid.shape))
        kernel, pair = angular_kernel(64), make_influence(grid)
        _, (sup,) = full_rhs(homogeneous._alignment(kernel, 1.0), g0.coeffs)
        dt_max = 0.5 / (1.0 * 32 * sup + 1.0)
        steps = [
            lambda dt: evolve_homogeneous([HomogeneousState(g=g0, t=0.0, kappa=1.0, nu=1.0)], kernel, dt, 1)[0],
            lambda dt: step_kinetic(
                f, KineticParams(kappa=1.0, nu=1.0, grid=grid, dt=dt, t_end=1.0), pair, 0.0
            ),
        ]
        for step in steps:
            step(dt_max * (1.0 - 1e-9))
            with pytest.raises(StepSizeError):
                step(dt_max * (1.0 + 1e-9))

    def test_mass_invariant(self):
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.05, nu=0.02, grid=grid, dt=0.02, t_end=1.0)
        f = default_initial(grid, 0.5 / TWO_PI**3, seed=1)
        m0 = f.mass
        t = 0.0
        for _ in range(400):
            f = step_kinetic(f, params, pair, t)
            t += params.dt
        assert abs(f.mass - m0) <= 1e-13 * abs(m0)

    def test_dealiased_flux_has_exactly_zero_mean_mode(self):
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        rng = np.random.default_rng(5)
        f = SpectralField.from_values(grid, 1.0 + 0.5 * rng.standard_normal(grid.shape))
        rhs, _ = full_rhs(_alignment(grid, pair, 0.3), f.coeffs[:, : grid.n_x2 // 2 + 1])
        assert rhs[0, 0, 0] == 0.0

    def test_step_guard(self):
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid, phi="bump", sigma=0.5)
        params = KineticParams(kappa=1.0, nu=0.1, grid=grid, dt=3.0, t_end=9.0)
        f = default_initial(grid, 0.5 / TWO_PI**3, seed=0)
        with pytest.raises(StepSizeError):
            step_kinetic(f, params, pair, 0.0)

    def test_nan_detection(self):
        grid = TorusGrid(8, 8, 16)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.1, nu=0.1, grid=grid, dt=0.01, t_end=1.0)
        c = default_initial(grid, 0.1 / TWO_PI**3, seed=0).coeffs.copy()
        c[1, 1, 1] = np.nan
        with pytest.raises(NumericsError):
            step_kinetic(SpectralField(grid, c), params, pair, 0.0)

    def test_remainder_l2_nonincreasing_at_kappa_zero(self):
        from kvicsek.spectral import norm, remainder

        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.0, nu=1e-2, grid=grid, dt=0.05, t_end=1.0)
        f = default_initial(grid, 0.5 / TWO_PI**3, seed=2)
        prev = norm(remainder(f), "L2")
        t = 0.0
        for _ in range(100):
            f = step_kinetic(f, params, pair, t)
            t += params.dt
            cur = norm(remainder(f), "L2")
            assert cur <= prev * (1 + 1e-13)
            prev = cur


# ---------------------------------------------------------------------------
# Full-complex reference step: the step as first written, with 3-D complex
# transforms over every mode.  The half-spectrum step must reproduce it.
# ---------------------------------------------------------------------------


def _reference_transport_half(coeffs, grid, v_eff, half_dt):
    geometry = (
        grid.k1[:, None, None] * np.cos(grid.theta)[None, None, :]
        + grid.k2[None, :, None] * np.sin(grid.theta)[None, None, :]
    )
    phase = (-1.0) ** grid.l
    mixed = np.fft.ifft(coeffs * phase, axis=2) * grid.n_theta
    mixed *= np.exp(-1j * v_eff * half_dt * geometry)
    out = np.fft.fft(mixed, axis=2) / grid.n_theta * phase
    out[0, 0, :] = coeffs[0, 0, :]
    return out


def _reference_alignment_rhs(coeffs, grid, multiplier, kappa):
    l = grid.l.astype(np.float64)
    l[grid.n_theta // 2] = 0.0
    mask = dealias_mask(grid)
    phase = (-1.0) ** grid.l
    fd = np.where(mask, coeffs, 0.0)
    ld = np.where(mask, multiplier * coeffs, 0.0)
    fv = np.fft.ifftn(fd * phase) * grid.size
    lv = np.fft.ifftn(ld * phase) * grid.size
    prod = np.fft.fftn(fv * lv) / grid.size * phase
    rhs = -kappa * (1j * l)[None, None, :] * np.where(mask, prod, 0.0)
    return rhs, float(np.max(np.abs(lv)))


def _theta_padded_alignment_rhs(coeffs, grid, multiplier, kappa):
    """The reference flux with theta zero-padded to 2 n_theta: pseudospectral in x, alias-free in theta."""
    n = grid.n_theta
    idx = grid.l % (2 * n)
    mask = dealias_mask(grid)

    def padded_values(c):
        out = np.zeros(grid.shape[:2] + (2 * n,), dtype=complex)
        out[:, :, idx] = np.where(mask, c, 0.0)
        return np.fft.ifftn(out)

    size = 2 * grid.size
    prod = np.fft.fftn(padded_values(coeffs) * padded_values(multiplier * coeffs))[:, :, idx] * size
    l = grid.l.astype(np.float64)
    l[n // 2] = 0.0
    return -kappa * (1j * l)[None, None, :] * np.where(mask, prod, 0.0)


def _full_complex_values(f):
    """Collocation values by one full complex inverse transform (the oracle)."""
    return np.fft.ifftn(f.coeffs * (-1.0) ** f.grid.l) * f.grid.size


def _reference_step(coeffs, params, pair, t):
    grid, dt = params.grid, params.dt
    c = _reference_transport_half(coeffs, grid, params.v(t + 0.25 * dt), 0.5 * dt)

    def align_half(c):
        h = 0.5 * dt
        r1, _ = _reference_alignment_rhs(c, grid, pair.multiplier, params.kappa)
        r2, _ = _reference_alignment_rhs(c + h * r1, grid, pair.multiplier, params.kappa)
        return c + 0.5 * h * (r1 + r2)

    c = align_half(c)
    c = c * np.exp(-params.nu * grid.l.astype(np.float64) ** 2 * dt)[None, None, :]
    c = align_half(c)
    return _reference_transport_half(c, grid, params.v(t + 0.75 * dt), 0.5 * dt)


# Psi = sin (support l = 1), (1 + cos)^2 (l = 1..3), and an even factor
# 1/(5/4 - cos) whose Psihat is dense on these grids.
PSI_FACTORS = {
    "one": "one",
    "cos_squared": "cos_squared",
    "dense": lambda th: 1.0 / (1.25 - np.cos(th)),
}
ORACLE_GRIDS = [(8, 12, 32), (16, 8, 64)]


class TestHalfSpectrumStep:
    @pytest.mark.parametrize("shape", ORACLE_GRIDS)
    @pytest.mark.parametrize("psi", sorted(PSI_FACTORS))
    def test_rhs_matches_full_complex_reference(self, shape, psi):
        grid = TorusGrid(*shape)
        pair = make_influence(grid, phi="bump", sigma=0.8, psi_factor=PSI_FACTORS[psi])
        rng = np.random.default_rng(21)
        f = SpectralField.from_values(grid, 1.0 + 0.5 * rng.standard_normal(grid.shape))
        n2h = grid.n_x2 // 2 + 1
        rhs, l_inf = full_rhs(_alignment(grid, pair, 0.3), f.coeffs[:, :n2h])
        ref, ref_l_inf = _reference_alignment_rhs(f.coeffs, grid, pair.multiplier, kappa=0.3)
        assert np.max(np.abs(rhs - ref[:, :n2h])) <= 1e-13 * np.max(np.abs(ref))
        assert abs(l_inf - ref_l_inf) <= 1e-13 * ref_l_inf

    def test_rhs_with_mean_and_nyquist_modes_of_psi(self):
        # Psi = sin * psi never has them; a bare kernel checks the l = 0 plane (one
        # term, not a conjugate pair) and the Nyquist one (above n_theta/3: dropped)
        grid = TorusGrid(8, 12, 32)
        prof = AngularProfile.from_values(0.3 + np.sin(theta_points(32)) + 0.5 * np.cos(16 * theta_points(32)))
        base = make_influence(grid, phi="bump", sigma=0.8)
        bare = AngularKernel(psi=prof, psi_factor=prof, primitive=prof)
        pair = InfluencePair(grid=grid, phi_fn=base.phi_fn, angular=bare)
        assert pair.angular.psi_support.tolist() == [0, 1, 16]
        rng = np.random.default_rng(24)
        f = SpectralField.from_values(grid, 1.0 + 0.5 * rng.standard_normal(grid.shape))
        rhs, l_inf = full_rhs(_alignment(grid, pair, 0.3), f.half)
        ref, ref_l_inf = _reference_alignment_rhs(f.coeffs, grid, pair.multiplier, kappa=0.3)
        assert np.max(np.abs(rhs - ref[:, :7])) <= 1e-13 * np.max(np.abs(ref))
        assert abs(l_inf - ref_l_inf) <= 1e-13 * ref_l_inf

    def test_banded_product_has_no_theta_aliasing(self):
        # With 3 | n_theta and a dense Psihat the flux modes |l| = n_theta/3 pick up
        # aliases on the n_theta-point grid; the banded sum is the exact product.
        grid = TorusGrid(8, 12, 24)
        pair = make_influence(grid, phi="bump", sigma=0.8, psi_factor=PSI_FACTORS["dense"])
        rng = np.random.default_rng(25)
        f = SpectralField.from_values(grid, 1.0 + 0.5 * rng.standard_normal(grid.shape))
        rhs, _ = full_rhs(_alignment(grid, pair, 0.3), f.half)
        exact = _theta_padded_alignment_rhs(f.coeffs, grid, pair.multiplier, kappa=0.3)[:, :7]
        aliased, _ = _reference_alignment_rhs(f.coeffs, grid, pair.multiplier, kappa=0.3)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(rhs - exact)) <= 1e-13 * scale
        assert np.max(np.abs(aliased[:, :7] - exact)) > 1e-6 * scale

    def test_support_of_psi(self):
        grid = TorusGrid(8, 8, 64)
        support = {
            name: make_influence(grid, psi_factor=pf).angular.psi_support.tolist()
            for name, pf in PSI_FACTORS.items()
        }
        assert support["one"] == [1]
        assert support["cos_squared"] == [1, 2, 3]
        assert support["dense"] == list(range(1, 32))  # the odd Psi has no Nyquist mode

    @pytest.mark.parametrize(
        "shape,psi,speed",
        [
            ((8, 12, 32), "one", None),
            ((16, 8, 64), "cos_squared", None),
            ((8, 12, 32), "dense", None),
            ((16, 8, 64), "one", speed_decaying(0.2)),
        ],
    )
    def test_trajectory_matches_full_complex_reference(self, shape, psi, speed):
        # The reference transport treats the Nyquist rows k1 = -n/2 as
        # unpaired and lets a real field drift off conjugate symmetry there,
        # so the data carry no Nyquist content (the 2/3 rule removes it).
        grid = TorusGrid(*shape)
        pair = make_influence(grid, phi="bump", sigma=0.8, psi_factor=PSI_FACTORS[psi])
        extra = {} if speed is None else {"v": speed}
        params = KineticParams(kappa=0.3, nu=0.05, grid=grid, dt=0.01, t_end=0.5, **extra)
        rng = np.random.default_rng(22)
        f = dealiased(SpectralField.from_values(grid, 1.0 + 0.3 * rng.standard_normal(grid.shape)))
        ref = f.coeffs
        t = 0.0
        for _ in range(50):
            f = step_kinetic(f, params, pair, t)
            ref = _reference_step(ref, params, pair, t)
            t += params.dt
        assert np.max(np.abs(f.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert f.is_real()

    def test_nyquist_content_stays_conjugate_symmetric(self):
        # Data that are not dealiased carry content in the rows k1 = -n1/2
        # and k2 = -n2/2, each its own reflection; transport must keep it real.
        grid = TorusGrid(8, 8, 16)
        params = KineticParams(kappa=0.0, nu=0.05, grid=grid, dt=0.05, t_end=1.0)
        rng = np.random.default_rng(23)
        f = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        t = 0.0
        for _ in range(10):
            f = step_kinetic(f, params, make_influence(grid), t)
            t += params.dt
        assert f.is_real()
        full = _full_complex_values(f)
        assert np.max(np.abs(full.imag)) <= 1e-12 * np.max(np.abs(full))

    def test_nan_in_unread_half_is_detected(self):
        grid = TorusGrid(8, 8, 16)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.1, nu=0.1, grid=grid, dt=0.01, t_end=1.0)
        c = default_initial(grid, 0.1 / TWO_PI**3, seed=0).coeffs.copy()
        c[1, -1, 1] = np.nan
        with pytest.raises(NumericsError):
            step_kinetic(SpectralField(grid, c), params, pair, 0.0)

    def test_kernels_on_another_grid_rejected(self):
        grid = TorusGrid(8, 8, 32)
        params = KineticParams(kappa=0.1, nu=0.1, grid=grid, dt=0.01, t_end=1.0)
        f = default_initial(grid, 0.1 / TWO_PI**3, seed=0)
        with pytest.raises(ValueError):
            step_kinetic(f, params, make_influence(TorusGrid(8, 8, 16)), 0.0)

    def test_from_half_rebuilds_the_step_output(self):
        grid = TorusGrid(8, 12, 32)
        params = KineticParams(kappa=0.1, nu=0.1, grid=grid, dt=0.01, t_end=1.0)
        f = step_kinetic(default_initial(grid, 0.1 / TWO_PI**3), params, make_influence(grid), 0.0)
        assert np.array_equal(SpectralField.from_half(grid, f.half).coeffs, f.coeffs)

    def test_decaying_speed_keeps_the_transport_cache_small(self):
        # each transport sub-step of a time-dependent speed has its own v h,
        # so none repeats: the cache must not grow with the step count
        grid = TorusGrid(8, 8, 16)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.1, nu=0.1, grid=grid, dt=0.01, t_end=1.0, v=speed_decaying(0.5))
        f = default_initial(grid, 0.1 / TWO_PI**3)
        spectral.transport_factor.cache_clear()
        for step in range(20):
            f = step_kinetic(f, params, pair, 0.01 * step)
        info = spectral.transport_factor.cache_info()
        assert (info.hits, info.misses) == (0, 40)
        assert info.currsize <= 8

    def test_cached_factors_are_read_only(self):
        grid = TorusGrid(8, 12, 32)
        pair = make_influence(grid, psi_factor="cos_squared")
        f = default_initial(grid, 0.1 / TWO_PI**3)
        step_kinetic(
            f,
            KineticParams(kappa=0.1, nu=0.1, grid=grid, dt=0.01, t_end=1.0),
            pair,
            0.0,
        )
        cached = [
            f.half,
            spectral.transport_factor(*grid.half_wavenumbers, grid.n_theta, 0.005),
            pair.angular.psi_support,
            *pair.angular.band,
            pair.phi_coeffs,
            pair.multiplier,
            pair.support_multiplier,
        ]
        for arr in cached:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0


class TestEquivariance:
    """The steps commute with the symmetries of their equations, whatever the layout of their arrays.

    With Phi and psi even, the kinetic equation commutes with x-translations,
    the reflection (x2, theta) -> (-x2, -theta) and, on a square grid with
    4 | n_theta, the swap (x1, x2, theta) -> (x2, x1, pi/2 - theta); the
    homogeneous equation commutes with rotations in theta.  The maps act on
    collocation values (theta_j = -pi + 2pi j/n), and the data are random
    values, with content up to the Nyquist rows.
    """

    MAPS = {
        "translation": lambda v: np.roll(v, (3, 1), axis=(0, 1)),
        "reflection": lambda v: np.roll(np.flip(v, (1, 2)), 1, axis=(1, 2)),
        "swap": lambda v: v.transpose(1, 0, 2)[:, :, (v.shape[2] // 4 - np.arange(v.shape[2])) % v.shape[2]],
    }

    @staticmethod
    def _kinetic_run(values, params, pair):
        f, t = SpectralField.from_values(params.grid, values), 0.0
        for _ in range(20):
            f = step_kinetic(f, params, pair, t)
            t += params.dt
        return f.values

    @pytest.mark.parametrize("shape", [(16, 16, 32), (8, 12, 24)])
    @pytest.mark.parametrize("psi", sorted(PSI_FACTORS))
    @pytest.mark.parametrize("speed", [None, speed_decaying(0.2)], ids=["constant", "decaying"])
    def test_kinetic_step_commutes_with_the_symmetries(self, shape, psi, speed):
        grid = TorusGrid(*shape)
        pair = make_influence(grid, phi="bump", sigma=0.7, psi_factor=PSI_FACTORS[psi])
        extra = {} if speed is None else {"v": speed}
        params = KineticParams(kappa=0.9, nu=0.05, grid=grid, dt=0.02, t_end=1.0, **extra)
        f0 = (1.0 + 0.3 * np.random.default_rng(31).standard_normal(shape)) / TWO_PI**3
        f = self._kinetic_run(f0, params, pair)
        square = shape[0] == shape[1] and shape[2] % 4 == 0
        for name, m in self.MAPS.items():
            if name != "swap" or square:
                err = np.max(np.abs(self._kinetic_run(m(f0), params, pair) - m(f)))
                assert err <= 1e-13 * np.max(np.abs(f)), name

    @pytest.mark.parametrize("psi", sorted(PSI_FACTORS))
    def test_homogeneous_step_commutes_with_a_rotation(self, psi):
        n = 32
        kernel = make_influence(TorusGrid(4, 4, n), psi_factor=PSI_FACTORS[psi]).angular
        g = AngularProfile.from_values(1.0 + 0.3 * np.random.default_rng(32).standard_normal(n))
        g = AngularProfile(g.coeffs / (TWO_PI * g.coeffs[0]))
        rotated = AngularProfile.from_values(np.roll(g.values.real, 1))
        a, b = evolve_homogeneous(
            [HomogeneousState(g=x, t=0.0, kappa=0.9, nu=0.05) for x in (g, rotated)], kernel, 0.02, 20
        )
        ga, gb = a.final.g.values.real, b.final.g.values.real
        assert np.max(np.abs(gb - np.roll(ga, 1))) <= 1e-13 * np.max(np.abs(ga))


def _scatter_alignment_rhs(half, grid, kernels, kappa):
    """The alignment RHS on the whole k2 >= 0 half, as the full-array Heun read it: one gather and one scatter per call."""
    n1, n2, n = grid.shape
    m, m1, m2 = n // 3, n1 // 3, n2 // 3
    band, _ = kernels.angular.band
    planes = np.empty((m + 1 + len(band), n1, n2), dtype=np.complex128)
    fl = planes[: m + 1]
    fl[:, :, : m2 + 1] = half[:, : m2 + 1, : m + 1].transpose(2, 0, 1)
    fl[:, :, m2 + 1 : n2 - m2] = 0.0
    spectral.mirror(half[:, m2:0:-1], (0, 2), fl[:, :, n2 - m2 :].transpose(1, 2, 0))
    fl[:, m1 + 1 : n1 - m1] = 0.0
    np.multiply(fl[band], kernels.support_multiplier.transpose(2, 0, 1), out=planes[m + 1 :])
    planes = np.fft.ifftn(planes, axes=(-2, -1), out=planes)
    prod = spectral.band_product(planes[: m + 1], -kappa * planes[m + 1 :], band)
    prod = np.fft.fftn(prod, axes=(-2, -1), out=prod)
    factor = (n1 * n2) * spectral.theta_derivative(n)
    rhs = np.zeros(half.shape, dtype=np.complex128)
    np.multiply(factor[: m + 1], prod[:, :, : m2 + 1].transpose(1, 2, 0), out=rhs[:, : m2 + 1, : m + 1])
    neg = spectral.mirror(prod[m:0:-1].transpose(1, 2, 0), (0, 1), rhs[:, : m2 + 1, n - m :])
    np.multiply(factor[n - m :], neg, out=neg)
    rhs[m1 + 1 : n1 - m1] = 0.0
    return rhs


def _full_array_step(f, params, pair, t):
    """step_kinetic with its Heun stages on the whole half spectrum, each RHS scattered into it."""
    grid, dt, h = params.grid, params.dt, 0.5 * params.dt

    def align_half(c):
        r1 = _scatter_alignment_rhs(c, grid, pair, params.kappa)
        r2 = _scatter_alignment_rhs(c + h * r1, grid, pair, params.kappa)
        return c + 0.5 * h * (r1 + r2)

    c = kinetic._transport_half(f.half, grid, params.v(t + 0.25 * dt), h)
    c = align_half(c) * diffusion_factor(grid.n_theta, params.nu, dt)
    c = kinetic._transport_half(align_half(c), grid, params.v(t + 0.75 * dt), h)
    return SpectralField.from_half(grid, c)


class TestBlockHeun:
    """The Heun stages on the lifted flux block give the full-array Heun's step bit for bit."""

    @pytest.mark.parametrize("shape", ORACLE_GRIDS)
    @pytest.mark.parametrize("psi", sorted(PSI_FACTORS))
    @pytest.mark.parametrize("speed", [None, speed_decaying(0.5)])
    def test_steps_equal_the_full_array_heun_bit_for_bit(self, shape, psi, speed):
        grid = TorusGrid(*shape)
        pair = make_influence(grid, phi="bump", sigma=0.8, psi_factor=PSI_FACTORS[psi])
        extra = {} if speed is None else {"v": speed}
        params = KineticParams(kappa=0.3, nu=0.05, grid=grid, dt=0.01, t_end=1.0, **extra)
        rng = np.random.default_rng(26)
        f = ref = SpectralField.from_values(grid, 1.0 + 0.3 * rng.standard_normal(grid.shape))
        for step in range(8):
            f = step_kinetic(f, params, pair, 0.01 * step)
            ref = _full_array_step(ref, params, pair, 0.01 * step)
            assert np.array_equal(f.coeffs.view(np.uint64), ref.coeffs.view(np.uint64)), step

    def test_lower_adds_to_the_entries_the_block_reads_twice(self):
        # The k2 = 0 column holds l >= 0 and l < 0 both; their lifted planes
        # are the l >= 0 entries, so lowering must add to the l < 0 ones, not
        # overwrite them with reflections, to keep them bit for bit.
        grid = TorusGrid(8, 8, 32)
        rng = np.random.default_rng(27)
        half = rng.standard_normal((8, 5, 32)) + 1j * rng.standard_normal((8, 5, 32))
        align = _alignment(grid, make_influence(grid), 0.3)
        assert np.array_equal(align.lower(half, np.zeros_like(align.lift(half))), half)


def _ac14_data():
    """AC-14's kernels and initial field: a perturbed x-average plus default_initial's remainder."""
    grid = TorusGrid(8, 8, 32)
    kernels = make_influence(grid, phi="bump", sigma=1.0)
    g0 = perturbed_profile(32, 0.2, seed=8)
    avg = SpectralField.from_values(grid, np.broadcast_to(g0.values.real, grid.shape))
    f0 = SpectralField(grid, avg.coeffs + remainder(default_initial(grid, 0.5 / TWO_PI**3)).coeffs)
    return grid, kernels, f0


class TestAlignmentGuard:
    def test_sup_is_evaluated_at_the_first_stage_of_each_heun_half(self, monkeypatch):
        grid, kernels, f0 = _ac14_data()
        calls = {"rhs": 0, "sup": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(kinetic, "_alignment_rhs", counting("rhs", kinetic._alignment_rhs))
        monkeypatch.setattr(kinetic, "band_sup", counting("sup", kinetic.band_sup))
        params = KineticParams(kappa=1.0, nu=0.25, grid=grid, dt=0.02, t_end=1.0)
        f = f0
        for n in range(1, 4):
            f = step_kinetic(f, params, kernels, 0.02 * (n - 1))
            assert calls == {"rhs": 4 * n, "sup": 2 * n}

    # The sup that the guard reads is the one the 3-D flux product computed
    # (the support planes' 2-D x-transforms, then one real theta-transform),
    # bit for bit; so are the largest dt that passes one step from AC-14's
    # data and the message at the next float up.
    @pytest.mark.parametrize("ratio", [1.5, 4.0])
    def test_guard_threshold_at_ac14_data(self, monkeypatch, ratio):
        grid, kernels, f0 = _ac14_data()

        def step(dt):
            params = KineticParams(kappa=ratio * 0.25, nu=0.25, grid=grid, dt=dt, t_end=40.0)
            return step_kinetic(f0, params, kernels, 0.0)

        def threshold():
            dt_pass = _largest_passing_dt(step, 1e-3, 1.0)
            with pytest.raises(StepSizeError) as failed:
                step(float(np.nextafter(dt_pass, np.inf)))
            return dt_pass, str(failed.value)

        banded = threshold()
        assert 0.1 < banded[0] < 0.5
        assert re.fullmatch(
            r"dt=\S+ violates the alignment guard at t=0\.0 in row 0: dt <= 0\.5/\(kappa \(n_theta/2\) sup \+ 1\) = \S+ "
            r"\(kappa \S+, alignment field max \S+\)",
            banded[1],
        )

        rhs = kinetic._alignment_rhs

        def parent_sup_rhs(fl, grid, kernels, kappa, with_sup):
            return rhs(fl, grid, kernels, kappa, False)[0], _parent_sup(fl, grid, kernels) if with_sup else None

        monkeypatch.setattr(kinetic, "_alignment_rhs", parent_sup_rhs)
        assert threshold() == banded


def _parent_sup(fl, grid, kernels):
    """max|L[f]| on the collocation grid as the 3-D flux product computed it, from the lifted planes f_l."""
    support = kernels.angular.psi_support
    planes = fl[support].transpose(1, 2, 0) * kernels.support_multiplier
    lhat = np.zeros((grid.n_x1, grid.n_x2, support.max(initial=0) + 1), dtype=np.complex128)
    lhat[:, :, support] = np.fft.ifft2(planes, axes=(0, 1))
    lv = np.fft.irfft(lhat, n=grid.n_theta, axis=2) * grid.size
    return float(np.max(np.abs(lv)))


def _largest_passing_dt(step, lo, hi):
    """Bisect the float64 values in [lo, hi] for the largest dt at which step(dt) raises no StepSizeError."""
    lo_bits, hi_bits = (int(np.float64(x).view(np.int64)) for x in (lo, hi))
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        try:
            step(float(np.int64(mid).view(np.float64)))
            lo_bits = mid
        except StepSizeError:
            hi_bits = mid
    return float(np.int64(lo_bits).view(np.float64))


FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"
)


class TestTransformBudget:
    """The FFT calls of one alignment RHS: a batched 2-D x-transform each way (none at k = 0), and for the sup
    one theta-transform over many x-points (two) or per row of a 1-D stack (one)."""

    @staticmethod
    def _record(monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapped(a, *args, **kwargs):
                a = np.asarray(a)
                if name.endswith(("2", "n")):
                    axes = kwargs.get("axes", (-2, -1) if name.endswith("2") else tuple(range(a.ndim)))
                    lengths = tuple(a.shape[ax] for ax in axes)
                else:
                    lengths = (kwargs.get("n") or a.shape[kwargs.get("axis", -1)],)
                calls.append((name, lengths))
                return fn(a, *args, **kwargs)

            return wrapped

        for name in FFT_FUNCTIONS:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        return calls

    @pytest.mark.parametrize("with_sup", [True, False])
    def test_one_rhs_at_8x8x32(self, monkeypatch, with_sup):
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        assert pair.angular.psi_support.tolist() == [1]  # Psi = sin
        f = default_initial(grid, 0.5 / TWO_PI**3, seed=3)
        _ = pair.support_multiplier  # the kernels' own one-off transforms happen outside the count
        calls = self._record(monkeypatch)
        _, sup = full_rhs(_alignment(grid, pair, 0.3), f.half, with_sup)
        # the sup's: at the x-point of largest bound, then where the max can be
        sup_calls = [("irfft", (32,))] * 2 if with_sup else []
        assert calls == [("ifftn", (8, 8)), ("fftn", (8, 8))] + sup_calls
        assert (sup is None) is not with_sup
        # apart from the sup's, no transform runs over theta
        assert [c for c in calls if grid.n_theta in c[1]] == sup_calls

    def test_sup_transforms_only_the_points_that_can_hold_the_max(self, monkeypatch):
        # the data vary in x, so most of the 8 x 8 points' bounds lie below the max
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        f = default_initial(grid, 0.5 / TWO_PI**3, seed=3)
        _ = pair.support_multiplier
        irfft, points = np.fft.irfft, []

        def recorded(a, *args, **kwargs):
            points.append(int(np.prod(np.shape(a)[:-1])))
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", recorded)
        _, sup = full_rhs(_alignment(grid, pair, 0.3), f.half)
        # the point of largest bound alone, then the points that can reach its max
        assert len(points) == 2 and points[0] == 1 and 0 < points[1] < 64
        assert sup == _parent_sup(kinetic._lift(f.half, grid), grid, pair)

    @pytest.mark.parametrize("with_sup", [True, False])
    @pytest.mark.parametrize("rows", [1, 23])
    def test_one_homogeneous_rhs_at_128(self, monkeypatch, rows, with_sup):
        # the same banded product at k = 0: no transform but the sup's
        kernel = angular_kernel(128)
        _ = kernel.band
        g = perturbed_profile(128, 0.3, seed=3).coeffs
        g, kappa = (g, 0.3) if rows == 1 else (np.tile(g, (rows, 1)), np.full((rows, 1), 0.3))
        calls = self._record(monkeypatch)
        _, sup = full_rhs(homogeneous._alignment(kernel, kappa), g, with_sup)
        assert calls == ([("irfft", (128,))] if with_sup else [])
        assert (sup is None) is not with_sup


class TestTemporalOrder:
    """The split step is second order in time: the measure a change of scheme is held to."""

    @pytest.mark.parametrize("speed", [None, speed_decaying(0.5)], ids=["constant", "decaying"])
    def test_successive_differences_halve_twice(self, speed):
        grid = TorusGrid(8, 8, 32)
        kernels = make_influence(grid, phi="bump", sigma=1.0)
        f0 = default_initial(grid, 0.5 / TWO_PI**3, seed=0)
        extra = {} if speed is None else {"v": speed}
        finals = []
        for dt in (0.04, 0.02, 0.01, 0.005):
            params = KineticParams(kappa=1.0, nu=0.1, grid=grid, dt=dt, t_end=0.4, **extra)
            finals.append(run_experiment(params, kernels, f0, sample_every=10**6).final.coeffs)
        diffs = [np.linalg.norm(a - b) for a, b in zip(finals, finals[1:])]
        orders = np.log2(np.array(diffs[:-1]) / diffs[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.2), orders


class TestAlignmentBounds:
    def test_average_commutes_with_alignment_in_coefficients(self):
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        rng = np.random.default_rng(13)
        f = SpectralField.from_values(grid, 1.0 + 0.4 * rng.standard_normal(grid.shape))
        left = x_average(pair.apply(f)).coeffs
        right = pair.multiplier[0, 0, :] * x_average(f).coeffs
        assert np.array_equal(left, right)

    def test_sup_bound_by_kernel_and_mass(self):
        from kvicsek.spectral import norm

        grid = TorusGrid(16, 16, 32)
        pair = make_influence(grid, phi="bump", sigma=0.7)
        rng = np.random.default_rng(14)
        f = SpectralField.from_values(grid, np.abs(1.0 + 0.5 * rng.standard_normal(grid.shape)))
        L = pair.apply(f)
        bound = pair.phi_max * pair.psi_max * norm(f, "L1")
        assert np.max(np.abs(L.values.real)) <= bound * (1 + 1e-10)


class TestLongTimeRelaxation:
    def test_relaxes_to_constant_in_small_kappa_regime(self):
        # kappa/nu = 0.05 stand-in for the non-constructive constant; the
        # x-average converges to the uniform state 1/(2pi)^3 by t = 20/nu
        nu, kappa = 0.1, 0.005
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        params = KineticParams(kappa=kappa, nu=nu, grid=grid, dt=0.02, t_end=20.0 / nu)
        run = run_experiment(params, pair, default_initial(grid, 0.5 / TWO_PI**3, seed=0), sample_every=100)
        final = run.final
        avg = x_average(final)
        dev = avg.coeffs.copy()
        dev[0] -= 1.0 / TWO_PI**3
        dist = np.sqrt(TWO_PI * np.sum(np.abs(dev) ** 2))
        assert dist < 1e-6
        assert params.mixing_regime


class TestRunExperiment:
    def test_samples_and_snapshots(self, tmp_path):
        grid = TorusGrid(8, 8, 32)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.05, nu=0.05, grid=grid, dt=0.05, t_end=1.0)
        f0 = default_initial(grid, 0.5 / TWO_PI**3, seed=0)
        run = run_experiment(params, pair, f0, sample_every=5, snapshot_every=10, out_dir=tmp_path)
        assert np.all(np.diff(run.t) > 0)
        assert run.t[-1] == pytest.approx(1.0)
        assert len(run.snapshots) == 2
        assert run.snapshots[0].exists()
        assert np.max(np.abs(run.mass - run.mass[0])) <= 1e-13
        assert np.all(run.min_f > 0)

    def test_default_initial_positive_and_unit_mass(self):
        grid = TorusGrid(16, 16, 32)
        f = default_initial(grid, 0.9 / TWO_PI**3, seed=7)
        assert abs(f.mass - 1.0) < 1e-12
        assert np.min(f.values) > 0

    def test_snapshot_requires_out_dir(self):
        grid = TorusGrid(8, 8, 16)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.0, nu=0.05, grid=grid, dt=0.05, t_end=0.2)
        with pytest.raises(ValueError):
            run_experiment(params, pair, default_initial(grid, 0.5 / TWO_PI**3, seed=0), snapshot_every=1)

    def test_zero_sample_every_rejected(self):
        grid = TorusGrid(8, 8, 16)
        params = KineticParams(kappa=0.0, nu=0.05, grid=grid, dt=0.05, t_end=0.2)
        with pytest.raises(ValueError, match="sample_every"):
            run_experiment(
                params, make_influence(grid), default_initial(grid, 0.5 / TWO_PI**3, seed=0), sample_every=0
            )

    @pytest.mark.parametrize(
        "name, every, least",
        [("sample_every", 1.5, 1), ("sample_every", -2, 1), ("snapshot_every", -1, 0), ("snapshot_every", 2.0, 0)],
    )
    def test_bad_cadence_rejected_before_output(self, tmp_path, name, every, least):
        grid = TorusGrid(8, 8, 16)
        params = KineticParams(kappa=0.0, nu=0.05, grid=grid, dt=0.05, t_end=0.2)
        f0 = default_initial(grid, 0.5 / TWO_PI**3, seed=0)
        with pytest.raises(ValueError, match=f"{name} must be an integer >= {least}"):
            run_experiment(params, make_influence(grid), f0, out_dir=tmp_path, **{name: every})
        assert list(tmp_path.iterdir()) == []

    def test_f0_on_another_grid_rejected(self):
        grid = TorusGrid(8, 8, 16)
        params = KineticParams(kappa=0.0, nu=0.05, grid=grid, dt=0.05, t_end=0.2)
        f0 = default_initial(TorusGrid(8, 8, 32), 0.5 / TWO_PI**3, seed=0)
        with pytest.raises(ValueError, match="f0 lives on"):
            run_experiment(params, make_influence(grid), f0)

    def test_negative_density_warns_but_runs(self):
        grid = TorusGrid(8, 8, 16)
        pair = make_influence(grid)
        params = KineticParams(kappa=0.0, nu=0.05, grid=grid, dt=0.05, t_end=0.2)
        f0 = default_initial(grid, 3.0 / TWO_PI**3, seed=0)  # dips negative
        with pytest.warns(UserWarning, match="negative"):
            run_experiment(params, pair, f0=f0, sample_every=1)

    @pytest.mark.parametrize("shape", [(8, 8, 32), (8, 12, 32)])
    @pytest.mark.parametrize("speed", [None, speed_decaying(0.2)])
    def test_matches_a_step_kinetic_loop_bit_for_bit(self, tmp_path, shape, speed):
        # every sampled row, snapshot and the final field equal those of a loop
        # of public steps, with cadences that do not divide the step count
        grid = TorusGrid(*shape)
        pair = make_influence(grid, phi="bump", sigma=0.8, psi_factor="cos_squared")
        extra = {} if speed is None else {"v": speed}
        params = KineticParams(kappa=0.3, nu=0.05, grid=grid, dt=0.02, t_end=0.26, **extra)
        f0 = default_initial(grid, 0.5 / TWO_PI**3, seed=4)
        sample_every, snapshot_every = 3, 5
        run = run_experiment(
            params, pair, f0, sample_every=sample_every, snapshot_every=snapshot_every, out_dir=tmp_path
        )

        n_steps = step_count(params.t_end, params.dt)
        assert n_steps == 13
        times = step_times(0.0, params.dt, n_steps)
        fields = [f0]
        for step in range(1, n_steps + 1):
            fields.append(step_kinetic(fields[-1], params, pair, times[step - 1]))

        def row(f, t):
            fneq = remainder(f)
            return (
                t, norm(fneq, "L2"), norm(fneq, "Hm1_nonzero"), x_average(f).norm_l2(),
                float(np.min(f.values)), f.mass, complex(f.coeffs[0, 0, 1] / f.coeffs[0, 0, 0]),
            )

        sampled = [s for s in range(n_steps + 1) if due(s, n_steps, sample_every)]
        assert sampled == [0, 3, 6, 9, 12, 13]
        expected = [row(fields[s], times[s]) for s in sampled]
        columns = ("t", "fneq_l2", "fneq_hm1", "favg_l2", "min_f", "mass", "order_parameter")
        for j, name in enumerate(columns):
            assert np.array_equal(getattr(run, name), np.array([r[j] for r in expected])), name

        written = [s for s in range(1, n_steps + 1) if due(s, n_steps, snapshot_every)]
        assert [p.name for p in run.snapshots] == [f"snapshot_{s:08d}.bin" for s in written] == [
            "snapshot_00000005.bin", "snapshot_00000010.bin", "snapshot_00000013.bin"
        ]
        for path, s in zip(run.snapshots, written):
            snap, header = read_snapshot(path)
            assert np.array_equal(snap.coeffs, fields[s].coeffs) and header["time"] == times[s]
        assert np.array_equal(run.final.coeffs, fields[-1].coeffs)
