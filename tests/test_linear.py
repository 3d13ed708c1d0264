"""Per-mode solver, hypocoercivity functional, rates, and vector fields."""

import numpy as np
import pytest

from dataclasses import fields
from types import SimpleNamespace

from kvicsek.cli import main
from kvicsek.errors import NumericsError, SandwichViolation
from kvicsek.linear import (
    HypoTerms,
    HypoWeights,
    ModeState,
    _ModeRows,
    _hypo_terms,
    _stack_sums,
    ed_schedule,
    evolve_mode,
    measure_ed_rate,
    mixing_curve,
    mixing_window,
    speed_constant,
    speed_decaying,
    wrap_angle,
)
from kvicsek import spectral
from kvicsek.spectral import (
    TWO_PI,
    AngularProfile,
    fft_wavenumbers,
    theta_derivative,
    theta_points,
)


def random_mode(rng, n=64, band=None):
    band = band or n // 3
    c = np.zeros(n, dtype=complex)
    ls = fft_wavenumbers(n)
    sel = np.abs(ls) <= band
    c[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
    return AngularProfile(c)


def sandwich(s, w=HypoWeights()):
    """(lower, F, upper) of s: the t0 sample of a run of no steps."""
    _, ser = evolve_mode(s, 1.0, 0, weights=w)
    return ser.f_lower[0], ser.f_hypo[0], ser.f_upper[0]


class TestWeights:
    def test_relation_saturated(self):
        w = HypoWeights(1e-4)
        assert w.beta**2 == pytest.approx(w.alpha * w.gamma, rel=1e-14)

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            HypoWeights(1.0 / 4095.0)
        with pytest.raises(ValueError):
            HypoWeights(0.0)


class TestStepMode:
    def test_requires_nonzero_k(self):
        with pytest.raises(ValueError):
            ModeState(k=(0, 0), eta=AngularProfile.from_function(np.cos, 16), t=0.0, nu=0.1)

    @pytest.mark.parametrize("nu", [0.0, -1.0, np.nan, np.inf])
    def test_requires_finite_positive_nu(self, nu):
        with pytest.raises(ValueError, match="nu must be finite and > 0"):
            ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 16), t=0.0, nu=nu)

    def test_transport_isometry(self):
        # nu -> 0 limit: pure transport conserves the L2 norm
        s = ModeState(k=(2, 1), eta=AngularProfile.from_function(np.cos, 128), t=0.0, nu=1e-300)
        n0 = s.eta.norm_l2()
        s, _ = evolve_mode(s, 0.05, 1000, sample_every=1000)
        assert abs(s.eta.norm_l2() - n0) < 1e-12 * n0

    def test_pure_heat_exact(self):
        # transport disabled via v = 0: eta(t) = e^{-nu l^2 t} e^{i l theta}
        ell = 3
        s = ModeState(
            k=(1, 0),
            eta=AngularProfile.from_function(lambda th: np.exp(1j * ell * th), 64),
            t=0.0,
            nu=1e-3,
            v=speed_constant(0.0),
        )
        s, _ = evolve_mode(s, 0.01, 1000, sample_every=1000)
        expected = np.sqrt(TWO_PI) * np.exp(-1e-3 * ell**2 * 10.0)
        assert abs(s.eta.norm_l2() - expected) < 1e-12 * expected

    def test_full_step_is_contraction(self):
        rng = np.random.default_rng(0)
        s = ModeState(k=(1, 2), eta=random_mode(rng), t=0.0, nu=1e-2)
        _, series = evolve_mode(s, 0.05, 200)
        assert np.all(series.norm_l2[1:] <= series.norm_l2[:-1] * (1 + 1e-13))

    def test_against_dense_rk4_oracle(self):
        # frozen expected values come from explicit RK4 (dt=1e-5) on the
        # coupled coefficient ODEs dc_l/dt = -iv(c_{l-1}+c_{l+1})/2 - nu l^2 c_l
        nu, L = 1e-3, 16
        ls = np.arange(-L, L + 1)
        n_ode = ls.size
        A = np.zeros((n_ode, n_ode), dtype=complex)
        for i, l in enumerate(ls):
            A[i, i] = -nu * l**2
            if i > 0:
                A[i, i - 1] = -0.5j
            if i < n_ode - 1:
                A[i, i + 1] = -0.5j
        c = np.zeros(n_ode, dtype=complex)
        c[L - 1] = c[L + 1] = 0.5  # cos(theta)
        dt = 1e-5
        for _ in range(100000):
            k1 = A @ c
            k2 = A @ (c + 0.5 * dt * k1)
            k3 = A @ (c + 0.5 * dt * k2)
            k4 = A @ (c + dt * k3)
            c = c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 64), t=0.0, nu=nu)
        s, _ = evolve_mode(s, 5e-4, 2000, sample_every=2000)
        mine = np.array([s.eta.coeffs[np.where(s.eta.l == l)[0][0]] for l in ls])
        assert np.linalg.norm(mine - c) < 1e-6 * np.linalg.norm(c)

    def test_time_dependent_speed_profile(self):
        v = speed_decaying(2.0)
        assert 0.5 < v(1.0) < v(0.0) == 1.0
        s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 64), t=0.0, nu=1e-3, v=v)
        s = evolve_mode(s, 0.01, 1)[0]
        assert s.t == pytest.approx(0.01)

    def test_wide_stack_builds_each_row_table_once(self):
        # a stack of more k than the transport_factor cache has entries, at a
        # constant speed, builds one table for all its rows, once
        eta = AngularProfile.from_function(np.cos, 64)
        states = [ModeState(k=(k, k % 3), eta=eta, t=0.0, nu=1e-3) for k in range(1, 13)]
        spectral.transport_factor.cache_clear()
        evolve_mode(states, 0.01, 10, sample_every=10)
        assert spectral.transport_factor.cache_info().misses == 1


def hypo_functional(s: ModeState, w: HypoWeights = HypoWeights()) -> HypoTerms:
    """Evaluate the four terms of the weighted energy at the current state."""
    rows = _ModeRows.of([s])
    terms = _hypo_terms(_stack_sums(s.eta.coeffs[None], rows), rows, rows.zeta(s.t), w)
    return HypoTerms(*(float(getattr(terms, f.name)[0]) for f in fields(HypoTerms)))


class TestHypoFunctional:
    def test_reduces_to_l2_at_zero_time(self):
        rng = np.random.default_rng(1)
        s = ModeState(k=(1, 0), eta=random_mode(rng), t=0.0, nu=1e-3)
        terms = hypo_functional(s)
        assert terms.total == pytest.approx(s.eta.norm_l2() ** 2, rel=1e-12)
        assert terms.alpha_term == terms.beta_term == terms.gamma_term == 0.0

    def test_zero_state(self):
        s = ModeState(k=(1, 0), eta=AngularProfile(np.zeros(16, dtype=complex)), t=3.0, nu=1e-3)
        assert hypo_functional(s).total == 0.0

    def test_term_by_term_quadrature_oracle(self):
        # independent oracle: 4th-order finite differences + rectangle quadrature
        nu = 1e-3
        n = 512
        s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, n), t=nu**-0.5, nu=nu)
        w = HypoWeights()
        terms = hypo_functional(s, w)

        th = theta_points(n)
        h = TWO_PI / n
        eta = s.eta.values
        deta = (np.roll(eta, -1) * 8 - np.roll(eta, 1) * 8 + np.roll(eta, 2) - np.roll(eta, -2)) / (12 * h)
        sinw = np.sin(th - s.theta_k)
        zeta = min(1.0, np.sqrt(nu * s.k_norm) * s.t)
        ratio = np.sqrt(nu / 1.0)
        l2 = h * np.sum(np.abs(eta) ** 2)
        alpha_term = w.alpha * zeta * ratio * h * np.sum(np.abs(deta) ** 2)
        beta_term = -w.beta * zeta**2 * h * np.real(np.sum(1j * sinw * eta * np.conj(deta)))
        gamma_term = w.gamma * zeta**3 / ratio * h * np.sum(np.abs(sinw * eta) ** 2)

        assert terms.l2 == pytest.approx(l2, rel=1e-10)
        assert terms.alpha_term == pytest.approx(alpha_term, rel=1e-6)
        assert terms.beta_term == pytest.approx(beta_term, rel=1e-6, abs=1e-18)
        assert terms.gamma_term == pytest.approx(gamma_term, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 6, 16, 512])
    def test_parseval_terms_match_the_values_space_form(self, n):
        # random complex rows with Nyquist content; theta_k off the grid; at n = 4 and 6
        # the lagged pairs through the Nyquist mode are half and a third of the sums
        rng = np.random.default_rng(n)
        eta = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        states = [
            ModeState(k=k, eta=AngularProfile(row), t=2.0, nu=nu)
            for k, nu, row in zip(((1, 2), (3, -1), (-2, 5)), (1e-3, 4e-3, 2e-2), eta)
        ]
        w = HypoWeights(1e-4)
        rows = _ModeRows.of(states)
        got = _hypo_terms(_stack_sums(eta, rows), rows, rows.zeta(2.0), w)
        want = _values_space_terms(eta, states, 2.0, w)
        for name in ("l2", "alpha_term", "beta_term", "gamma_term"):
            g, v = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(g - v)) <= 1e-13 * np.max(np.abs(v)), name

    def test_monotone_decay_after_saturation(self):
        w = HypoWeights()
        for nu, k in [(1e-3, (1, 0)), (1e-4, (2, 1))]:
            s = ModeState(k=k, eta=AngularProfile.from_function(np.cos, 256), t=0.0, nu=nu)
            t_sat = 1.0 / np.sqrt(nu * s.k_norm)
            dt = t_sat / 200
            prev = None
            while s.t < 3 * t_sat:
                s = evolve_mode(s, dt, 1)[0]
                val = hypo_functional(s, w).total
                if s.t > t_sat and prev is not None:
                    assert val - prev <= 1e-10 * abs(prev)
                prev = val if s.t > t_sat else None


def _values_space_terms(eta, states, t, w):
    """The four terms by quadrature on the theta collocation values (the form Parseval replaced)."""
    n = eta.shape[-1]
    quad = TWO_PI / n
    values = np.array([AngularProfile(row).values for row in eta])
    dvalues = np.array([AngularProfile(theta_derivative(n) * row).values for row in eta])
    sinw = np.array([np.sin(theta_points(n) - s.theta_k) for s in states])
    zr = [(min(1.0, np.sqrt(s.nu * s.k_norm) * t), np.sqrt(s.nu / s.k_norm)) for s in states]
    alpha, beta, gamma = np.array(
        [(w.alpha * z * r, -w.beta * z**2, w.gamma * z**3 / r) for z, r in zr]
    ).T
    return SimpleNamespace(
        l2=quad * np.sum(np.abs(values) ** 2, axis=-1),
        alpha_term=alpha * quad * np.sum(np.abs(dvalues) ** 2, axis=-1),
        beta_term=beta * quad * np.real(np.sum(1j * sinw * values * np.conj(dvalues), axis=-1)),
        gamma_term=gamma * quad * np.sum(np.abs(sinw * values) ** 2, axis=-1),
    )


class TestSandwich:
    def test_equality_at_zero_time(self):
        rng = np.random.default_rng(2)
        s = ModeState(k=(3, -1), eta=random_mode(rng), t=0.0, nu=1e-2)
        lo, val, up = sandwich(s)
        assert lo == pytest.approx(val, rel=1e-14)
        assert up == pytest.approx(val, rel=1e-14)

    def test_zero_state_all_zero(self):
        s = ModeState(k=(1, 0), eta=AngularProfile(np.zeros(16, dtype=complex)), t=5.0, nu=1e-3)
        assert sandwich(s) == (0.0, 0.0, 0.0)

    def test_thousand_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            k = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            if k == (0, 0):
                k = (1, 0)
            s = ModeState(
                k=k,
                eta=random_mode(rng, n=32),
                t=float(rng.uniform(0.0, 200.0)),
                nu=float(10.0 ** rng.uniform(-5, -1)),
            )
            lo, val, up = sandwich(s)
            assert lo <= val + 1e-12 * (1 + abs(val))
            assert val <= up + 1e-12 * (1 + abs(val))

    def test_violation_raises(self):
        # the shipped parameterization cannot violate beta^2 <= alpha gamma;
        # a duck-typed weight set with negative gamma exercises the guard
        s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 32), t=10.0, nu=1e-2)
        bad = SimpleNamespace(alpha=0.01, beta=1.0, gamma=-100.0)
        with pytest.raises(SandwichViolation):
            sandwich(s, bad)


def _assert_series_equal(a, b):
    assert (a.k, a.nu) == (b.k, b.nu)
    for name in ("t", "norm_l2", "norm_hm1", "f_hypo", "f_lower", "f_upper", "zeta"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestRates:
    def test_pure_heat_rate(self):
        eta0 = AngularProfile.from_function(lambda th: np.exp(1j * th), 64)
        s = ModeState(k=(1, 0), eta=eta0, t=0.0, nu=1e-2, v=speed_constant(0.0))
        fit = measure_ed_rate(s, horizon_factor=6.0)
        assert fit.rate == pytest.approx(1e-2, rel=0.01)

    def test_nu_scaling_smoke(self):
        # full 4-point scaling lives in the acceptance suite
        eta0 = AngularProfile.from_function(np.cos, 256)
        fit = measure_ed_rate(ModeState(k=(1, 0), eta=eta0, t=0.0, nu=1e-3))
        assert fit.rate == pytest.approx(0.5 * np.sqrt(1e-3), rel=0.1)

    def test_horizon_precondition(self):
        eta0 = AngularProfile.from_function(np.cos, 64)
        with pytest.raises(ValueError):
            measure_ed_rate(ModeState(k=(1, 0), eta=eta0, t=0.0, nu=1e-4), horizon_factor=0.1)

    def test_zero_data_rejected(self):
        s = ModeState(k=(1, 0), eta=AngularProfile(np.zeros(32, dtype=complex)), t=0.0, nu=1e-2)
        with pytest.raises(ValueError):
            measure_ed_rate(s, horizon_factor=6.0)

    @pytest.mark.parametrize("horizon_factor", [0.0, -2.0, np.nan])
    def test_schedule_rejects_nonpositive_horizon(self, horizon_factor):
        s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 32), t=0.0, nu=1e-2)
        with pytest.raises(ValueError, match="horizon_factor must be > 0"):
            ed_schedule(s, horizon_factor)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one mode state"):
            measure_ed_rate([])

    def test_batch_over_two_time_steps_matches_per_state_calls(self):
        eta0 = AngularProfile.from_function(np.cos, 64)
        states = [ModeState(k=k, eta=eta0, t=0.0, nu=nu) for k in ((1, 0), (1, 1)) for nu in (0.5, 1e-2)]
        assert len({ed_schedule(s, 5.0)[1] for s in states}) > 1
        batch = measure_ed_rate(states)
        assert len(batch) == len(states)
        for s, fit in zip(states, batch):
            one = measure_ed_rate(s)
            assert (fit.rate, fit.stderr, fit.window, fit.n_points) == (
                one.rate, one.stderr, one.window, one.n_points
            )
            _assert_series_equal(fit.series, one.series)


class TestMixing:
    def test_initial_value(self):
        eta0 = AngularProfile.from_function(np.cos, 128)
        s = ModeState(k=(1, 0), eta=eta0, t=0.0, nu=1e-2)
        curve = mixing_curve(s, horizon=15.0, dt=0.05)
        assert curve.norm_hm1[0] == pytest.approx(evolve_mode(s, 0.05, 0)[1].norm_hm1[0], rel=1e-12)

    def test_no_decay_without_shear(self):
        eta0 = AngularProfile.from_function(np.cos, 128)
        s = ModeState(k=(1, 0), eta=eta0, t=0.0, nu=1e-4, v=speed_constant(0.0))
        curve = mixing_curve(s, horizon=80.0, dt=0.05)
        assert abs(curve.slope) < 0.05

    def test_horizon_precondition(self):
        eta0 = AngularProfile.from_function(np.cos, 64)
        with pytest.raises(ValueError):
            mixing_curve(ModeState(k=(1, 0), eta=eta0, t=0.0, nu=1e-2), horizon=100.0)

    @pytest.mark.parametrize("dt", [0.0, -0.05, np.nan, np.inf])
    def test_window_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            mixing_window(1e-2, 10.0, dt)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one mode state"):
            mixing_curve([], horizon=10.0)

    def test_curve_is_the_evolve_mode_series(self):
        eta0 = AngularProfile.from_function(np.cos, 128)
        states = [ModeState(k=k, eta=eta0, t=0.0, nu=3e-3) for k in ((1, 0), (1, 1))]
        for curve, (_, ser) in zip(mixing_curve(states, horizon=10.0), evolve_mode(states, 0.05, 200)):
            assert np.array_equal(curve.t, ser.t) and np.array_equal(curve.norm_hm1, ser.norm_hm1)

    def test_nan_in_one_row_names_that_row(self):
        good = AngularProfile.from_function(np.cos, 32)
        bad = AngularProfile(np.where(fft_wavenumbers(32) == 3, np.nan, good.coeffs))
        states = [ModeState(k=(1, 0), eta=good, t=0.0, nu=1e-2), ModeState(k=(0, 2), eta=bad, t=0.0, nu=3e-3)]
        with pytest.raises(NumericsError, match=r"k=\(0, 2\), nu=0.003"):
            mixing_curve(states, horizon=10.0)

    def test_batch_matches_per_state_calls(self):
        eta0 = AngularProfile.from_function(np.cos, 128)
        rows = (((1, 0), 1e-2), ((0, 2), 1e-2), ((1, 1), 3e-3))
        states = [ModeState(k=k, eta=eta0, t=0.0, nu=nu) for k, nu in rows]
        batch = mixing_curve(states, horizon=10.0)
        assert len(batch) == len(states)
        for s, curve in zip(states, batch):
            one = mixing_curve(s, horizon=10.0)
            assert (curve.slope, curve.stderr) == (one.slope, one.stderr)
            assert np.array_equal(curve.t, one.t) and np.array_equal(curve.norm_hm1, one.norm_hm1)


# The vector fields J_k^+- adapted to a mode, and their cutoffs


def jk_coefficients(t: float, nu: float, k_norm: float, sign: int = +1) -> tuple[complex, complex]:
    """Coefficients A_k^+-, B_k^+- at time t.

    A^+ = (1 + e^{-2(1-i) s})/2,  B^+ = (1+i)(1 - e^{-2(1-i) s})/4,
    with s = (nu |k|)^{1/2} t; the minus variant conjugates the
    exponent and uses (i-1)/4.
    """
    s = np.sqrt(nu * k_norm) * t
    if sign >= 0:
        e = np.exp(-2.0 * (1.0 - 1j) * s)
        return complex((1.0 + e) / 2.0), complex((1.0 + 1j) / 4.0 * (1.0 - e))
    e = np.exp(-2.0 * (1.0 + 1j) * s)
    return complex((1.0 + e) / 2.0), complex((1j - 1.0) / 4.0 * (1.0 - e))


def jk_field(s: ModeState, sign: int = +1) -> tuple[AngularProfile, complex, complex]:
    """Apply J_k^+- to the current state; returns (J eta, A, B)."""
    A, B = jk_coefficients(s.t, s.nu, s.k_norm, sign)
    th = theta_points(s.eta.n)
    center = s.theta_k if sign >= 0 else s.theta_k + np.pi
    sinw = np.sin(th - center)
    scale = np.sqrt(s.k_norm / s.nu)
    values = A * s.eta.derivative().values - 1j * scale * B * sinw * s.eta.values
    return AngularProfile.from_values(values), A, B


CHI_WIDTH = TWO_PI / 3.0  # half-width of the support of cutoff_chi


def cutoff_chi(n: int, theta_k: float) -> np.ndarray:
    """Smooth bump supported on |theta - theta_k| < CHI_WIDTH, equal to 1 at theta_k."""
    u = wrap_angle(theta_points(n) - theta_k) / CHI_WIDTH
    out = np.zeros(n)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def norm_hs(g: AngularProfile, s: float) -> float:
    w = (1.0 + g.l.astype(np.float64) ** 2) ** s
    return float(np.sqrt(TWO_PI * np.sum(w * np.abs(g.coeffs) ** 2)))


class TestJkFields:
    def test_initial_values(self):
        rng = np.random.default_rng(4)
        s = ModeState(k=(2, 1), eta=random_mode(rng), t=0.0, nu=1e-3)
        j, A, B = jk_field(s)
        assert A == pytest.approx(1.0)
        assert B == pytest.approx(0.0)
        assert np.max(np.abs(j.values - s.eta.derivative().values)) < 1e-12

    def test_long_time_limits(self):
        A, B = jk_coefficients(1e9, 1e-3, 1.0, +1)
        assert abs(A) == pytest.approx(0.5, abs=1e-12)
        assert abs(B) == pytest.approx(np.sqrt(2) / 4, abs=1e-12)
        Am, Bm = jk_coefficients(1e9, 1e-3, 1.0, -1)
        assert abs(Am) == pytest.approx(0.5, abs=1e-12)
        assert abs(Bm) == pytest.approx(np.sqrt(2) / 4, abs=1e-12)

    def test_coefficient_magnitude_relations(self):
        for sign in (+1, -1):
            for t in np.geomspace(1e-3, 1e4, 60):
                for nu, k_norm in [(1e-3, 1.0), (1e-4, 2.0)]:
                    A, B = jk_coefficients(float(t), nu, k_norm, sign)
                    zeta = min(1.0, np.sqrt(nu * k_norm) * t)
                    assert 0.25 <= abs(A) <= 1.0 + 1e-14
                    assert abs(B) <= zeta * (1 + 1e-12)
                    assert zeta <= 8 * abs(B) * (1 + 1e-12)

    def test_truncated_field_bounded_along_trajectory(self):
        rng = np.random.default_rng(5)
        eta0 = random_mode(rng, n=128, band=20)
        s = ModeState(k=(1, 0), eta=eta0, t=0.0, nu=1e-3)
        # J_k^+ (sign +1) lives near theta_k, J_k^- (sign -1) near theta_k + pi
        chi = {sign: cutoff_chi(128, s.theta_k + (sign < 0) * np.pi) for sign in (+1, -1)}
        h1 = norm_hs(eta0, 1.0)
        quad = TWO_PI / 128
        worst = {+1: 0.0, -1: 0.0}
        for _ in range(300):
            s = evolve_mode(s, 0.2, 1)[0]
            for sign in worst:
                j, _, _ = jk_field(s, sign)
                val = np.sqrt(quad * np.sum(np.abs(chi[sign] * j.values) ** 2))
                worst[sign] = max(worst[sign], val / h1)
        for sign in worst:
            assert np.isfinite(worst[sign])
            assert worst[sign] < 50.0  # recorded constant stays O(1)

    def test_cutoff_shape(self):
        chi = cutoff_chi(256, theta_k=0.0)
        th = theta_points(256)
        assert chi[np.argmin(np.abs(th))] == pytest.approx(1.0)
        assert np.all(chi[np.abs(np.mod(th + np.pi, TWO_PI) - np.pi) >= TWO_PI / 3] == 0.0)
        assert np.all(chi >= 0.0) and np.all(chi <= 1.0)


class TestWrapAngle:
    """wrap_angle is np.mod(y + s, 2pi) - s bit for bit, signed zeros and NaN included, in place too."""

    EDGES = [
        -TWO_PI, -np.nextafter(TWO_PI, 0.0), -1e-300, -0.0, 0.0, 1e-300,
        np.nextafter(TWO_PI, 0.0), TWO_PI, np.nextafter(2 * TWO_PI, 0.0),
    ]
    FAR = [  # more than one period out: the np.mod fallback
        np.nextafter(-TWO_PI, -np.inf), -3 * TWO_PI - 0.1, 2 * TWO_PI, 1e6, -1e6, np.inf, -np.inf, np.nan,
    ]

    @staticmethod
    def _assert_bits_equal(y, s):
        with np.errstate(invalid="ignore"):  # np.mod of an infinity
            got, want = wrap_angle(y, s), np.mod(y + s, TWO_PI) - s
            z = y.copy()
            in_place = wrap_angle(z, s, out=z)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (y, s)
        assert in_place is z and np.array_equal(z.view(np.int64), want.view(np.int64)), (y, s)

    @pytest.mark.parametrize("s", [0.0, np.pi])
    def test_edges_one_at_a_time(self, s):
        for v in self.EDGES + self.FAR:
            for y in (v, v - s):  # v as the input and as the shifted input y + s
                self._assert_bits_equal(np.array([y]), s)

    @pytest.mark.parametrize("s", [0.0, np.pi])
    def test_random_sample_with_and_without_far_values(self, s):
        rng = np.random.default_rng(11)
        y = rng.uniform(-TWO_PI, 2 * TWO_PI, 10**5) - s
        y[: len(self.EDGES)] = np.array(self.EDGES) - s
        assert -TWO_PI <= np.min(y + s) and np.max(y + s) < 2 * TWO_PI  # all on the conditional-shift path
        self._assert_bits_equal(y, s)
        y[-len(self.FAR):] = self.FAR
        self._assert_bits_equal(y, s)
        self._assert_bits_equal(y.reshape(-1, 2), s)


def test_evolve_mode_series_columns():
    rng = np.random.default_rng(6)
    s = ModeState(k=(1, 0), eta=random_mode(rng), t=0.0, nu=1e-2)
    _, series = evolve_mode(s, 0.05, 40, sample_every=4)
    assert series.t.shape == series.norm_l2.shape == series.f_hypo.shape
    assert np.all(series.f_lower <= series.f_hypo + 1e-12)
    assert np.all(series.f_hypo <= series.f_upper + 1e-12)
    assert np.all(np.diff(series.t) > 0)


def _reference_evolution(s, dt, n_steps, weights, sample_every):
    """A loop of single steps of one state, each sample the t0 sample of a run of no steps."""
    rows = []

    def sample(st):
        _, ser = evolve_mode(st, dt, 0, weights=weights)
        cols = (ser.t, ser.norm_l2, ser.norm_hm1, ser.f_hypo, ser.f_lower, ser.f_upper, ser.zeta)
        rows.append(tuple(col[0] for col in cols))

    sample(s)
    for i in range(n_steps):
        s = evolve_mode(s, dt, 1)[0]
        if (i + 1) % sample_every == 0 or i == n_steps - 1:
            sample(s)
    return s, [np.asarray(c) for c in zip(*rows)]


class TestBatchedEvolution:
    """evolve_mode over a sequence of states: one stack of rows, each with its own counts."""

    def test_batch_matches_per_row_runs_byte_for_byte(self):
        rng = np.random.default_rng(7)
        rows = [  # k, nu, speed, n_steps, sample_every
            ((1, 0), 1e-2, speed_constant(), 37, 4),
            ((2, -1), 3e-3, speed_decaying(2.0), 50, 3),
            ((0, 1), 1e-2, speed_constant(0.7), 12, 1),
            ((1, 1), 5e-3, speed_constant(), 0, 2),
            ((-3, 2), 2e-2, speed_constant(), 50, 7),
        ]
        states = [
            ModeState(k=k, eta=random_mode(rng), t=0.25, nu=nu, v=v) for k, nu, v, _, _ in rows
        ]
        w = HypoWeights(1e-4)
        batch = evolve_mode(
            states, 0.05, [r[3] for r in rows], weights=w, sample_every=[r[4] for r in rows]
        )
        assert len(batch) == len(states)
        for s, (n_steps, every), (final, series) in zip(states, [r[3:] for r in rows], batch):
            ref_final, ref_cols = _reference_evolution(s, 0.05, n_steps, w, every)
            assert (series.k, series.nu) == (s.k, s.nu)
            cols = [series.t, series.norm_l2, series.norm_hm1, series.f_hypo,
                    series.f_lower, series.f_upper, series.zeta]
            for got, want in zip(cols, ref_cols):
                assert np.array_equal(got, want)
            assert final.t == ref_final.t
            assert np.array_equal(final.eta.coeffs, ref_final.eta.coeffs)

    def test_nan_in_one_row_names_that_row(self):
        good = AngularProfile.from_function(np.cos, 32)
        bad = AngularProfile(np.where(fft_wavenumbers(32) == 3, np.nan, good.coeffs))
        states = [
            ModeState(k=(1, 0), eta=good, t=0.0, nu=1e-2),
            ModeState(k=(0, 2), eta=bad, t=0.0, nu=3e-3),
        ]
        with pytest.raises(NumericsError, match=r"k=\(0, 2\), nu=0.003"):
            evolve_mode(states, 0.05, 5)

    def test_sandwich_failure_in_one_row_names_that_row(self):
        bad_weights = SimpleNamespace(alpha=0.01, beta=1.0, gamma=-100.0)
        states = [
            ModeState(k=(1, 0), eta=AngularProfile(np.zeros(32, dtype=complex)), t=10.0, nu=1e-2),
            ModeState(k=(0, 3), eta=AngularProfile.from_function(np.cos, 32), t=10.0, nu=2e-2),
        ]
        with pytest.raises(SandwichViolation, match=r"k=\(0, 3\), nu=0.02"):
            evolve_mode(states, 0.05, 5, weights=bad_weights)

    def test_nan_at_a_later_sample_names_its_t(self):
        # the speed turns NaN mid-run, so row 1 is first not finite at the sample after that step
        eta0 = AngularProfile.from_function(np.cos, 32)
        states = [
            ModeState(k=(1, 0), eta=eta0, t=0.0, nu=1e-2),
            ModeState(k=(0, 2), eta=eta0, t=0.0, nu=3e-3, v=lambda t: np.nan if t > 0.2 else 1.0),
        ]
        with pytest.raises(NumericsError, match=r"at t=0\.4 for k=\(0, 2\), nu=0.003"):
            evolve_mode(states, 0.1, 6, sample_every=2)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_row_raises(self):
        # |eta| = 1e160 is finite, but its |eta|^2 overflows: the norms would be inf
        good = AngularProfile.from_function(np.cos, 32)
        states = [
            ModeState(k=(1, 0), eta=good, t=0.0, nu=1e-2),
            ModeState(k=(0, 2), eta=AngularProfile(good.coeffs * 1e160), t=0.0, nu=3e-3),
        ]
        assert np.isfinite(states[1].eta.coeffs).all()
        with pytest.raises(NumericsError, match=r"at t=0.0 for k=\(0, 2\), nu=0.003"):
            evolve_mode(states, 0.05, 5)
        with pytest.raises(NumericsError, match=r"at t=0.0 for k=\(0, 2\), nu=0.003"):
            mixing_curve(states, horizon=10.0)

    # alpha + gamma < 0 once the ramp has grown: of these rows only (0, 3) breaks the bounds
    # within 40 steps of 0.05; sampled every 3 steps, first at t = 1.5 (its 29th step is the first to break)
    DEFERRED_WEIGHTS = SimpleNamespace(alpha=1.0, beta=0.0, gamma=-1.0)
    DEFERRED_ROWS = (((2, 1), 0.2, 0.0), ((0, 3), 2e-2, 1.0), ((1, 0), 1e-2, 1.0))  # k, nu, amplitude

    def test_sandwich_is_checked_after_the_run_at_the_first_violating_sample(self):
        eta0 = AngularProfile.from_function(np.cos, 32)
        states = [ModeState(k=k, eta=AngularProfile(a * eta0.coeffs), t=0.0, nu=nu) for k, nu, a in self.DEFERRED_ROWS]
        every = [1, 3, 1]
        for s, e in zip(states, every):
            if s.k != (0, 3):
                _reference_evolution(s, 0.05, 40, self.DEFERRED_WEIGHTS, e)  # no violation
        with pytest.raises(SandwichViolation) as ref:
            _reference_evolution(states[1], 0.05, 40, self.DEFERRED_WEIGHTS, every[1])
        assert "at t=1.5000000000000007 for k=(0, 3), nu=0.02" in str(ref.value)
        with pytest.raises(SandwichViolation) as got:
            evolve_mode(states, 0.05, 40, weights=self.DEFERRED_WEIGHTS, sample_every=every)
        assert str(got.value) == str(ref.value)

    def test_cli_run_with_a_violation_exits_3_without_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("kvicsek.linear.HypoWeights", lambda beta: self.DEFERRED_WEIGHTS)
        out = tmp_path / "run"
        argv = ["linear-ed", "--k-list", "0,3", "--nu-list", "2e-2", "--n-theta", "32", "--horizon-factor", "2"]
        assert main([*argv, "--out", str(out)]) == 3
        assert "comparison bounds violated" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
    def test_bad_dt_rejected(self, dt):
        s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 16), t=0.0, nu=1e-2)
        for n_steps in (0, 3):
            with pytest.raises(ValueError, match="dt must be finite and > 0"):
                evolve_mode(s, dt, n_steps)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one mode state"):
            evolve_mode([], 0.05, 3)

    def test_step_counts_and_cadence_are_checked(self):
        s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 16), t=0.0, nu=1e-2)
        for n_steps, every in ((-1, 1), ([3, -1], 1), (2.5, 1), (3.0, 1), ([3, 2.5], 1)):
            with pytest.raises(ValueError, match="n_steps must be an integer >= 0"):
                evolve_mode([s, s], 0.05, n_steps, sample_every=every)
        for every in (0, [2, 0], 1.5, [1, 1.5]):
            with pytest.raises(ValueError, match="sample_every must be an integer >= 1"):
                evolve_mode([s, s], 0.05, 3, sample_every=every)
