"""Homogeneous dynamics, energy structure, stability and ordered states."""

import math

import numpy as np
import pytest
from scipy.special import i0, i1, ive

from kvicsek.errors import NumericsError, StepSizeError
from kvicsek.homogeneous import (
    HomogeneousState,
    _alignment,
    bessel_ratio,
    bessel_ratios,
    constant_state,
    evolve_homogeneous,
    fisher_information,
    free_energy,
    frouvelle_liu_rhs,
    homogeneous_rhs,
    linear_stability,
    solve_compatibility,
    u_hat_unnormalized,
    von_mises_state,
)
from kvicsek.fitting import fit_rate
from kvicsek.influence import angular_kernel
from kvicsek.presets import perturbed_profile
from kvicsek.spectral import (
    TWO_PI,
    AngularProfile,
    band_product,
    diffusion_factor,
    fft_wavenumbers,
    split_step,
    theta_derivative,
    theta_points,
)

from full_rhs import full_rhs


@pytest.fixture(scope="module")
def kernel():
    return angular_kernel(256)


class TestEvolution:
    def test_constant_is_fixed_point(self, kernel):
        traj = evolve_homogeneous(constant_state(256, 0.2, 0.1), kernel, 0.01, 300)
        drift = np.max(np.abs(traj.final.g.values.real - 1.0 / TWO_PI))
        assert drift < 1e-13

    def test_mass_requires_unit(self):
        bad = AngularProfile.from_values(np.full(64, 1.0))
        with pytest.raises(ValueError):
            HomogeneousState(g=bad, t=0.0, kappa=0.1, nu=0.1)

    @pytest.mark.parametrize(
        "kappa, nu", [(0.1, 0.0), (0.1, -1.0), (0.1, np.nan), (0.1, np.inf), (np.nan, 0.1), (-np.inf, 0.1)]
    )
    def test_requires_finite_kappa_and_positive_nu(self, kappa, nu):
        with pytest.raises(ValueError, match="kappa must be finite and nu finite and > 0"):
            constant_state(64, kappa, nu)

    def test_subcritical_decay_rate(self, kernel):
        # ratio 1.5: |m| decays at nu - kappa/2 (linearized mode l=1)
        nu, kappa = 0.1, 0.15
        g0 = perturbed_profile(256, amplitude=0.02, seed=1)
        s = HomogeneousState(g=g0, t=0.0, kappa=kappa, nu=nu)
        traj = evolve_homogeneous(s, kernel, 0.01, 4000, sample_every=10)
        m = np.abs(traj.order_parameter)
        slope, _ = fit_rate(traj.t[m > 1e-12], m[m > 1e-12], window=(5.0, 40.0))
        assert -slope == pytest.approx(nu - kappa / 2, rel=0.10)

    def test_supercritical_reaches_von_mises_branch(self, kernel):
        nu = 0.1
        r2 = solve_compatibility(4.0).r2
        s = HomogeneousState(g=perturbed_profile(256, 0.2, seed=1), t=0.0, kappa=0.4, nu=nu)
        traj = evolve_homogeneous(s, kernel, 0.01, 20000, sample_every=100)
        assert abs(abs(traj.order_parameter[-1]) - r2) < 1e-3

    def test_mass_conserved_exactly(self, kernel):
        s = HomogeneousState(g=perturbed_profile(256, 0.3, seed=2), t=0.0, kappa=0.4, nu=0.1)
        traj = evolve_homogeneous(s, kernel, 0.01, 500)
        assert traj.final.g.mass == pytest.approx(1.0, abs=1e-14)

    def test_rotational_equivariance_of_flow(self, kernel):
        phi = 1.234
        g0 = perturbed_profile(256, 0.3, seed=3)
        a = HomogeneousState(g=g0, t=0.0, kappa=0.3, nu=0.1)
        b = HomogeneousState(g=g0.rotate(phi), t=0.0, kappa=0.3, nu=0.1)
        ta = evolve_homogeneous(a, kernel, 0.01, 300)
        tb = evolve_homogeneous(b, kernel, 0.01, 300)
        rotated = ta.final.g.rotate(phi)
        assert np.max(np.abs(rotated.coeffs - tb.final.g.coeffs)) < 1e-10

    def test_step_guard(self, kernel):
        s = HomogeneousState(g=von_mises_state(4.0, 0.8, 256), t=0.0, kappa=1.0, nu=0.1)
        with pytest.raises(StepSizeError):
            evolve_homogeneous(s, kernel, 5.0, 1)

    @staticmethod
    def nan_state():
        c = np.zeros(256, dtype=complex)
        c[0] = 1.0 / TWO_PI
        c[1] = c[-1] = np.nan
        bad = HomogeneousState.__new__(HomogeneousState)
        object.__setattr__(bad, "g", AngularProfile(c))
        object.__setattr__(bad, "t", 0.0)
        object.__setattr__(bad, "kappa", 0.0)
        object.__setattr__(bad, "nu", 0.1)
        return bad

    def test_nan_abort(self, kernel):
        with pytest.raises(NumericsError):
            evolve_homogeneous(self.nan_state(), kernel, 0.01, 1)

    def test_nan_in_one_row_names_that_row(self, kernel):
        good = HomogeneousState(g=perturbed_profile(256, 0.2, seed=1), t=0.0, kappa=0.3, nu=0.1)
        with pytest.raises(NumericsError, match="in row 1"):
            evolve_homogeneous([good, self.nan_state(), good], kernel, 0.01, 3)


class TestBatchedEvolution:
    """evolve_homogeneous over a sequence of states: one stack of rows with kappa per row."""

    def test_batch_matches_per_state_runs_byte_for_byte(self, kernel):
        nu, dt, n_steps = 0.1, 0.01, 60
        g0 = perturbed_profile(256, 0.2, seed=5)
        states = [HomogeneousState(g=g0, t=0.5, kappa=r * nu, nu=nu) for r in (0.5, 4.0, 0.0, 2.5)]
        batch = evolve_homogeneous(states, kernel, dt, n_steps, sample_every=7, record_energy=True)
        assert len(batch) == len(states)
        for s, traj in zip(states, batch):
            one = evolve_homogeneous(s, kernel, dt, n_steps, sample_every=7, record_energy=True)
            for name in ("t", "order_parameter", "free_energy", "fisher"):
                assert np.array_equal(getattr(traj, name), getattr(one, name))
            assert traj.final.t == one.final.t and traj.final.kappa == s.kappa
            # the per-state loop with a scalar kappa, as before batching
            align = _alignment(kernel, s.kappa)
            c = s.g.coeffs
            for i in range(n_steps):
                c = split_step(c, s.t + i * dt, dt, nu, align=align)
            assert np.array_equal(traj.final.g.coeffs, c)

    def test_one_state_per_row_without_energy(self, kernel, monkeypatch):
        # a sample records m per row; the final state, the only one built, is the only mass check
        nu = 0.1
        g0 = perturbed_profile(256, 0.2, seed=5)
        states = [HomogeneousState(g=g0, t=0.0, kappa=r * nu, nu=nu) for r in (0.5, 4.0, 2.5)]
        built, check = [], HomogeneousState.__post_init__

        def counted(x):
            built.append(x.kappa)
            check(x)

        monkeypatch.setattr(HomogeneousState, "__post_init__", counted)
        trajs = evolve_homogeneous(states, kernel, 0.01, 20, sample_every=5)
        assert built == [s.kappa for s in states]
        for traj in trajs:
            assert len(traj.t) == 5 and traj.final.t == traj.t[-1]
            assert traj.order_parameter[-1] == TWO_PI * traj.final.g.coeffs[1]
            # the step keeps the mass 2pi Re ghat_0 bit for bit
            assert traj.final.g.coeffs[0].real == g0.coeffs[0].real

    def test_batch_equals_the_full_array_heun_bit_for_bit(self, kernel):
        # the Heun stages on the modes 0..n_theta/3 against stages on whole
        # rows, the RHS scattered into them; kappa = 0 rows ride along
        nu, dt, n_steps, n = 0.1, 0.01, 40, 256
        g0 = perturbed_profile(n, 0.2, seed=6)
        states = [HomogeneousState(g=g0, t=0.0, kappa=r * nu, nu=nu) for r in (0.0, 4.0, 1.5, 0.0)]
        batch = evolve_homogeneous(states, kernel, dt, n_steps)
        kappa, heat, m = np.array([[s.kappa] for s in states]), diffusion_factor(n, nu, dt), n // 3
        band, psi = kernel.band

        def full_rhs_rows(g):
            prod = band_product(g[..., : m + 1].T, (psi * g[..., band]).T, band).T
            rhs = np.zeros(g.shape, dtype=np.complex128)
            rhs[..., : m + 1] = kappa * theta_derivative(n)[: m + 1] * prod
            rhs[..., n - m :] = np.conj(rhs[..., m:0:-1])
            return rhs

        def align_half(c):
            r1 = full_rhs_rows(c)
            r2 = full_rhs_rows(c + 0.5 * dt * r1)
            return c + 0.5 * (0.5 * dt) * (r1 + r2)

        c = np.stack([s.g.coeffs for s in states])
        for _ in range(n_steps):
            c = align_half(align_half(c) * heat)
        got = np.stack([traj.final.g.coeffs for traj in batch])
        assert np.array_equal(got.view(np.uint64), c.view(np.uint64))

    def test_states_must_share_nu_and_t(self, kernel):
        g0 = perturbed_profile(256, 0.2, seed=5)
        a = HomogeneousState(g=g0, t=0.0, kappa=0.2, nu=0.1)
        for nu, t in ((0.2, 0.0), (0.1, 1.0)):
            b = HomogeneousState(g=g0, t=t, kappa=0.2, nu=nu)
            with pytest.raises(ValueError, match="share"):
                evolve_homogeneous([a, b], kernel, 0.01, 2)


    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
    def test_bad_dt_rejected(self, kernel, dt):
        s = HomogeneousState(g=perturbed_profile(256, 0.2, seed=5), t=0.0, kappa=0.2, nu=0.1)
        for n_steps in (0, 20):
            with pytest.raises(ValueError, match="dt must be finite and > 0"):
                evolve_homogeneous(s, kernel, dt, n_steps)

    @pytest.mark.parametrize("n_kernel", [64, 256])
    def test_kernel_resolution_must_match_the_states(self, n_kernel):
        # the banded RHS reads only the modes <= n_theta/3, so a finer kernel
        # would run without a broadcast error
        with pytest.raises(ValueError, match=rf"n_theta = {n_kernel}.*n_theta = 128"):
            evolve_homogeneous(constant_state(128, 0.4, 0.1), angular_kernel(n_kernel), 0.01, 2)

    def test_empty_batch_rejected(self, kernel):
        with pytest.raises(ValueError, match="at least one state"):
            evolve_homogeneous([], kernel, 0.01, 2)

    @pytest.mark.parametrize("n_steps, sample_every", [(10, 0), (10, 1.5), (-3, 1), (2.5, 1), (3.0, 1)])
    def test_bad_counts_rejected_before_stepping(self, kernel, n_steps, sample_every):
        s = HomogeneousState(g=perturbed_profile(256, 0.2, seed=5), t=0.0, kappa=0.2, nu=0.1)
        bad_steps = n_steps < 0 or not isinstance(n_steps, int)
        message = "n_steps must be an integer >= 0" if bad_steps else "sample_every must be an integer >= 1"
        with pytest.raises(ValueError, match=message):
            evolve_homogeneous(s, kernel, 0.01, n_steps, sample_every=sample_every)


def _pseudospectral_alignment_rhs(g, psi, kappa):
    """kappa d_theta(g (Psi*g)) as the 1-D layer first computed it: 2/3-masked, three FFTs on n_theta points."""
    n = g.shape[-1]
    mask = np.abs(fft_wavenumbers(n)) <= n // 3
    gv = np.fft.ifft(np.where(mask, g, 0.0), axis=-1) * n
    cv = np.fft.ifft(np.where(mask, TWO_PI * psi * g, 0.0), axis=-1) * n
    prod = np.fft.fft(gv * cv, axis=-1) / n
    l = fft_wavenumbers(n).astype(np.float64)
    l[n // 2] = 0.0
    return kappa * 1j * l * np.where(mask, prod, 0.0), np.max(np.abs(cv), axis=-1, keepdims=True)


def _theta_padded_alignment_rhs(g, psi, kappa):
    """The same flux with theta zero-padded to 2 n_theta: the exact dealiased product."""
    n = g.shape[-1]
    mask = np.abs(fft_wavenumbers(n)) <= n // 3
    idx = fft_wavenumbers(n) % (2 * n)

    def padded_values(c):
        out = np.zeros(c.shape[:-1] + (2 * n,), dtype=complex)
        out[..., idx] = np.where(mask, c, 0.0)
        return np.fft.ifft(out, axis=-1) * (2 * n)

    prod = np.fft.fft(padded_values(g) * padded_values(TWO_PI * psi * g), axis=-1)[..., idx] / (2 * n)
    l = fft_wavenumbers(n).astype(np.float64)
    l[n // 2] = 0.0
    return kappa * 1j * l * np.where(mask, prod, 0.0)


class TestBandedAlignmentRhs:
    """The homogeneous RHS is the kinetic banded product at k = 0."""

    KAPPA = np.array([[0.2], [1.0], [3.0]])

    @staticmethod
    def rows(n, seed):
        rng = np.random.default_rng(seed)
        return np.stack([AngularProfile.from_values(1.0 + 0.5 * rng.standard_normal(n)).coeffs for _ in range(3)])

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("psi_factor", [None, lambda th: (1.0 + np.cos(th)) ** 2])
    def test_matches_the_pseudospectral_product_when_3_does_not_divide_n_theta(self, n, psi_factor):
        ker = angular_kernel(n, psi_factor)
        g = self.rows(n, 31)
        rhs, sup = full_rhs(_alignment(ker, self.KAPPA), g)
        ref, ref_sup = _pseudospectral_alignment_rhs(g, ker.psi.coeffs, self.KAPPA)
        assert np.max(np.abs(rhs - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(sup - ref_sup) / ref_sup) <= 1e-13

    def test_has_no_theta_aliasing_when_3_divides_n_theta(self):
        # A dense Psihat reaches mode n_theta/3 = 8; the n_theta-point product
        # aliases onto |l| = 8, the banded sum is the exact product.
        n = 24
        ker = angular_kernel(n, lambda th: 1.0 / (1.25 - np.cos(th)))
        assert ker.band[0].tolist() == list(range(1, 9))
        g = self.rows(n, 32)
        rhs, _ = full_rhs(_alignment(ker, self.KAPPA), g)
        exact = _theta_padded_alignment_rhs(g, ker.psi.coeffs, self.KAPPA)
        aliased, _ = _pseudospectral_alignment_rhs(g, ker.psi.coeffs, self.KAPPA)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(rhs - exact)) <= 1e-13 * scale
        assert np.max(np.abs(aliased - exact)) > 1e-6 * scale


class TestEnergy:
    def test_constant_value_with_sine_kernel(self, kernel):
        # F[1/2pi] = -nu log(2pi) - kappa/2 for U = -1 - cos
        s = constant_state(256, kappa=0.3, nu=0.07)
        assert free_energy(s, kernel) == pytest.approx(-0.07 * np.log(TWO_PI) - 0.15, rel=1e-12)

    def test_entropy_only_minimized_by_constant(self, kernel):
        nu = 0.1
        s0 = constant_state(256, kappa=0.0, nu=nu)
        f0 = free_energy(s0, kernel)
        for seed in range(5):
            g = perturbed_profile(256, 0.4, seed=seed)
            s = HomogeneousState(g=g, t=0.0, kappa=0.0, nu=nu)
            assert free_energy(s, kernel) > f0

    def test_nonpositive_density_gives_infinity(self, kernel):
        th = theta_points(256)
        vals = (1.0 + 1.5 * np.cos(th)) / TWO_PI  # dips negative
        prof = AngularProfile.from_values(vals)
        s = HomogeneousState(g=prof, t=0.0, kappa=0.1, nu=0.1)
        assert free_energy(s, kernel) == math.inf
        with pytest.raises(ValueError):
            fisher_information(s, kernel)

    def test_free_energy_monotone_along_trajectory(self, kernel):
        for ratio in (1.0, 4.0):
            s = HomogeneousState(g=perturbed_profile(256, 0.3, seed=4), t=0.0, kappa=ratio * 0.1, nu=0.1)
            traj = evolve_homogeneous(s, kernel, 0.005, 3000, sample_every=1, record_energy=True)
            deltas = np.diff(traj.free_energy)
            assert np.all(deltas <= 1e-10 * (1.0 + np.abs(traj.free_energy[:-1])))

    def test_fisher_zero_at_constant(self, kernel):
        s = constant_state(256, kappa=0.5, nu=0.1)
        assert fisher_information(s, kernel) < 1e-28

    def test_fisher_vanishes_at_compatible_von_mises(self, kernel):
        r2 = solve_compatibility(4.0).r2
        g = von_mises_state(4.0, r2, 256)
        s = HomogeneousState(g=g, t=0.0, kappa=0.4, nu=0.1)
        assert fisher_information(s, kernel) < 1e-8

    def test_dissipation_identity_finite_difference(self, kernel):
        # dF/dt = -D within 1% at dt = 1e-4 (central difference)
        for ratio in (1.0, 4.0):
            s = HomogeneousState(g=perturbed_profile(256, 0.3, seed=2), t=0.0, kappa=ratio * 0.1, nu=0.1)
            dt = 1e-4
            s = evolve_homogeneous(s, kernel, dt, 500, sample_every=500).final
            s_mid = evolve_homogeneous(s, kernel, dt, 1).final
            s_next = evolve_homogeneous(s_mid, kernel, dt, 1).final
            fd = (free_energy(s_next, kernel) - free_energy(s, kernel)) / (2 * dt)
            d = fisher_information(s_mid, kernel)
            assert fd == pytest.approx(-d, rel=0.01)


class TestStability:
    def test_sine_kernel_transform(self, kernel):
        assert u_hat_unnormalized(kernel, 1).real == pytest.approx(-np.pi, abs=1e-12)

    def test_kappa_zero_all_stable(self, kernel):
        rep = linear_stability(kernel, kappa=0.0, nu=0.05, l_max=10)
        assert rep.stable
        assert np.allclose(rep.rates, -0.05 * np.arange(1, 11) ** 2)

    def test_threshold_flip_at_two(self, kernel):
        nu = 0.1
        assert linear_stability(kernel, 1.9999999 * nu, nu, 8).stable
        assert not linear_stability(kernel, 2.0000001 * nu, nu, 8).stable
        sigma1 = linear_stability(kernel, 2.0 * nu, nu, 8).rates[0]
        assert abs(sigma1) < 1e-15

    def test_l_max_validation(self, kernel):
        # past n_theta/2 the kernel's modes alias; past n_theta they do not exist
        n = kernel.n_theta
        for l_max in (0, n // 2 + 1, n + 1):
            with pytest.raises(ValueError, match="l_max must lie in"):
                linear_stability(kernel, 0.1, 0.1, l_max)
        assert len(linear_stability(kernel, 0.1, 0.1, n // 2).rates) == n // 2


class TestBesselRatio:
    def test_endpoints(self):
        assert bessel_ratio(0.0) == 0.0
        assert abs(bessel_ratio(50.0) - 1.0) < 0.011

    def test_against_scipy(self):
        for z in [1e-8, 0.1, 1.0, 7.5, 14.999, 15.001, 40.0, 120.0, 600.0]:
            assert bessel_ratio(z) == pytest.approx(i1(z) / i0(z), rel=1e-13)

    def test_monotone_increasing(self):
        zs = np.linspace(0.0, 40.0, 400)
        vals = bessel_ratio(zs)
        assert np.all(np.diff(vals) > 0)

    def test_derivative_at_zero(self):
        h = 1e-20
        d = bessel_ratio(complex(1e-3, h)).imag / h
        assert d == pytest.approx(0.5, rel=1e-4)

    def test_ode_identity(self):
        # d/dz r = 1 - r/z - r^2 via complex-step differentiation
        h = 1e-20
        for z in np.linspace(0.1, 30.0, 80):
            r = bessel_ratio(z)
            dr = bessel_ratio(complex(z, h)).imag / h
            assert abs(dr - (1.0 - r / z - r * r)) < 1e-10


def test_bessel_ratios_against_scipy():
    # the entries the kernel density estimate uses: z = 1/h^2 for bandwidths h in [0.1, 1]
    ks = np.arange(65)
    for z in 1.0 / np.linspace(0.1, 1.0, 10) ** 2:
        ratios = bessel_ratios(z, 64)
        assert np.max(np.abs(np.array(ratios) - ive(ks, z) / ive(0, z))) < 1e-14
    assert bessel_ratios(0.0, 3) == [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("z", [1e3, 1e4, 1e6, 1e8])
def test_bessel_ratios_at_large_argument_against_scipy(z):
    # the backward recurrence starts at depth 10 z^{1/2} + 50 here, not z + 50
    for n in (1, 16, 64):
        expected = ive(np.arange(n + 1), z) / ive(0, z)
        assert np.max(np.abs(np.array(bessel_ratios(z, n)) / expected - 1.0)) < 1e-13


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0), 1.0 / 1e-160**2])
def test_bessel_ratios_reject_a_non_finite_argument(z):
    with pytest.raises(ValueError, match="z = "):
        bessel_ratios(z, 16)


class TestCompatibility:
    def test_subcritical_only_trivial(self):
        for ratio in (0.5, 1.0, 2.0):
            root = solve_compatibility(ratio)
            assert root.roots == (0.0,)
            assert root.r2 is None

    def test_supercritical_unique_root(self):
        root = solve_compatibility(4.0)
        assert root.r2 is not None and 0.0 < root.r2 < 1.0
        # brute-force grid scan oracle at 1e-6 resolution
        zs = np.arange(1e-6, 4.0, 1e-6)
        h = np.array([bessel_ratio(z) for z in zs[:: 1000]])  # coarse guide
        f = lambda z: bessel_ratio(z) - z / 4.0
        sign_changes = []
        prev = f(1e-6)
        for z in np.arange(1e-3, 4.0, 1e-3):
            cur = f(z)
            if prev > 0 >= cur:
                sign_changes.append(z)
            prev = cur
        assert len(sign_changes) == 1
        z_scan = sign_changes[0]
        assert abs(root.r2 * 4.0 - z_scan) < 2e-3

    def test_root_matches_fine_scan(self):
        root = solve_compatibility(3.0)
        f = lambda z: bessel_ratio(z) - z / 3.0
        z0 = root.r2 * 3.0
        zs = z0 + np.arange(-5e-6, 5e-6, 1e-6)
        vals = np.array([f(z) for z in zs])
        assert vals[0] > 0 > vals[-1]

    def test_positive_ratio_required(self):
        with pytest.raises(ValueError):
            solve_compatibility(-1.0)

    def test_large_ratio_root(self):
        # I_1/I_0(z) = 1 - 1/(2z) + O(z^-2), so r2 = 1 - 1/(2 ratio) + O(ratio^-2)
        ratio = 1e5
        assert abs(solve_compatibility(ratio).r2 - (1.0 - 0.5 / ratio)) < 1e-9


class TestVonMises:
    def test_trivial_root_is_constant(self):
        g = von_mises_state(4.0, 0.0, 128)
        assert np.max(np.abs(g.values.real - 1.0 / TWO_PI)) < 1e-14

    def test_rotation_equivariance(self):
        phi = 0.9
        r = 0.5
        a = von_mises_state(3.0, r * np.exp(1j * phi), 128)
        b = von_mises_state(3.0, r, 128).rotate(phi)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_self_consistency_at_compatible_root(self):
        r2 = solve_compatibility(4.0).r2
        g = von_mises_state(4.0, r2, 256)
        m = TWO_PI * g.coeffs[1]
        assert abs(m - r2) < 1e-10

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            von_mises_state(4.0, 1.0, 64)

    def test_stationary_residual(self):
        # acceptance-grade check at n_theta = 256
        kernel = angular_kernel(256)
        r2 = solve_compatibility(4.0).r2
        g = von_mises_state(4.0, r2, 256)
        s = HomogeneousState(g=g, t=0.0, kappa=0.4, nu=0.1)
        assert homogeneous_rhs(s, kernel).norm_l2() < 1e-8


class TestFrouvelleLiu:
    def test_constant_profile_gives_zero(self):
        g = AngularProfile.from_values(np.full(64, 1.0 / TWO_PI))
        sphere, direct = frouvelle_liu_rhs(g)
        assert np.max(np.abs(sphere.values)) < 1e-14
        assert np.max(np.abs(direct.values)) < 1e-14

    def test_cardioid_profile(self):
        th = theta_points(64)
        g = AngularProfile.from_values((1.0 + np.cos(th)) / TWO_PI)
        sphere, direct = frouvelle_liu_rhs(g)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(sphere.values - direct.values)) < 1e-11 * max(scale, 1.0)

    def test_hundred_random_profiles(self):
        rng = np.random.default_rng(9)
        ls = fft_wavenumbers(64)
        worst = 0.0
        for _ in range(100):
            c = np.zeros(64, dtype=complex)
            sel = np.abs(ls) <= 64 // 3 - 2
            c[sel] = rng.standard_normal(sel.sum()) + 1j * rng.standard_normal(sel.sum())
            g = AngularProfile.from_values(AngularProfile(c).values.real)
            sphere, direct = frouvelle_liu_rhs(g)
            scale = max(np.max(np.abs(direct.values)), 1e-30)
            worst = max(worst, np.max(np.abs(sphere.values - direct.values)) / scale)
        assert worst < 1e-10
