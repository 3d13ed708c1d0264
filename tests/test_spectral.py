"""Spectral core: transforms, averages, norms, convolution, snapshots."""

import json
import re
from functools import partial

import numpy as np
import pytest

from kvicsek.config import due, step_times
from kvicsek.errors import StepSizeError
from kvicsek.homogeneous import HomogeneousState, _alignment, constant_state, evolve_homogeneous
from kvicsek.influence import angular_kernel
from kvicsek.kinetic import KineticParams, run_experiment
from kvicsek.linear import ModeState, _mode_step, evolve_mode, speed_constant, speed_decaying
from kvicsek.presets import perturbed_profile
from kvicsek.spectral import (
    SUP_ROUNDING,
    TWO_PI,
    AngularProfile,
    SpectralField,
    TorusGrid,
    _series,
    band_product,
    band_sup,
    dealias_keep,
    diffusion_factor,
    evolve_rows,
    mirror,
    norm,
    read_snapshot,
    remainder,
    split_step,
    theta_derivative,
    theta_points,
    transport,
    transport_factor,
    write_snapshot,
    x_average,
    x_points,
)
from kvicsek.influence import make_influence

from full_rhs import full_rhs


def full_complex_values(f):
    """Collocation values by one full complex inverse transform (the oracle)."""
    return np.fft.ifftn(f.coeffs * (-1.0) ** f.grid.l) * f.grid.size


def random_real_field(grid, rng, band_fraction=3):
    """Band-limited real random field via masked coefficients."""
    vals = rng.standard_normal(grid.shape)
    f = SpectralField.from_values(grid, vals)
    keep = (
        (np.abs(grid.k1)[:, None, None] <= grid.n_x1 // band_fraction)
        & (np.abs(grid.k2)[None, :, None] <= grid.n_x2 // band_fraction)
        & (np.abs(grid.l)[None, None, :] <= grid.n_theta // band_fraction)
    )
    c = np.where(keep, f.coeffs, 0.0)
    return SpectralField.from_values(grid, SpectralField(grid, c).values.real)


class TestGridAndTransforms:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TorusGrid(3, 8, 8)
        with pytest.raises(ValueError):
            TorusGrid(8, 8, 7)
        with pytest.raises(ValueError):
            TorusGrid(8, 2, 8)

    def test_collocation_points(self):
        g = TorusGrid(8, 8, 8)
        assert g.x1[0] == 0.0 and g.x1[-1] < TWO_PI
        assert g.theta[0] == -np.pi and g.theta[-1] < np.pi

    def test_roundtrip(self):
        grid = TorusGrid(16, 12, 20)
        rng = np.random.default_rng(0)
        f = random_real_field(grid, rng)
        v = f.values
        back = SpectralField.from_values(grid, v)
        err = np.max(np.abs(back.values - v))
        assert err < 1e-12 * np.max(np.abs(v))

    @pytest.mark.parametrize("shape", [(8, 8, 16), (16, 12, 20), (6, 10, 8)])
    def test_real_values_from_half_spectrum(self, shape):
        grid = TorusGrid(*shape)
        # unfiltered: the Nyquist rows carry content too
        f = SpectralField.from_values(grid, np.random.default_rng(sum(shape)).standard_normal(grid.shape))
        full = full_complex_values(f).real
        assert np.max(np.abs(f.values - full)) <= 1e-14 * np.max(np.abs(full))

    def test_single_mode_coefficients(self):
        grid = TorusGrid(8, 8, 16)
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.cos(x1 + 2 * th))
        # cos(x1 + 2 th) = (e^{i(x1+2th)} + c.c.)/2
        assert abs(f.coeffs[1, 0, 2] - 0.5) < 1e-14
        assert abs(f.coeffs[-1, 0, -2] - 0.5) < 1e-14
        others = f.coeffs.copy()
        others[1, 0, 2] = others[-1, 0, -2] = 0.0
        assert np.max(np.abs(others)) < 1e-14

    def test_conjugate_symmetry_flags_real(self):
        grid = TorusGrid(8, 8, 8)
        rng = np.random.default_rng(1)
        f = random_real_field(grid, rng)
        assert f.is_real()
        c = f.coeffs.copy()
        c[1, 2, 3] += 0.3
        assert not SpectralField(grid, c).is_real()


class TestBatchedSplitStep:
    """split_step on a stack of rows c[batch, n_theta] with kappa as a (batch, 1) column."""

    N = 64

    def rows(self):
        g = np.stack([perturbed_profile(self.N, 0.3, seed=s).coeffs for s in range(3)])
        return g, partial(_alignment, angular_kernel(self.N))

    def test_batch_is_byte_identical_to_per_row_calls(self):
        g, align = self.rows()
        kappa = np.array([[0.2], [1.0], [3.0]])
        batch = split_step(g, 0.0, 0.01, 0.1, align=align(kappa))
        for j, k in enumerate(kappa[:, 0].tolist()):
            row = split_step(g[j], 0.0, 0.01, 0.1, align=align(k))
            assert np.array_equal(batch[j], row)

    def test_guard_names_the_row_that_breaks_it(self):
        g, align = self.rows()
        kappa = np.array([[0.2], [3.0], [1.0]])
        _, sup = full_rhs(align(kappa), g)
        bound = (0.5 / (kappa * (self.N // 2) * sup + 1.0))[:, 0]
        assert bound[1] < min(bound[0], bound[2])
        dt = 0.5 * (bound[1] + min(bound[0], bound[2]))
        message = (
            f"in row 1: dt <= 0.5/(kappa (n_theta/2) sup + 1) = {bound[1]:.3g} "
            f"(kappa 3, alignment field max {sup[1, 0]:.3g})"
        )
        with pytest.raises(StepSizeError, match=re.escape(message)):
            split_step(g, 0.0, dt, 0.1, align=align(kappa))
        others = [0, 2]
        split_step(g[others], 0.0, dt, 0.1, align=align(kappa[others]))

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
    def test_bad_dt_rejected(self, dt):
        g, _ = self.rows()
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            split_step(g, 0.0, dt, 0.1)


class TestRunSchedule:
    """The one clock and cadence of ``config``, and ``evolve_rows``, the row loop of the 1-D layers."""

    def test_clock_is_a_chain_of_single_steps(self):
        t, chain = 0.25, [0.25]
        for _ in range(1000):
            t += 0.005
            chain.append(t)
        assert np.array_equal(step_times(0.25, 0.005, 1000), chain)

    def test_cadence_is_start_every_kth_and_last(self):
        assert np.flatnonzero(due(np.arange(11), 10, 4)).tolist() == [0, 4, 8, 10]
        assert due(7, 7, 3) and due(6, 7, 3) and not due(5, 7, 3)

    def test_every_layer_reports_one_clock(self):
        dt, n_steps, every = 0.1, 23, 5
        grid = TorusGrid(4, 4, 8)
        params = KineticParams(kappa=0.0, nu=0.1, grid=grid, dt=dt, t_end=n_steps * dt)
        f0 = SpectralField.from_values(grid, np.ones(grid.shape))
        kinetic = run_experiment(params, make_influence(grid), f0, sample_every=every)
        hom = evolve_homogeneous(constant_state(8, 0.0, 0.1), angular_kernel(8), dt, n_steps, every)
        s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 8), t=0.0, nu=0.1)
        _, mode = evolve_mode(s, dt, n_steps, sample_every=every)
        assert len(kinetic.t) == 6
        assert np.array_equal(kinetic.t, hom.t) and np.array_equal(kinetic.t, mode.t)
        assert kinetic.t[2] != 10 * dt  # ten steps accumulated, not t0 + 10 dt

    def test_rows_leave_the_stack_after_their_last_step(self):
        built, seen = [], []

        def stepper(rows):
            built.append(rows.tolist())
            return lambda c, t: c + 1.0

        def sample(rows, c, t):
            seen.append(rows.tolist())
            return c[:, 0] + 0.0, rows * 10

        c, series = evolve_rows(np.zeros((3, 4)), 0.0, 0.5, [4, 0, 2], [3, 1, 1], stepper, sample)
        assert c[:, 0].tolist() == [4.0, 0.0, 2.0]
        assert built == [[0, 2], [0]]
        assert seen == [[0, 1, 2], [2], [2], [0], [0]]
        # each row's (t, *columns) in time order: its start, every third step or every step, its last step
        assert [[col.tolist() for col in row] for row in series] == [
            [[0.0, 1.5, 2.0], [0.0, 3.0, 4.0], [0, 0, 0]],
            [[0.0], [0.0], [10]],
            [[0.0, 0.5, 1.0], [0.0, 1.0, 2.0], [20, 20, 20]],
        ]

    def test_a_stack_whose_rows_all_run_is_the_steppers_own_output(self):
        # while every row runs, the stack is neither copied into the loop nor written back
        c0 = np.zeros((2, 4))
        c0.flags.writeable = False
        seen, made = [], []

        def step(c, t):
            seen.append(c)
            made.append(c + 1.0)
            return made[-1]

        c, _ = evolve_rows(c0, 0.0, 0.5, 3, 1, lambda rows: step, lambda rows, c, t: (c[:, 0] + 0.0,))
        assert len(seen) == 3 and seen[0] is c0
        assert all(a is b for a, b in zip(seen[1:], made)) and c is made[-1]

    def test_snapshot_hook_runs_on_its_own_cadence(self):
        snaps = []

        def snapshot(step, rows, c, t):
            snaps.append((step, rows.tolist(), c[:, 0].tolist(), t))

        evolve_rows(
            np.zeros((3, 4)), 0.0, 0.5, [4, 0, 2], 1, lambda rows: lambda c, t: c + 1.0,
            lambda rows, c, t: (c[:, 0] + 0.0,), snapshot, 3,
        )
        # every third step and each row's last, after the step, at its time
        assert snaps == [(2, [2], [2.0], 1.0), (3, [0], [3.0], 1.5), (4, [0], [4.0], 2.0)]

    def test_snapshot_cadence_checked(self):
        with pytest.raises(ValueError, match="snapshot_every must be an integer >= 0"):
            evolve_rows(np.zeros((1, 4)), 0.0, 0.5, 2, 1, None, None, None, -1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dt", [np.inf, np.nan, -0.1, 0.0])
    @pytest.mark.parametrize("layer", ["mode", "homogeneous"])
    def test_bad_dt_rejected_before_any_table_is_cached(self, layer, dt):
        diffusion_factor.cache_clear()
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            if layer == "mode":
                s = ModeState(k=(1, 0), eta=AngularProfile.from_function(np.cos, 16), t=0.0, nu=0.1)
                evolve_mode(s, dt, 3)
            else:
                s = HomogeneousState(g=perturbed_profile(16, 0.2, seed=1), t=0.0, kappa=0.2, nu=0.1)
                evolve_homogeneous(s, angular_kernel(16), dt, 3)
        assert diffusion_factor.cache_info().currsize == 0


class TestAverageAndRemainder:
    def test_constant_field(self):
        grid = TorusGrid(8, 8, 8)
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.full_like(x1 + x2 + th, 1 / TWO_PI**3))
        avg = x_average(f)
        assert np.max(np.abs(avg.values.real - 1 / TWO_PI**3)) < 1e-15
        assert abs(f.mass - 1.0) < 1e-14

    def test_zero_mean_in_x(self):
        grid = TorusGrid(8, 8, 16)
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.cos(x1) * (1 + np.cos(th)))
        assert np.max(np.abs(x_average(f).coeffs)) < 1e-15
        # remainder leaves it untouched up to the (tiny) zero-mode round-off
        assert np.max(np.abs(remainder(f).coeffs - f.coeffs)) < 1e-15

    def test_average_matches_trapezoid_quadrature(self):
        grid = TorusGrid(16, 16, 12)
        rng = np.random.default_rng(2)
        f = random_real_field(grid, rng)
        vals = f.values.real
        quad = vals.mean(axis=(0, 1))  # uniform weights = trapezoid on the torus
        avg = x_average(f).values.real
        assert np.max(np.abs(avg - quad)) < 1e-12 * max(1.0, np.max(np.abs(quad)))

    def test_average_of_remainder_is_zero(self):
        grid = TorusGrid(8, 8, 8)
        rng = np.random.default_rng(3)
        f = random_real_field(grid, rng)
        r = remainder(f)
        assert np.max(np.abs(x_average(r).coeffs)) == 0.0
        const = SpectralField.from_function(grid, lambda x1, x2, th: 2.0 + 0 * x1 * x2 * th)
        assert np.max(np.abs(remainder(const).coeffs)) < 1e-14


class TestNorms:
    def test_constant_l2(self):
        grid = TorusGrid(8, 8, 8)
        c = 0.37
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.full_like(x1 + x2 + th, c))
        assert abs(norm(f, "L2") - c * TWO_PI**1.5) < 1e-12

    def test_single_mode_hm1_equals_l2(self):
        grid = TorusGrid(8, 8, 8)
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.cos(x1) + 0 * x2 * th)
        assert abs(norm(f, "Hm1_nonzero") - norm(f, "L2")) < 1e-12

    def test_parseval_vs_collocation(self):
        grid = TorusGrid(16, 16, 16)
        rng = np.random.default_rng(4)
        f = random_real_field(grid, rng)
        v = f.values.real
        quad = np.sqrt((TWO_PI**3 / grid.size) * np.sum(v**2))
        assert abs(norm(f, "L2") - quad) < 1e-11 * quad

    def test_l1_quadrature(self):
        grid = TorusGrid(8, 8, 8)
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.full_like(x1 + x2 + th, -0.5))
        assert abs(norm(f, "L1") - 0.5 * TWO_PI**3) < 1e-10

    def test_hs_requires_order_and_weights(self):
        grid = TorusGrid(8, 8, 8)
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.cos(x1) + 0 * x2 * th)
        with pytest.raises(ValueError):
            norm(f, "Hs")
        # single mode |k|=1: Hs = sqrt(2)^s * L2
        assert abs(norm(f, "Hs", s=1.0) - np.sqrt(2.0) * norm(f, "L2")) < 1e-12

    def test_hm1_rejects_zero_mode_content(self):
        grid = TorusGrid(8, 8, 8)
        f = SpectralField.from_function(grid, lambda x1, x2, th: 1.0 + np.cos(x1) + 0 * x2 * th)
        with pytest.raises(ValueError):
            norm(f, "Hm1_nonzero")
        norm(remainder(f), "Hm1_nonzero")  # fine on the remainder

    def test_unknown_kind(self):
        grid = TorusGrid(8, 8, 8)
        f = SpectralField.from_function(grid, lambda x1, x2, th: 0 * x1 * x2 * th + 1)
        with pytest.raises(ValueError):
            norm(f, "L7")


class TestConvolution:
    def test_constant_field_annihilated(self):
        # integral of Psi vanishes, so L[const] = 0
        grid = TorusGrid(8, 8, 16)
        kernels = make_influence(grid, phi="bump", sigma=0.7)
        f = SpectralField.from_function(grid, lambda x1, x2, th: np.full_like(x1 + x2 + th, 1 / TWO_PI**3))
        L = kernels.apply(f)
        assert np.max(np.abs(L.coeffs)) < 1e-15

    def test_uniform_phi_reduces_to_angular_convolution(self):
        grid = TorusGrid(8, 8, 32)
        kernels = make_influence(grid, phi="uniform")
        rng = np.random.default_rng(5)
        f = random_real_field(grid, rng)
        L = kernels.apply(f)
        # x-independent result equal to int Psi(w - theta) <f>(w) dw
        avg = x_average(f)
        psi_neg = np.conj(kernels.angular.psi.coeffs)
        expected = TWO_PI * psi_neg * avg.coeffs
        assert np.max(np.abs(L.coeffs[0, 0, :] - expected)) < 1e-13
        off = L.coeffs.copy()
        off[0, 0, :] = 0.0
        assert np.max(np.abs(off)) < 1e-13

    def test_matches_direct_quadrature(self):
        grid = TorusGrid(16, 16, 16)
        kernels = make_influence(grid, phi="bump", sigma=1.0)
        rng = np.random.default_rng(6)
        f = random_real_field(grid, rng)
        L = kernels.apply(f)

        n = 16
        idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        phi_mat = kernels.phi_values[idx[:, :, None, None], idx[None, None, :, :]]
        # theta grid starts at -pi: the difference eta - theta sits at index (j-i)+n/2
        psi_mat = kernels.angular.psi.values.real[(idx + n // 2) % n]
        w = (TWO_PI / n) ** 3
        tmp = np.tensordot(phi_mat, f.values.real, axes=([1, 3], [0, 1]))
        direct = w * np.tensordot(tmp, psi_mat, axes=([2], [1]))
        dev = np.max(np.abs(L.values.real - direct)) / np.max(np.abs(direct))
        assert dev < 1e-10

    def test_grid_mismatch(self):
        kernels = make_influence(TorusGrid(8, 8, 16))
        f = SpectralField.from_function(TorusGrid(8, 8, 8), lambda x1, x2, th: 0 * x1 * x2 * th + 1)
        with pytest.raises(ValueError):
            kernels.apply(f)


class TestAngularProfile:
    def test_roundtrip_and_mass(self):
        th = theta_points(32)
        g = AngularProfile.from_values(np.exp(np.cos(th)) / (TWO_PI * np.i0(1.0)))
        assert np.max(np.abs(g.values.real - np.exp(np.cos(th)) / (TWO_PI * np.i0(1.0)))) < 1e-12
        assert abs(g.mass - 1.0) < 1e-12

    def test_derivative_and_rotation(self):
        g = AngularProfile.from_function(np.cos, 32)
        d = g.derivative().values.real
        assert np.max(np.abs(d + np.sin(theta_points(32)))) < 1e-12
        rot = g.rotate(0.7).values.real
        assert np.max(np.abs(rot - np.cos(theta_points(32) + 0.7))) < 1e-12

    def test_eval_matches_values(self):
        rng = np.random.default_rng(7)
        c = np.zeros(16, dtype=complex)
        c[[0, 1, -1, 3, -3]] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        g = AngularProfile(c)
        th = theta_points(16)
        assert np.max(np.abs(g.eval(th) - g.values)) < 1e-12


def test_snapshot_roundtrip(tmp_path):
    grid = TorusGrid(8, 8, 12)
    rng = np.random.default_rng(8)
    f = random_real_field(grid, rng)
    path = tmp_path / "snap.bin"
    write_snapshot(path, f, time=1.5, parameters={"nu": 0.1})
    back, header = read_snapshot(path)
    assert header["time"] == 1.5
    assert header["parameters"]["nu"] == 0.1
    assert header["layout"] == "row-major"
    assert np.array_equal(back.coeffs, f.coeffs)
    assert back.grid == grid


def _corrupt_snapshot(path, edit_header=None, payload_edit=None):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    if edit_header:
        header.update(edit_header)
    if payload_edit:
        payload = payload_edit(payload)
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(payload)


@pytest.mark.parametrize(
    "edit_header,payload_edit,match",
    [
        (None, lambda p: p[:-16], "payload is 12272 bytes, expected 12288"),
        (None, lambda p: p + b"\0" * 8, "payload is 12296 bytes, expected 12288"),
        ({"dtype": "float32 little-endian"}, None, "dtype"),
        ({"order": "(l,k2,k1) complex interleaved"}, None, "order"),
    ],
    ids=["truncated", "extra-bytes", "wrong-dtype", "wrong-order"],
)
def test_snapshot_read_rejects_inconsistent_files(tmp_path, edit_header, payload_edit, match):
    grid = TorusGrid(8, 8, 12)
    path = tmp_path / "snap.bin"
    write_snapshot(path, random_real_field(grid, np.random.default_rng(9)))
    _corrupt_snapshot(path, edit_header, payload_edit)
    with pytest.raises(ValueError, match=match) as err:
        read_snapshot(path)
    assert str(path) in str(err.value)


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _with(**edit):
    return lambda h: {**h, **edit}


def _nan_payload(p):
    return np.full(len(p) // 8, np.nan).tobytes()


@pytest.mark.parametrize(
    "header_edit,raw_header,payload_edit,match",
    [
        (None, b"", None, "not JSON"),
        (None, b"snapshot", None, "not JSON"),
        (None, b"[8, 8, 12]", None, "header is list, expected an object"),
        (_without("n_theta"), None, None, "n_theta must be an even integer >= 4, got None"),
        (_with(n_x1="4"), None, None, "n_x1 must be an even integer >= 4, got '4'"),
        (_with(n_x2=4.0), None, None, "n_x2 must be an even integer >= 4, got 4.0"),
        (_with(n_theta=True), None, None, "n_theta must be an even integer >= 4, got True"),
        (_with(n_x1=5), None, None, "n_x1 must be an even integer >= 4, got 5"),
        (_without("time"), None, None, "time None, expected a finite number"),
        (_with(time=float("nan")), None, None, "time nan, expected a finite number"),
        (_with(time="0.5"), None, None, "time '0.5', expected a finite number"),
        (None, None, _nan_payload, "non-finite coefficients"),
    ],
    ids=[
        "empty", "not-json", "not-an-object", "missing-count", "string-count", "float-count",
        "bool-count", "odd-count", "missing-time", "nan-time", "string-time", "nan-payload",
    ],
)
def test_snapshot_read_checks_the_whole_header(tmp_path, header_edit, raw_header, payload_edit, match):
    path = tmp_path / "snap.bin"
    write_snapshot(path, random_real_field(TorusGrid(8, 8, 12), np.random.default_rng(9)), time=0.5)
    with open(path, "rb") as fh:
        header, payload = json.loads(fh.readline()), fh.read()
    line = raw_header if raw_header is not None else json.dumps((header_edit or dict)(header)).encode()
    payload = (payload_edit or bytes)(payload)
    path.write_bytes(line + b"\n" + payload if line else b"")
    with pytest.raises(ValueError, match=re.escape(match)) as err:
        read_snapshot(path)
    assert str(path) in str(err.value)


def test_band_product_is_the_truncated_convolution():
    # planes of shape (3,): f_l, l = 0..m, and a_j on a band with j = 0, against
    # the full sum over -m <= l - j <= m of the two conjugate-symmetric series
    m, band = 7, np.array([0, 2, 5, 7])
    rng = np.random.default_rng(3)
    f = rng.standard_normal((m + 1, 3)) + 1j * rng.standard_normal((m + 1, 3))
    a = rng.standard_normal((len(band), 3)) + 1j * rng.standard_normal((len(band), 3))
    f[0], a[0] = f[0].real, a[0].real
    series = {l: f[l] for l in range(m + 1)} | {-l: np.conj(f[l]) for l in range(1, m + 1)}
    modes = {j: aj for j, aj in zip(band.tolist(), a)} | {-j: np.conj(aj) for j, aj in zip(band.tolist(), a) if j}
    expected = [sum(aj * series[l - j] for j, aj in modes.items() if abs(l - j) <= m) for l in range(m + 1)]
    assert np.allclose(band_product(f, a, band), expected, rtol=1e-14, atol=1e-14)


def _sup_planes(kind, band, rng):
    """Planes a_j on one row of 96 points for band_sup, with magnitudes from 1e-8 to 1e3."""
    scale = 10.0 ** rng.uniform(-8, 3, size=(len(band), 96))
    a = scale * (rng.standard_normal(scale.shape) + 1j * rng.standard_normal(scale.shape))
    if kind == "ties":
        a[:, 40:60] = a[:, 7:8]  # the point of largest bound, and 20 copies
        a[:, :30] = a[:, 30:60]
    elif kind == "all-equal":
        a[:] = a[:, :1]
    elif kind == "zeros":
        a[:, ::2] = 0.0
        a[:, 1::4] = -0.0
        a[:, 3::4] = complex(-0.0, -0.0)
    elif kind == "all-zero":
        a[:] = complex(-0.0, 0.0)
    elif kind == "mean-first":
        # largest bound at point 0 (20) but its series is the mean alone,
        # counted once: the max, 12, sits at point 1
        a *= 1e-6
        a[:, :2] = 0.0
        a[0, 0], a[-1, 1] = 10.0, 6.0
    elif kind in ("nan", "inf", "-inf", "inf-and-nan"):
        a[-1, 5] = {"nan": np.nan, "inf": np.inf, "-inf": complex(0.0, -np.inf), "inf-and-nan": np.inf}[kind]
        if kind == "inf-and-nan":
            a[0, 90] = complex(1.0, np.nan)
    return a


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("band", [[1], [1, 2, 3], [0, 1, 16], list(range(1, 22))], ids=str)
@pytest.mark.parametrize(
    "kind", ["random", "ties", "all-equal", "zeros", "all-zero", "mean-first", "nan", "inf", "-inf", "inf-and-nan"]
)
def test_band_sup_over_many_points_is_the_full_max_bit_for_bit(band, kind):
    # one row of points transforms only where the max can be; one point per
    # row (a[..., None]) transforms every point
    band = np.array(band)
    rng = np.random.default_rng(len(band) + sum(map(ord, kind)))
    a = _sup_planes(kind, band, rng)
    pruned = band_sup(a, band, 64)
    full = np.max(band_sup(a[..., None], band, 64))
    assert pruned.shape == (1,)
    assert pruned.view(np.uint64)[0] == full.view(np.uint64) or (np.isnan(pruned[0]) and np.isnan(full))
    assert np.isfinite(full) == (kind not in ("nan", "inf", "-inf", "inf-and-nan"))


def _mirror_oracle(src, axes, out_shape):
    """conj(src[-i mod n]) on each of ``axes`` by fancy indexing, for the first out_shape entries."""
    index = [
        (-np.arange(d)) % n if ax in axes else np.arange(d) for ax, (n, d) in enumerate(zip(src.shape, out_shape))
    ]
    return np.conj(src[np.ix_(*index)])


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
@pytest.mark.parametrize(
    "shape, axes, out_shape",
    [
        ((7,), (0,), (7,)),
        ((8,), (0,), (3,)),
        ((6, 5), (0, 1), (6, 5)),
        ((6, 5), (1,), (6, 2)),
        ((8, 9, 10), (0, 2), (8, 9, 4)),
        ((5, 8, 7), (0, 1, 2), (5, 8, 7)),
        ((5, 8, 7), (0, 1, 2), (3, 1, 6)),
    ],
)
def test_mirror_matches_the_fancy_index_oracle(dtype, shape, axes, out_shape):
    rng = np.random.default_rng(sum(shape))
    src = rng.standard_normal(shape).astype(dtype)
    if dtype is np.complex128:
        src += 1j * rng.standard_normal(shape)
    out = np.full(out_shape, np.nan, dtype=dtype)
    assert mirror(src, axes, out) is out
    assert np.array_equal(out, _mirror_oracle(src, axes, out_shape))


def test_grid_caches_are_read_only():
    grid = TorusGrid(8, 12, 16)
    for arr in (
        grid.dealias_mask,
        theta_derivative(16),
        diffusion_factor(16, 0.1, 0.01),
        dealias_keep(16),
        transport_factor((1,), (2,), 16, 0.005),
    ):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


# ---------------------------------------------------------------------------
# Step tables: spectral's one table per stack against tables built one row,
# one grid or one call at a time, compared bit for bit
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _outer_transport_table(k1, k2, n, shift):
    """exp(-i shift p(phi).k) on the outer table (k1, k2, phi_j) of two 1-D wavenumber lists."""
    k1, k2, phi = np.array(k1, np.float64), np.array(k2, np.float64), x_points(n)
    pk = k1[:, None, None] * np.cos(phi) + k2[None, :, None] * np.sin(phi)
    return np.exp(-1j * shift * pk)


def _row_diffusion(n, nu, dt):
    l = np.fft.fftfreq(n, d=1.0 / n).astype(np.float64)
    return np.exp(-nu * l**2 * dt)


_SPEEDS = [speed_constant(), speed_decaying(0.5), speed_constant(0.7), speed_decaying(2.0)]


def _mixed_stack(n=32):
    """Rows with k2 != 0 and negative k, four nu and a mix of constant and decaying speeds."""
    eta = AngularProfile.from_function(lambda th: np.cos(th) + 0.4 * np.sin(3 * th), n)
    ks = [(1, 0), (0, 1), (2, -3), (-1, 2), (3, 3), (-4, -1), (1, 1), (5, -2)]
    return [
        ModeState(k=k, eta=eta, t=0.3, nu=(1e-1, 1e-2, 3e-3, 1e-4)[j % 4], v=_SPEEDS[j % 4])
        for j, k in enumerate(ks)
    ]


def test_stack_transport_table_is_the_per_row_tables_bit_for_bit():
    states, n, dt = _mixed_stack(), 32, 0.02
    for t_mid in (0.3 + 0.25 * dt, 0.3 + 0.75 * dt, 7.1):
        shifts = tuple(s.v(t_mid) * (0.5 * dt) for s in states)
        k1, k2 = zip(*(s.k for s in states))
        rows = np.array([_outer_transport_table((s.k[0],), (s.k[1],), n, h)[0, 0] for s, h in zip(states, shifts)])
        assert _same_bits(transport_factor(k1, k2, n, shifts), rows)


def test_kinetic_transport_table_is_the_outer_table_bit_for_bit():
    for grid in (TorusGrid(8, 12, 32), TorusGrid(6, 4, 16)):
        k1, k2 = grid.half_wavenumbers
        assert all(len(k) == 1 for k in k1) and len(k2) == grid.n_x2 // 2 + 1
        assert k1[grid.n_x1 // 2] == (0,) and k2[-1] == 0
        ref_k1, ref_k2 = grid.k1.tolist(), grid.k2[: grid.n_x2 // 2 + 1].tolist()
        ref_k1[grid.n_x1 // 2] = ref_k2[-1] = 0
        assert [k for (k,) in k1] == ref_k1 and list(k2) == ref_k2
        for shift in (0.005, speed_decaying(0.5)(0.37) * 0.025, -1.25):
            table = transport_factor(k1, k2, grid.n_theta, shift)
            assert table.shape == (grid.n_x1, grid.n_x2 // 2 + 1, grid.n_theta)
            assert _same_bits(table, _outer_transport_table(ref_k1, ref_k2, grid.n_theta, shift))


def test_stack_diffusion_table_is_the_per_row_tables_bit_for_bit():
    nus = (1e-1, 1e-2, 3e-3, 1e-4, 1e-2)
    for n, dt in ((16, 0.01), (64, 0.0371)):
        assert _same_bits(diffusion_factor(n, nus, dt), np.array([_row_diffusion(n, nu, dt) for nu in nus]))
        assert _same_bits(diffusion_factor(n, 3e-3, dt), _row_diffusion(n, 3e-3, dt))


def test_mode_step_reads_the_per_row_tables_bit_for_bit():
    # the per-mode step on one stack transport table equals split_step on
    # transport tables built row by row (the diffusion rows: the test above)
    states, n, dt = _mixed_stack(), 32, 0.02

    def advect(c, t_mid, h):
        rows = [_outer_transport_table((s.k[0],), (s.k[1],), n, s.v(t_mid) * h)[0, 0] for s in states]
        return transport(c, np.array(rows))

    c = ref = np.stack([s.eta.coeffs for s in states])
    step = _mode_step(states, dt)
    for t in step_times(0.3, dt, 6)[:-1]:
        c, ref = step(c, t), split_step(ref, t, dt, tuple(s.nu for s in states), advect=advect)
    assert _same_bits(c, ref)


@pytest.mark.parametrize("s", [1.0, -0.5, 2.5])
def test_sobolev_norms_match_the_full_weight_tables_bit_for_bit(s):
    grid = TorusGrid(8, 12, 16)
    f = random_real_field(grid, np.random.default_rng(17), band_fraction=2)
    ksq = (grid.k1[:, None, None] ** 2 + grid.k2[None, :, None] ** 2 + grid.l[None, None, :] ** 2).astype(np.float64)
    hm1 = np.zeros(grid.shape)
    nonzero = np.ones(grid.shape, dtype=bool)
    nonzero[0, 0, :] = False
    hm1[nonzero] = 1.0 / ksq[nonzero]
    hs = float(np.sqrt(TWO_PI**3 * np.sum((1.0 + ksq) ** s * np.abs(f.coeffs) ** 2)))
    r = remainder(f)
    neg = float(np.sqrt(TWO_PI**3 * np.sum(hm1 * np.abs(r.coeffs) ** 2)))
    assert _same_bits(np.float64(norm(f, "Hs", s)), np.float64(hs))
    assert _same_bits(np.float64(norm(r, "Hm1_nonzero")), np.float64(neg))


@pytest.mark.parametrize("band", [[1], [1, 2, 3], [0, 1, 16], list(range(1, 22))], ids=str)
def test_sup_transform_is_the_direct_sum_within_the_rounding_margin(band):
    # _reachable's value found, band_sup's transform at one point times n,
    # is the series summed directly, far inside SUP_ROUNDING of its bound
    band = np.array(band)
    rng = np.random.default_rng(len(band))
    for n in (64, 128):
        a = _sup_planes("random", band, rng)
        weights = np.where(band == 0, 1.0, 2.0)[:, None, None]
        angles = np.exp((TWO_PI * 1j / n) * np.multiply.outer(band, np.arange(n)))[:, None, :]
        direct = np.abs((weights * a[..., None] * angles).sum(axis=0).real).max(axis=-1)
        found = np.array([_series(a[:, [p]], band, n).max() * n for p in range(a.shape[1])])
        assert np.all(np.abs(found - direct) <= 1e-3 * SUP_ROUNDING * 2.0 * np.abs(a).sum(axis=0))


def test_guard_sup_is_two_transforms_per_heun_step_over_a_kinetic_run(monkeypatch):
    # the sup builds no table: one irfft at the point of largest bound and
    # one at the points that can reach it, at each of a step's two Heun steps
    grid = TorusGrid(8, 8, 32)
    params = KineticParams(kappa=0.1, nu=0.1, grid=grid, dt=0.01, t_end=0.05)
    f0 = SpectralField.from_function(grid, lambda x1, x2, th: (1.0 + 0.3 * np.cos(x1 + th)) / TWO_PI**3)
    calls, irfft = [], np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: calls.append(1) or irfft(*args, **kwargs))
    for psi in ("one", "cos_squared"):
        kernels = make_influence(grid, psi_factor=psi)
        calls.clear()
        run_experiment(params, kernels, f0, sample_every=5)
        assert len(calls) == 2 * 2 * 5
