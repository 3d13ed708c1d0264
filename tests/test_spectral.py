"""Spectral core: transforms, averages, norms, convolution, snapshots."""

import json
import re
from functools import partial

import numpy as np
import pytest

from kvicsek.config import due, step_times
from kvicsek.errors import StepSizeError
from kvicsek.homogeneous import HomogeneousState, _alignment_rhs, constant_state, evolve_homogeneous
from kvicsek.influence import angular_kernel
from kvicsek.kinetic import KineticParams, run_experiment
from kvicsek.linear import ModeState, evolve_mode
from kvicsek.presets import perturbed_profile
from kvicsek.spectral import (
    TWO_PI,
    AngularProfile,
    SpectralField,
    TorusGrid,
    band_product,
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
    transport_factor,
    write_snapshot,
    x_average,
)
from kvicsek.influence import make_influence


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
        rhs = partial(_alignment_rhs, kernel=angular_kernel(self.N))
        return g, rhs

    def test_batch_is_byte_identical_to_per_row_calls(self):
        g, rhs = self.rows()
        kappa = np.array([[0.2], [1.0], [3.0]])
        heat = diffusion_factor(self.N, 0.1, 0.01)
        batch = split_step(g, 0.0, 0.01, heat, rhs=partial(rhs, kappa=kappa), kappa=kappa)
        for j, k in enumerate(kappa[:, 0].tolist()):
            row = split_step(g[j], 0.0, 0.01, heat, rhs=partial(rhs, kappa=k), kappa=k)
            assert np.array_equal(batch[j], row)

    def test_guard_names_the_row_that_breaks_it(self):
        g, rhs = self.rows()
        kappa = np.array([[0.2], [3.0], [1.0]])
        _, sup = rhs(g, kappa=kappa)
        bound = (0.5 / (kappa * (self.N // 2) * sup + 1.0))[:, 0]
        assert bound[1] < min(bound[0], bound[2])
        dt = 0.5 * (bound[1] + min(bound[0], bound[2]))
        heat = diffusion_factor(self.N, 0.1, dt)
        message = f"in row 1 (alignment field max {sup[1, 0]:.3g})"
        with pytest.raises(StepSizeError, match=re.escape(message)):
            split_step(g, 0.0, dt, heat, rhs=partial(rhs, kappa=kappa), kappa=kappa)
        others = [0, 2]
        split_step(g[others], 0.0, dt, heat, rhs=partial(rhs, kappa=kappa[others]), kappa=kappa[others])

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
    def test_bad_dt_rejected(self, dt):
        g, _ = self.rows()
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            split_step(g, 0.0, dt, np.ones(self.N))


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

        c = evolve_rows(
            np.zeros((3, 4)), 0.0, 0.5, [4, 0, 2], [3, 1, 1], stepper,
            lambda rows, c, t: seen.append((rows.tolist(), c[:, 0].tolist(), float(t))),
        )
        assert c[:, 0].tolist() == [4.0, 0.0, 2.0]
        assert built == [[0, 2], [0]]
        assert seen == [
            ([0, 1, 2], [0.0, 0.0, 0.0], 0.0),
            ([2], [1.0], 0.5),
            ([2], [2.0], 1.0),
            ([0], [3.0], 1.5),
            ([0], [4.0], 2.0),
        ]

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
        grid.k_squared,
        grid.hm1_weights,
        theta_derivative(16),
        diffusion_factor(16, 0.1, 0.01),
        dealias_keep(16),
        transport_factor((1,), (2,), 16, 0.005),
    ):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
