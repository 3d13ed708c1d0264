"""Agent SDE: drift forms, noise statistics, density estimation."""

import copy
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ive
from scipy.stats import chi2

import kvicsek
from kvicsek.agents import (
    GEMM_MAX_WORK,
    MIN_BLOCK_ROWS,
    AgentEnsemble,
    _agent_blocks,
    _characteristic,
    _phases,
    _make_rng,
    angular_drift,
    em_step,
    empirical_density,
    ensemble_from_profile,
    order_parameter,
    projection_drift_check,
    sample_angles,
)
from kvicsek.errors import StepSizeError
from kvicsek.influence import AngularKernel, InfluencePair, angular_kernel, make_influence
from kvicsek.linear import speed_constant, speed_decaying, wrap_angle
from kvicsek.spectral import TWO_PI, AngularProfile, TorusGrid, norm, remainder, theta_points

from oracles import ensemble_from_density

_PAIRWISE_CHUNK = 512


def _drift_pairwise(e):
    """The O(N^2) pairwise sum (kappa/N) sum_j Phi(x^j - x^i) Psi(theta^j - theta^i): the oracle."""
    psi = e.influence.angular.psi
    drift = np.empty(e.n)
    for start in range(0, e.n, _PAIRWISE_CHUNK):
        stop = min(start + _PAIRWISE_CHUNK, e.n)
        dx1 = e.x[None, :, 0] - e.x[start:stop, None, 0]
        dx2 = e.x[None, :, 1] - e.x[start:stop, None, 1]
        dth = e.theta[None, :] - e.theta[start:stop, None]
        w = e.influence.phi_fn(dx1, dx2) * psi.eval(dth).real
        drift[start:stop] = w.sum(axis=1)
    return e.kappa / e.n * drift


@pytest.fixture(scope="module")
def uniform_influence():
    return make_influence(TorusGrid(8, 8, 64), phi="uniform")


@pytest.fixture(scope="module")
def bump_influence():
    return make_influence(TorusGrid(8, 8, 64), phi="bump", sigma=0.8, psi_factor="cos_squared")


def make_ensemble(rng, n, influence, kappa=0.5, nu=0.1, seed=0):
    return AgentEnsemble(
        x=rng.random((n, 2)) * TWO_PI,
        theta=rng.uniform(-np.pi, np.pi, n),
        kappa=kappa,
        nu=nu,
        influence=influence,
        rng=_make_rng(seed),
    )


class TestEmStep:
    def test_free_streaming_exact(self, uniform_influence):
        e = AgentEnsemble(
            x=np.array([[1.0, 2.0], [3.0, 4.0]]),
            theta=np.array([0.3, -1.2]),
            kappa=0.0,
            nu=0.0,
            influence=uniform_influence,
            rng=_make_rng(0),
        )
        e2 = em_step(e, 0.1, noise=np.zeros(2))
        expected = e.x + 0.1 * np.column_stack([np.cos(e.theta), np.sin(e.theta)])
        assert np.max(np.abs(e2.x - expected)) < 1e-15
        assert np.max(np.abs(e2.theta - e.theta)) < 1e-15  # wrap costs one ulp

    def test_two_agent_closed_form(self, uniform_influence):
        # relative angle relaxes at rate kappa/(2pi)^2 for uniform Phi, Psi=sin
        kappa = 1.0
        e = AgentEnsemble(
            x=np.array([[0.5, 0.5], [4.0, 2.0]]),
            theta=np.array([0.0, 0.1]),
            kappa=kappa,
            nu=0.0,
            influence=uniform_influence,
            rng=_make_rng(1),
        )
        dt, horizon = 1e-3, 5.0
        for _ in range(int(horizon / dt)):
            e = em_step(e, dt, noise=np.zeros(2))
        u = e.theta[1] - e.theta[0]
        u_exact = 0.1 * np.exp(-kappa / TWO_PI**2 * horizon)
        assert u == pytest.approx(u_exact, rel=0.01)

    def test_pure_brownian_variance(self, uniform_influence):
        n, nu, dt, steps = 10000, 0.05, 0.01, 400
        e = AgentEnsemble(
            x=np.zeros((n, 2)),
            theta=np.zeros(n),
            kappa=0.0,
            nu=nu,
            influence=uniform_influence,
            rng=_make_rng(2),
        )
        disp = np.zeros(n)
        prev = e.theta
        for _ in range(steps):
            e = em_step(e, dt)
            d = np.mod(e.theta - prev + np.pi, TWO_PI) - np.pi
            disp += d
            prev = e.theta
        t = dt * steps
        var = np.var(disp)
        assert var == pytest.approx(2 * nu * t, rel=0.05)
        # chi-square test at 5%: sum (dx_i)^2/(2 nu t) ~ chi2_n
        stat = np.sum(disp**2) / (2 * nu * t)
        assert chi2.ppf(0.025, n) < stat < chi2.ppf(0.975, n)

    def test_guard(self, uniform_influence):
        rng = np.random.default_rng(0)
        e = make_ensemble(rng, 10, uniform_influence, kappa=1.0)
        with pytest.raises(StepSizeError):
            em_step(e, 1e4)

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_bad_dt(self, uniform_influence, dt):
        e = make_ensemble(np.random.default_rng(0), 10, uniform_influence, kappa=1.0)
        with pytest.raises(ValueError, match="dt must be finite and > 0"):
            em_step(e, dt)

    def test_wrapping(self, uniform_influence):
        e = AgentEnsemble(
            x=np.array([[TWO_PI - 0.01, 0.01]]),
            theta=np.array([np.pi - 0.005]),
            kappa=0.0,
            nu=0.0,
            influence=uniform_influence,
            rng=_make_rng(3),
        )
        e2 = em_step(e, 1.0, noise=np.zeros(1))
        assert 0.0 <= e2.x[0, 0] < TWO_PI
        assert -np.pi <= e2.theta[0] < np.pi

    @pytest.mark.parametrize(
        "noise, shape",
        [(np.zeros(1), "(1,)"), (np.zeros((10, 1)), "(10, 1)"), (np.zeros(11), "(11,)"),
         (np.full(10, np.nan), "(10,)"), (np.r_[np.zeros(9), np.inf], "(10,)")],
    )
    def test_rejects_bad_noise(self, uniform_influence, noise, shape):
        # a (1,) draw would broadcast to every agent, a NaN one would poison every heading
        e = make_ensemble(np.random.default_rng(0), 10, uniform_influence)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            em_step(e, 0.01, noise=noise)


    def test_injected_noise_comes_back_unchanged(self, bump_influence):
        # the updates run in place in fresh buffers: bit for bit the one-expression
        # form, and the caller's noise array is never written
        e = make_ensemble(np.random.default_rng(4), 300, bump_influence, kappa=0.7)
        e = replace(e, v=speed_decaying(0.3), t=0.4)
        noise = np.random.default_rng(5).standard_normal(300)
        kept = noise.copy()
        e2 = em_step(e, 0.01, noise=noise)
        assert np.array_equal(noise.view(np.int64), kept.view(np.int64))
        velocity = e.heading.view(np.float64).reshape(e.n, 2)
        x = wrap_angle(e.x + e.v(e.t) * 0.01 * velocity, 0.0)
        theta = wrap_angle(e.theta + angular_drift(e) * 0.01 + np.sqrt(2.0 * e.nu * 0.01) * kept)
        assert np.array_equal(e2.x, x) and np.array_equal(e2.theta, theta)


class TestDrift:
    def test_fast_path_matches_pairwise(self, uniform_influence):
        rng = np.random.default_rng(5)
        e = make_ensemble(rng, 257, uniform_influence, kappa=0.7)
        d_pair = _drift_pairwise(e)
        d_fast = angular_drift(e)
        assert np.max(np.abs(d_pair - d_fast)) < 1e-14

    def test_exchangeability_uniform_phi(self, uniform_influence):
        rng = np.random.default_rng(6)
        n = 64
        e = make_ensemble(rng, n, uniform_influence, kappa=0.8, nu=0.05)
        perm = rng.permutation(n)
        ep = AgentEnsemble(
            x=e.x[perm],
            theta=e.theta[perm],
            kappa=e.kappa,
            nu=e.nu,
            influence=e.influence,
            rng=_make_rng(99),
        )
        rng_noise = np.random.default_rng(123)
        a, b = e, ep
        for _ in range(20):
            xi = rng_noise.standard_normal(n)
            a = em_step(a, 0.05, noise=xi)
            b = em_step(b, 0.05, noise=xi[perm])
        # permuting agents together with their noise relabels trajectories
        # (1e-12: the mean-field sum order changes, float addition is not associative)
        assert np.max(np.abs(a.x[perm] - b.x)) < 1e-12
        assert np.max(np.abs(a.theta[perm] - b.theta)) < 1e-12

    def test_seeded_determinism(self, uniform_influence):
        runs = []
        for _ in range(2):
            e = ensemble_from_profile(
                128, AngularProfile.from_values(np.full(64, 1 / TWO_PI)), uniform_influence,
                kappa=0.5, nu=0.1, seed=11,
            )
            for _ in range(10):
                e = em_step(e, 0.02)
            runs.append((e.x.copy(), e.theta.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_stepping_does_not_advance_the_ensemble_rng(self, bump_influence):
        e = make_ensemble(np.random.default_rng(12), 64, bump_influence, seed=13)
        before = copy.deepcopy(e.rng)
        a, b = em_step(e, 0.02), em_step(e, 0.02)
        assert np.array_equal(e.rng.random(4), before.random(4))
        assert np.array_equal(a.theta, b.theta) and np.array_equal(a.x, b.x)
        # the result carries the advanced stream, one value per ensemble
        assert np.array_equal(em_step(a, 0.02).theta, em_step(b, 0.02).theta)


def _dense_factor(th):
    return 1.0 / (1.25 - np.cos(th))


class TestFourierDrift:
    """The production Fourier-sum drift against the pairwise oracle."""

    @pytest.mark.parametrize("n", [1, 257])
    @pytest.mark.parametrize("psi_factor", ["one", "cos_squared", _dense_factor])
    @pytest.mark.parametrize("phi,sigma", [("bump", 1.0), ("bump", 0.5), ("bump", 0.3), ("uniform", 1.0)])
    def test_matches_pairwise(self, phi, sigma, psi_factor, n):
        influence = make_influence(TorusGrid(8, 8, 64), phi=phi, sigma=sigma, psi_factor=psi_factor)
        if phi == "uniform":
            assert influence.phi_series[0].tolist() == [0]  # K = 0
        e = make_ensemble(np.random.default_rng(int(100 * sigma) + n), n, influence, kappa=0.7)
        d_pair = _drift_pairwise(e)
        # one agent exerts nothing on itself (Psi(0) = 0): scale by one pull's bound
        scale = max(np.max(np.abs(d_pair)), e.kappa * influence.phi_max * influence.psi_max / n)
        assert np.max(np.abs(angular_drift(e) - d_pair)) <= 1e-13 * scale

    def test_matches_pairwise_with_mean_and_nyquist_modes(self, bump_influence):
        # Psi = sin * psi never has them; a bare kernel checks the l = 0 and
        # Nyquist weights, which have no partner in the l >= 0 half
        th = theta_points(64)
        prof = AngularProfile.from_values(0.3 + np.sin(th) + 0.5 * np.cos(32 * th))
        influence = InfluencePair(
            grid=bump_influence.grid,
            phi_fn=bump_influence.phi_fn,
            angular=AngularKernel(psi=prof, psi_factor=prof, primitive=prof),
        )
        assert influence.angular.psi_support.tolist() == [0, 1, 32]
        e = make_ensemble(np.random.default_rng(3), 257, influence, kappa=0.7)
        d_pair = _drift_pairwise(e)
        assert np.max(np.abs(angular_drift(e) - d_pair)) <= 1e-13 * np.max(np.abs(d_pair))

    def test_series_cutoff_of_the_bump(self):
        grid = TorusGrid(8, 8, 16)
        cutoffs = [len(make_influence(grid, sigma=s).phi_series[0]) // 2 for s in (1.0, 0.5, 0.3)]
        assert cutoffs == [14, 21, 30]

    def test_discontinuous_phi_rejected(self):
        box = lambda x1, x2: ((np.cos(x1) > 0.5) & (np.cos(x2) > 0.5)).astype(float)
        grid = TorusGrid(8, 8, 16)
        with pytest.raises(ValueError, match="smooth"):
            make_influence(grid, phi=box)
        # the constructor skips that check; the drift still finds no series
        influence = InfluencePair(grid=grid, phi_fn=box, angular=angular_kernel(16))
        e = make_ensemble(np.random.default_rng(1), 8, influence)
        with pytest.raises(ValueError, match="smooth"):
            angular_drift(e)

    def test_phi_series_read_only(self, bump_influence):
        ks, phihat = bump_influence.phi_series
        for a in (ks, phihat):
            with pytest.raises(ValueError):
                a[0] = 0


# The bench `agents` inputs; prints the CPU ticks of every thread but the main
# one (utime + stime, fields 14-15 of /proc/self/task/<tid>/stat) over 20 calls.
# OpenBLAS's pool threads spin for a while after they start before they sleep,
# so the baseline is read once their ticks stop rising (within about 2 s).
_THREAD_PROBE = """
import os, time
from kvicsek import agents, influence, presets, spectral

def other_thread_ticks():
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
    return ticks

kernels = influence.make_influence(spectral.TorusGrid(8, 8, 64), phi="bump", sigma=1.0)
e = agents.ensemble_from_profile(1024, presets.perturbed_profile(64, 0.2, 0), kernels, kappa=1.0, nu=0.1)
kde_grid = spectral.TorusGrid(16, 16, 32)
agents.angular_drift(e), agents.empirical_density(e, kde_grid)
before = other_thread_ticks()
deadline = time.monotonic() + 2.0
while time.monotonic() < deadline:
    time.sleep(0.1)
    settled, before = before, other_thread_ticks()
    if before == settled:
        break
for _ in range(20):
    agents.angular_drift(e), agents.empirical_density(e, kde_grid)
print(other_thread_ticks() - before)
"""


class TestAgentBlocks:
    """The agent-axis GEMMs stay within OpenBLAS's single-thread bound where it pays."""

    @pytest.mark.parametrize("n", [1, 77, 78, 1024, 8000])
    def test_blocks_tile_the_agents_and_match_the_unblocked_product(self, n, bump_influence, monkeypatch):
        ks = bump_influence.phi_series[0]
        width = len(ks) ** 2  # 31 x 31 at K = 15: blocks of 68 agents
        blocks = _agent_blocks(n, width)
        assert np.array_equal(np.concatenate([np.arange(n)[block] for block in blocks]), np.arange(n))
        assert all((block.stop - block.start) * width <= GEMM_MAX_WORK for block in blocks)
        e = make_ensemble(np.random.default_rng(n), n, bump_influence)
        e1, e2, e3 = _phases(e.x[:, 0], ks), _phases(e.x[:, 1], ks), _phases(e.theta, np.arange(3))
        blocked = _characteristic(e1, e2, e3), angular_drift(e)
        monkeypatch.setattr("kvicsek.agents.GEMM_MAX_WORK", 2**62)  # one block of all agents
        assert len(_agent_blocks(n, width)) == 1
        for b, full in zip(blocked, (_characteristic(e1, e2, e3), angular_drift(e))):
            assert b.shape == full.shape
            assert np.max(np.abs(b - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize(
        "side, blocked", [(16, True), (29, True), (31, True), (32, False), (33, False), (257, False)]
    )
    def test_wide_products_are_left_whole(self, side, blocked):
        # below MIN_BLOCK_ROWS agents per block the product goes whole to the pool, where the
        # drift at K >= 16 ran faster; 257 x 257 alone is above GEMM_MAX_WORK
        blocks = _agent_blocks(8000, side * side)
        if blocked:
            assert min(block.stop - block.start for block in blocks[:-1]) >= MIN_BLOCK_ROWS
            assert max(block.stop - block.start for block in blocks) * side * side <= GEMM_MAX_WORK
        else:
            assert blocks == [slice(0, 8000)]

    def test_drift_and_density_stay_on_the_calling_thread(self):
        if not Path(f"/proc/self/task/{threading.get_native_id()}/stat").exists():
            pytest.skip("no per-thread CPU times in /proc on this platform")
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        if "openblas" not in str(blas.get("name", "")).lower():
            pytest.skip(f"the threading bound was measured for OpenBLAS, numpy uses {blas.get('name')}")
        src = str(Path(kvicsek.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert int(out.stdout) <= 1, (
            f"the pool ran {out.stdout.strip()} ticks; GEMM_MAX_WORK was measured on OpenBLAS 0.3.31, "
            f"numpy uses {blas.get('name')} {blas.get('version')}"
        )


class TestProjectionForm:
    def test_aligned_agents_have_zero_drift(self, bump_influence):
        rng = np.random.default_rng(7)
        n = 50
        e = AgentEnsemble(
            x=rng.random((n, 2)) * TWO_PI,
            theta=np.full(n, 0.77),
            kappa=0.9,
            nu=0.1,
            influence=bump_influence,
            rng=_make_rng(4),
        )
        assert np.max(np.abs(angular_drift(e))) < 1e-14
        assert projection_drift_check(e) < 1e-14

    def test_hundred_random_configurations(self, bump_influence):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(100):
            e = make_ensemble(rng, 100, bump_influence, kappa=0.9, seed=5)
            worst = max(worst, projection_drift_check(e))
        assert worst < 1e-12

    def test_pair_blocks_bound_the_memory(self, bump_influence):
        # the O(N^2) pair sums run in blocks of a fixed number of pairs: 512-row
        # blocks held about 100 MiB of temporaries at N = 2048
        e = make_ensemble(np.random.default_rng(9), 2048, bump_influence, kappa=0.9, seed=5)
        tracemalloc.start()
        try:
            assert projection_drift_check(e) < 1e-12
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_antipodal_pair_glides_past(self, uniform_influence):
        # Psi(pi) = sin(pi) psi(pi) = 0: opposite headings exert no influence
        e = AgentEnsemble(
            x=np.array([[1.0, 1.0], [1.1, 1.0]]),
            theta=np.array([0.25, 0.25 + np.pi]),
            kappa=1.0,
            nu=0.0,
            influence=uniform_influence,
            rng=_make_rng(5),
        )
        assert np.max(np.abs(angular_drift(e))) < 1e-12


class TestOrderParameter:
    def test_aligned(self, uniform_influence):
        e = AgentEnsemble(
            x=np.zeros((5, 2)),
            theta=np.full(5, 0.4),
            kappa=0.0,
            nu=0.1,
            influence=uniform_influence,
            rng=_make_rng(6),
        )
        m = order_parameter(e)
        assert m == pytest.approx(np.exp(-0.4j))

    def test_uniform_is_clt_small(self, uniform_influence):
        rng = np.random.default_rng(10)
        n = 40000
        e = make_ensemble(rng, n, uniform_influence)
        assert abs(order_parameter(e)) < 5.0 / np.sqrt(n)

    def test_long_run_reaches_compatibility_root(self, uniform_influence):
        # effective ratio 4 (uniform Phi carries the (2pi)^-2 torus factor)
        from kvicsek.homogeneous import solve_compatibility
        from kvicsek.presets import perturbed_profile

        nu = 0.1
        r2 = solve_compatibility(4.0).r2
        g0 = perturbed_profile(64, 0.3, seed=1)
        e = ensemble_from_profile(
            4000, g0, uniform_influence, kappa=4.0 * nu * TWO_PI**2, nu=nu, seed=21
        )
        for _ in range(int(60.0 / 0.05)):
            e = em_step(e, 0.05)
        assert abs(abs(order_parameter(e)) - r2) < 0.05


class TestHeading:
    """One exp(i theta) per ensemble value, shared by the step, the drift and the order parameter."""

    def test_cached_and_read_only(self, uniform_influence):
        e = make_ensemble(np.random.default_rng(13), 64, uniform_influence)
        assert e.heading is e.heading
        assert np.array_equal(e.heading, np.exp(1j * e.theta))
        with pytest.raises(ValueError):
            e.heading[0] = 1.0

    def test_replace_gets_a_fresh_heading(self, uniform_influence):
        e = make_ensemble(np.random.default_rng(14), 64, uniform_influence)
        e.heading  # fill the cache
        moved = replace(e, theta=e.theta[::-1])
        assert np.array_equal(moved.heading, np.exp(1j * moved.theta))
        stepped = em_step(e, 0.02)
        assert np.array_equal(stepped.heading, np.exp(1j * stepped.theta))

    def test_order_parameter_is_the_mean_of_the_conjugate_phasors(self, uniform_influence):
        e = make_ensemble(np.random.default_rng(15), 10**5, uniform_influence)
        want = np.mean(np.exp(-1j * e.theta))
        assert abs(order_parameter(e) - want) <= 1e-15 * abs(want)
        if np.array_equal(np.exp(-1j * e.theta), np.conj(np.exp(1j * e.theta))):
            # conjugation commutes with the rounded sum, so a conjugate-symmetric exp gives equality
            assert order_parameter(e) == want


class TestPhases:
    """_phases(u, ks) is exp(i ks u) from running products of one phasor per point."""

    @pytest.mark.parametrize(
        "ks", [[0], [3, -7, 0, 7, -1, 3, 0, 13], [-2, -2, 5, -5, 1], np.arange(-15, 16), [-40, 40, 2]]
    )
    def test_matches_the_direct_exponential(self, ks):
        ks = np.asarray(ks)
        u = np.random.default_rng(16).uniform(0.0, TWO_PI, 5000)
        got = _phases(u, ks)
        assert got.shape == (u.size, ks.size)
        # the direct form's own argument rounding reaches ~pi |k| eps for u < 2pi
        bound = 8 * np.maximum(np.abs(ks), 1) * np.finfo(float).eps
        assert np.all(np.max(np.abs(got - np.exp(1j * ks * u[:, None])), axis=0) <= bound)
        assert np.array_equal(_phases(np.exp(1j * u), ks), got)  # phasors in, as an ensemble's heading
        for c, k in enumerate(ks):
            if k == 0:
                assert np.all(got[:, c] == 1.0)
            elif -k in ks:
                assert np.array_equal(got[:, c], np.conj(got[:, list(ks).index(-k)]))


class TestSpeed:
    def test_zero_speed_keeps_positions(self, uniform_influence):
        g0 = AngularProfile.from_values(np.full(64, 1 / TWO_PI))
        e = ensemble_from_profile(256, g0, uniform_influence, kappa=0.5, nu=0.1, seed=4, v=speed_constant(0.0))
        for _ in range(3):
            stepped = em_step(e, 0.05)
            assert np.array_equal(stepped.x, e.x)
            assert not np.array_equal(stepped.theta, e.theta)
            e = stepped

    def test_decaying_speed_moves_along_headings(self, uniform_influence):
        dens = lambda x1, x2, th: (1.0 + np.cos(th)) / TWO_PI**3
        v = speed_decaying(0.2)
        e = ensemble_from_density(512, dens, uniform_influence, kappa=0.5, nu=0.1, seed=5, v=v)
        dt = 0.05
        for _ in range(3):
            stepped = em_step(e, dt)
            heading = np.column_stack([np.cos(e.theta), np.sin(e.theta)])
            moved = np.mod(stepped.x - e.x + np.pi, TWO_PI) - np.pi
            assert np.max(np.abs(moved - v(e.t) * dt * heading)) < 1e-14
            e = stepped
        assert v(2 * dt) < 0.85 * v(0.0)  # the speed did decay over the steps checked


class TestSampling:
    def test_inverse_transform_matches_density(self, uniform_influence):
        th = theta_points(128)
        g = AngularProfile.from_values((1.0 + np.cos(th)) / TWO_PI)
        rng = _make_rng(0)
        samples = sample_angles(g, 200000, rng)
        m = np.mean(np.exp(-1j * samples))
        assert abs(m - 0.5) < 0.01  # order parameter of (1+cos)/2pi is 1/2

    def test_rejection_sampler(self, uniform_influence):
        dens = lambda x1, x2, th: (1.0 + 0.5 * np.cos(x1)) * (1.0 + np.cos(th)) / TWO_PI**3 / 2
        e = ensemble_from_density(20000, dens, uniform_influence, kappa=0.1, nu=0.1, seed=3)
        assert e.n == 20000
        m = np.mean(np.exp(-1j * e.theta))
        assert abs(m - 0.5) < 0.02
        cx = np.mean(np.cos(e.x[:, 0]))
        assert cx == pytest.approx(0.25, abs=0.02)  # E cos x1 under (1+0.5 cos)/2pi


    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_rejection_sampler_rejects_a_density_with_no_positive_maximum(self, uniform_influence, value):
        # no sample would ever be accepted: the sampler must refuse, not loop
        dens = lambda x1, x2, th: np.full(np.broadcast(x1, x2, th).shape, value)
        with pytest.raises(ValueError, match=f"density probe maximum {value!r}"):
            ensemble_from_density(64, dens, uniform_influence, kappa=0.1, nu=0.1, seed=3)

    @pytest.mark.parametrize(
        "coeffs, mass",
        [(np.zeros(32), "0.0"), (np.eye(32)[0] * -1 / TWO_PI, "0.0"), (np.full(32, np.nan), "0.0")],
        ids=["zero", "negative", "nan"],
    )
    def test_profile_samplers_reject_a_profile_with_no_mass(self, uniform_influence, coeffs, mass):
        # the inverse-transform CDF would divide by zero and give all-NaN headings
        g = AngularProfile(coeffs.astype(complex))
        rng = _make_rng(0)
        with pytest.raises(ValueError, match=f"angular density has mass {mass} "):
            sample_angles(g, 16, rng)
        assert rng.random() == _make_rng(0).random()  # no draw before the check
        with pytest.raises(ValueError, match=f"angular density has mass {mass} "):
            ensemble_from_profile(16, g, uniform_influence, kappa=0.1, nu=0.1)


class TestEmpiricalDensity:
    def test_single_agent_is_the_kernel(self, uniform_influence):
        grid = TorusGrid(32, 32, 32)
        e = AgentEnsemble(
            x=np.array([[1.0, 2.5]]),
            theta=np.array([0.7]),
            kappa=0.0,
            nu=0.1,
            influence=uniform_influence,
            rng=_make_rng(0),
        )
        h = 0.8
        f = empirical_density(e, grid, bandwidth=h)
        assert f.mass == pytest.approx(1.0, abs=1e-13)
        c = 1.0 / h**2
        x1g, x2g, thg = grid.mesh()

        def vm(u):
            return np.exp(c * (np.cos(u) - 1.0)) / (TWO_PI * ive(0, c))

        kern = vm(x1g - 1.0) * vm(x2g - 2.5) * vm(thg - 0.7)
        assert np.max(np.abs(f.values - kern)) < 1e-12 * np.max(kern)

    def test_uniform_cloud_close_to_constant(self, uniform_influence):
        grid = TorusGrid(16, 16, 16)
        rng = np.random.default_rng(42)
        n = 100000
        e = AgentEnsemble(
            x=rng.random((n, 2)) * TWO_PI,
            theta=rng.uniform(-np.pi, np.pi, n),
            kappa=0.0,
            nu=0.1,
            influence=uniform_influence,
            rng=_make_rng(1),
        )
        f = empirical_density(e, grid, bandwidth=0.3)
        err = norm(remainder(f), "L2")
        c = 1.0 / 0.3**2
        w = lambda ks: ive(np.abs(ks), c) / ive(0, c)
        kern = w(grid.k1)[:, None, None] * w(grid.k2)[None, :, None] * w(grid.l)[None, None, :] / TWO_PI**3
        var = np.sum(np.abs(kern) ** 2) - np.abs(kern[0, 0, 0]) ** 2
        expected = np.sqrt(TWO_PI**3 * var / n)
        assert err < 3.0 * expected

    @pytest.mark.parametrize("h", [-0.3, 0.0, np.nan, np.inf])
    def test_rejects_bad_bandwidth(self, uniform_influence, h):
        e = make_ensemble(np.random.default_rng(0), 10, uniform_influence, kappa=0.0)
        with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
            empirical_density(e, TorusGrid(8, 8, 8), bandwidth=h)

    def test_cluster_mode_location(self, uniform_influence):
        grid = TorusGrid(32, 32, 32)
        e = AgentEnsemble(
            x=np.full((200, 2), 3.0),
            theta=np.full(200, -1.0),
            kappa=0.0,
            nu=0.1,
            influence=uniform_influence,
            rng=_make_rng(2),
        )
        f = empirical_density(e, grid, bandwidth=0.8)
        vals = f.values
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        assert abs(grid.x1[idx[0]] - 3.0) <= TWO_PI / 32
        assert abs(grid.x2[idx[1]] - 3.0) <= TWO_PI / 32
        assert abs(grid.theta[idx[2]] + 1.0) <= TWO_PI / 32
