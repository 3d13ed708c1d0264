"""Agent-based SDE simulator of the alignment dynamics.

N agents carry a position on T^2 and a heading on T:

    dx^i = v(t) (cos theta^i, sin theta^i) dt,
    dtheta^i = (kappa/N) sum_j Phi(x^j - x^i) Psi(theta^j - theta^i) dt
               + sqrt(2 nu) dB^i.

The angular noise is additive, so the Ito and Stratonovich readings of
the sphere-projected formulation coincide; the projection-form drift is
kept available as a consistency check.

The drift is a Fourier sum over the series of Phi and the support of
Psihat against the empirical characteristic function of the agents,
O(N K^2) per angular mode, where K is the smallest cutoff that leaves
every dropped coefficient of Phi below PHI_SERIES_RTOL * max|Phi|
(influence.PHI_SERIES_RTOL).  K is 14 for the bump at sigma = 1, 21 at
sigma = 0.5, 30 at sigma = 0.3 and 0 for a uniform Phi; it grows like
1/sigma.  Phi must therefore be smooth: ``make_influence`` rejects a Phi
with no such series on a PHI_SERIES_MAX_GRID grid (a jump, or a bump
narrower than sigma ~ 0.03) with ValueError at build.  The kernel density
estimate uses the same characteristic-function sums.

Both reduce over the agents with complex GEMMs ((2K+1) x N by N x (2K+1)
for the drift).  OpenBLAS 0.3.31 may hand a GEMM with m*n*k of 2**16 or
more to its thread pool (29 x 78 x 29 and 32 x 64 x 32 went there, 29 x 77
x 29 stayed).  For the drift at K <= 15 the hand-off cost milliseconds
against microseconds for the product, or left a worker spinning: a whole
drift at N = 1024, K = 14 took 16 ms, in blocks 2-3 ms.  From K = 16 on
the pool pays (a whole drift at K = 30, N = 8000 took 27 ms, in blocks
45 ms).  ``_agent_blocks`` therefore splits the agent axis into contiguous
blocks within GEMM_MAX_WORK, kept on the calling thread, only where a block
still holds MIN_BLOCK_ROWS agents, and leaves wider products whole.  The
bound was measured for the drift's shape; the density estimate's 16 x 16
shape stayed on the calling thread even whole, so there it is conservative.

Each ensemble value evaluates one function of theta, once: its read-only
``heading`` exp(i theta).  em_step reads the velocity (cos, sin) off it
as a float view, the drift and the density estimate build their angular
phases from it, and the order parameter is its conjugated mean.  The
step wraps x into [0, 2pi) and theta into [-pi, pi) with
``linear.wrap_angle``: bit for bit np.mod, by one conditional 2pi shift
where that is exact, with no fmod; only an array with a value more than
one period out (a noise jump of more than 2pi) takes np.mod.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import StepSizeError
from .homogeneous import bessel_ratios
from .influence import InfluencePair
from .linear import speed_constant, wrap_angle
from .spectral import TWO_PI, AngularProfile, SpectralField, TorusGrid, _check_dt, theta_points

PAIR_BLOCK = 2**16  # pairs per block of projection_drift_check: a few MiB of temporaries at any N
GEMM_MAX_WORK = 2**16 - 1  # m*n*k of the largest GEMM that OpenBLAS keeps on the calling thread
MIN_BLOCK_ROWS = 64  # blocks any shorter mean a GEMM wide enough for the pool to pay (drift, K >= 16)
SAMPLE_RESOLUTION = 4096  # angles on which sample_angles tabulates the distribution


def _make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _copy_rng(rng: np.random.Generator) -> np.random.Generator:
    """A new Generator at rng's bit-generator state; rng itself never moves."""
    bit_generator = type(rng.bit_generator)(0)
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def _box_muller(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard normals from the counter-based uniform stream.

    sqrt(-2 log(1 - u1)) cos(2pi u2), evaluated in place in that order.
    """
    radius = rng.random(n)
    np.subtract(1.0, radius, out=radius)  # in (0, 1]
    np.log(radius, out=radius)
    np.multiply(-2.0, radius, out=radius)
    np.sqrt(radius, out=radius)
    angle = rng.random(n)
    np.multiply(TWO_PI, angle, out=angle)
    np.cos(angle, out=angle)
    return np.multiply(radius, angle, out=radius)


@dataclass(frozen=True)
class AgentEnsemble:
    """N agents with a seeded counter-based RNG stream.

    The ensemble is a value: em_step never advances ``rng``, it draws from
    a copy of its state and hands the advanced copy to the result.
    """

    x: np.ndarray       # (N, 2) positions in [0, 2pi)^2
    theta: np.ndarray   # (N,) headings in [-pi, pi)
    kappa: float
    nu: float
    influence: InfluencePair
    rng: np.random.Generator
    t: float = 0.0
    v: Callable[[float], float] = speed_constant()

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        th = np.ascontiguousarray(self.theta, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != 2 or th.shape != (x.shape[0],):
            raise ValueError("x must be (N,2) and theta (N,)")
        x.flags.writeable = False
        th.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "theta", th)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @cached_property
    def heading(self) -> np.ndarray:
        """exp(i theta), read-only, computed once per ensemble value.

        The velocity direction (its real and imaginary parts), the drift's
        angular phases and the order parameter all read it; nothing else in
        this module takes a cos, sin or exp of theta.
        """
        z = np.exp(1j * self.theta)
        z.flags.writeable = False
        return z


def ensemble_from_profile(
    n: int,
    profile: AngularProfile,
    influence: InfluencePair,
    kappa: float,
    nu: float,
    seed: int = 0,
    v: Callable[[float], float] = speed_constant(),
) -> AgentEnsemble:
    """Positions uniform on the torus, headings drawn from an angular density."""
    rng = _make_rng(seed)
    x = rng.random((n, 2)) * TWO_PI
    theta = sample_angles(profile, n, rng)
    return AgentEnsemble(x=x, theta=theta, kappa=kappa, nu=nu, influence=influence, rng=rng, v=v)


def sample_angles(profile: AngularProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-transform sampling from a nonnegative angular density on SAMPLE_RESOLUTION angles.

    ValueError, before any draw, if its positive part has no finite mass > 0 there.
    """
    th = theta_points(SAMPLE_RESOLUTION)
    dens = np.maximum(profile.eval(th).real, 0.0)
    cdf = np.cumsum(dens)
    mass = float(cdf[-1]) * TWO_PI / SAMPLE_RESOLUTION
    if not (np.isfinite(mass) and mass > 0):
        raise ValueError(f"angular density has mass {mass!r} on {SAMPLE_RESOLUTION} angles, not finite and > 0")
    cdf = np.concatenate([[0.0], cdf]) / cdf[-1]
    edges = np.concatenate([th, [np.pi]])
    return np.interp(rng.random(n), cdf, edges)


# ---------------------------------------------------------------------------
# Drift evaluation
# ---------------------------------------------------------------------------


def angular_drift(e: AgentEnsemble) -> np.ndarray:
    """Per-agent drift (kappa/N) sum_j Phi(x^j - x^i) Psi(theta^j - theta^i).

    Evaluated as the Fourier sum

        kappa sum_{k, l} Phihat_k Psihat_l e^{-i(k.x^i + l theta^i)} S_{k,l},
        S_{k,l} = (1/N) sum_j e^{i(k.x^j + l theta^j)},

    in O(N K^2) per angular mode instead of O(N^2).  Phihat is the series
    of the influence's phi_fn over |k1|, |k2| <= K, with K chosen from a
    tolerance on max|Phi| (``InfluencePair.phi_series``); Phi must be
    smooth, and one that no grid resolves raises ValueError.  A uniform Phi
    is the case K = 0.  The angular modes are the support of Psihat
    (``AngularKernel.psi_support``); Phi and Psi are real, so the l > 0
    terms are doubled in place of the l < 0 half.
    """
    ks, phihat = e.influence.phi_series
    support = e.influence.angular.psi_support
    psi = e.influence.angular.psi
    ls = psi.l[support]
    # l = 0 and the Nyquist mode have no partner in the l >= 0 half
    weight = np.where((support == 0) | (support == psi.n // 2), 1.0, 2.0)
    e1 = _phases(e.x[:, 0], ks)
    e2 = _phases(e.x[:, 1], ks)
    e3 = _phases(e.heading, ls)
    s = _characteristic(e1, e2, e3)
    coeffs = weight * psi.coeffs[support]
    out = np.zeros(e.n)
    e1m = np.empty(e1.shape, dtype=np.complex128)
    for c in range(len(ls)):
        # the real part of the conjugated sum, which needs no conjugated factors
        m = np.conj(coeffs[c] * phihat * s[:, :, c])
        for block in _agent_blocks(e.n, m.size):
            np.matmul(e1[block], m, out=e1m[block])
        out += (np.einsum("ij,ij->i", e1m, e2) * e3[:, c]).real
    return e.kappa * out


def _phases(u: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """exp(i ks[c] u[j]) as an (N, len(ks)) array.

    u holds the angles, or their phasors exp(i u) as a complex array (an
    ensemble's heading), which are used as given.  Built from running
    products of exp(i u): at most one complex exponential per point
    instead of one per entry, at a phase error that grows like |k| ulps,
    as the rounding of the argument k u does for the direct form.  A k < 0
    row is the conjugate of the |k| power, written straight into place.
    """
    n = u.shape[0]
    k_max = int(np.max(np.abs(ks), initial=0))
    powers = [np.ones(n, dtype=np.complex128)]
    if k_max:
        z = u if np.iscomplexobj(u) else np.exp(1j * u)
        powers.append(z)
        for _ in range(2, k_max + 1):
            powers.append(powers[-1] * z)
    rows = np.empty((len(ks), n), dtype=np.complex128)
    for row, k in zip(rows, ks):
        if k < 0:
            np.conjugate(powers[-k], out=row)
        else:
            row[:] = powers[k]
    return rows.T


def _characteristic(e1: np.ndarray, e2: np.ndarray, e3: np.ndarray) -> np.ndarray:
    """S[a, b, c] = (1/N) sum_j e1[j, a] e2[j, b] e3[j, c].

    The separable factors of the empirical characteristic function; one
    GEMM over the agents per column of e3, summed over the agent blocks.
    """
    s = np.empty((e1.shape[1], e2.shape[1], e3.shape[1]), dtype=np.complex128)
    for c in range(e3.shape[1]):
        weighted = e1 * e3[:, c, None]
        partial = np.zeros(s.shape[:2], dtype=np.complex128)  # contiguous: s[:, :, c] is strided
        for block in _agent_blocks(e1.shape[0], partial.size):
            partial += weighted[block].T @ e2[block]
        s[:, :, c] = partial
    return s / e1.shape[0]


def _agent_blocks(n: int, width: int) -> list[slice]:
    """Contiguous slices that tile range(n) for a GEMM over n agents whose other two sizes multiply to width.

    Blocks of GEMM_MAX_WORK // width agents, whose products OpenBLAS keeps
    on the calling thread, where that is at least MIN_BLOCK_ROWS; else the
    one slice of all agents, a product wide enough to use the pool.  Every
    matrix product of the package iterates these slices.
    """
    step = GEMM_MAX_WORK // width
    if step < MIN_BLOCK_ROWS:
        return [slice(0, n)]
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def em_step(e: AgentEnsemble, dt: float, noise: np.ndarray | None = None) -> AgentEnsemble:
    """One Euler-Maruyama step; noise may be injected for testing.

    Stepping the same ensemble twice gives the same result: the noise is
    drawn from a copy of e.rng, which the returned ensemble carries.

    Guard: dt * kappa * max|Phi| * max|Psi| <= 0.1.
    """
    _check_dt(dt)
    if dt * e.kappa * e.influence.phi_max * e.influence.psi_max > 0.1:
        raise StepSizeError("dt violates the drift guard dt*kappa*max|Phi Psi| <= 0.1")
    rng = _copy_rng(e.rng)
    if noise is None:
        noise = _box_muller(rng, e.n)
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (e.n,) or not np.all(np.isfinite(noise)):
            raise ValueError(f"noise must be finite with shape ({e.n},), got shape {noise.shape}")
    drift = angular_drift(e)
    speed = e.v(e.t)
    velocity = e.heading.view(np.float64).reshape(e.n, 2)  # (cos theta, sin theta) rows, no copy
    # e.x + speed dt velocity and e.theta + drift dt + sqrt(2 nu dt) noise, in
    # that order, then the wraps, in two fresh buffers (drift is one): fewer
    # large temporaries for the allocator to hand back and fault in again.
    # An injected noise is never written.
    x_new = np.multiply(speed * dt, velocity)
    np.add(e.x, x_new, out=x_new)
    theta_new = np.multiply(drift, dt, out=drift)
    np.add(e.theta, theta_new, out=theta_new)
    np.add(theta_new, np.sqrt(2.0 * e.nu * dt) * noise, out=theta_new)
    x_new = wrap_angle(x_new, 0.0, out=x_new)
    theta_new = wrap_angle(theta_new, out=theta_new)
    return replace(e, x=x_new, theta=theta_new, t=e.t + dt, rng=rng)


def projection_drift_check(e: AgentEnsemble) -> float:
    """Max discrepancy between the sphere-projection and angular drifts.

    The projection form -kappa P(v^i) mean_j Phi (v^i - v^j) psi, summed
    over pairs here, must match the angular drift that em_step uses times
    the unit tangent (-sin, cos); the identity rests on psi being even.
    """
    vvec = e.heading.view(np.float64).reshape(e.n, 2)
    cos_t, sin_t = vvec.T
    a = angular_drift(e)

    psi_factor = e.influence.angular.psi_factor
    s = np.zeros((e.n, 2))
    rows = max(1, PAIR_BLOCK // e.n)
    for start in range(0, e.n, rows):
        stop = min(start + rows, e.n)
        dx1 = e.x[start:stop, None, 0] - e.x[None, :, 0]
        dx2 = e.x[start:stop, None, 1] - e.x[None, :, 1]
        dth = e.theta[start:stop, None] - e.theta[None, :]
        w = e.influence.phi_fn(dx1, dx2) * psi_factor.eval(dth).real
        dv = vvec[start:stop, None, :] - vvec[None, :, :]
        s[start:stop] = np.sum(w[:, :, None] * dv, axis=1) / e.n

    proj = s - np.sum(s * vvec, axis=1, keepdims=True) * vvec
    drift_proj = -e.kappa * proj
    tangent = np.column_stack([-sin_t, cos_t])
    diff = drift_proj - a[:, None] * tangent
    return float(np.max(np.linalg.norm(diff, axis=1)))


def order_parameter(e: AgentEnsemble) -> complex:
    """(1/N) sum_i e^{-i theta^i}, the conjugated mean of the heading."""
    return complex(np.conj(np.mean(e.heading)))


# ---------------------------------------------------------------------------
# Kernel density estimate on the spectral grid
# ---------------------------------------------------------------------------


def empirical_density(e: AgentEnsemble, grid: TorusGrid, bandwidth: float = 0.3) -> SpectralField:
    """Periodic von Mises product-kernel density estimate, total mass one.

    Computed exactly in coefficient space: the empirical characteristic
    function times I_k(1/h^2) / (2pi I_0(1/h^2)) per axis (``bessel_ratios``)
    on the grid.  ValueError unless the bandwidth h is finite and > 0.
    """
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth}")
    ratios = np.array(bessel_ratios(1.0 / bandwidth**2, max(grid.shape) // 2))
    w1, w2, w3 = (ratios[np.abs(ks)] for ks in (grid.k1, grid.k2, grid.l))
    s = _characteristic(_phases(e.x[:, 0], -grid.k1), _phases(e.x[:, 1], -grid.k2), _phases(e.heading, -grid.l))
    kernel = w1[:, None, None] * w2[None, :, None] * w3[None, None, :] / TWO_PI**3
    return SpectralField(grid, kernel * s)
