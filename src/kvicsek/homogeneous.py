"""Spatially homogeneous dynamics, free energy, and the ordered states.

The angular density g (a probability density on T) obeys

    d/dt g = kappa d_theta(g (Psi * g)) + nu d^2/dtheta^2 g,

whose free energy nu int g log g + (kappa/2) int int U(theta-w) g g
decays at the rate given by the Fisher information
int g |nu d_theta log g + kappa Psi*g|^2.  For Psi = sin the constant
state loses stability at kappa/nu = 2, where a branch of von Mises
profiles parameterized by the order parameter appears.

The step is ``spectral.split_step`` without transport (the kinetic step
restricted to x-independent data): Heun alignment half-steps around
exact diffusion, with the alignment RHS evaluated in 2/3-dealiased flux
form and the kinetic solver's step-size guard.  ``evolve_homogeneous``
advances a sequence of states that share n_theta, nu and t as one stack
of rows with kappa per row (the ratios of a phase diagram), with the
RHS and the guard evaluated row-wise; a single state, and
``step_homogeneous``, are batches of one.  The stack runs through
``spectral.evolve_rows``, on the clock of the kinetic and per-mode layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .influence import AngularKernel
from .spectral import (
    TWO_PI,
    AngularProfile,
    dealias_keep,
    diffusion_factor,
    evolve_rows,
    split_step,
    theta_derivative,
    theta_points,
)


@dataclass(frozen=True)
class HomogeneousState:
    """Probability density g on T at time t, with parameters kappa, nu."""

    g: AngularProfile
    t: float
    kappa: float
    nu: float

    def __post_init__(self):
        if abs(self.g.mass - 1.0) > 1e-10:
            raise ValueError(f"g must have unit mass, got {self.g.mass}")

    @property
    def order_parameter(self) -> complex:
        """m = integral e^{-i theta} g dtheta."""
        return complex(TWO_PI * self.g.coeffs[1])


def constant_state(n_theta: int, kappa: float, nu: float) -> HomogeneousState:
    vals = np.full(n_theta, 1.0 / TWO_PI)
    return HomogeneousState(AngularProfile.from_values(vals), 0.0, kappa, nu)


def _alignment_rhs(
    g_coeffs: np.ndarray, psi_coeffs: np.ndarray, kappa: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """kappa d_theta(g (Psi*g)) in coefficients, 2/3-dealiased flux form.

    Row-wise over a stack ``g_coeffs[..., n_theta]``, with kappa a scalar
    or one per row; returns the right-hand side and max|Psi*g| per row,
    shaped ``(..., 1)``.  The product is pointwise, so the (-1)^l
    grid-offset phase cancels between the transforms and is left out.
    """
    n = g_coeffs.shape[-1]
    mask = dealias_keep(n)
    gd = np.where(mask, g_coeffs, 0.0)
    conv = np.where(mask, TWO_PI * psi_coeffs * g_coeffs, 0.0)
    gv = np.fft.ifft(gd, axis=-1) * n
    cv = np.fft.ifft(conv, axis=-1) * n
    prod = np.fft.fft(gv * cv, axis=-1) / n
    rhs = kappa * theta_derivative(n) * np.where(mask, prod, 0.0)
    return rhs, np.max(np.abs(cv), axis=-1, keepdims=True)


def step_homogeneous(s: HomogeneousState, kernel: AngularKernel, dt: float) -> HomogeneousState:
    """One step of ``evolve_homogeneous``: Heun alignment half / diffusion / alignment half."""
    return evolve_homogeneous(s, kernel, dt, 1).final


@dataclass(frozen=True)
class HomogeneousTrajectory:
    t: np.ndarray
    order_parameter: np.ndarray  # complex m(t)
    free_energy: np.ndarray | None
    fisher: np.ndarray | None
    final: HomogeneousState


def evolve_homogeneous(
    s: HomogeneousState | Sequence[HomogeneousState],
    kernel: AngularKernel,
    dt: float,
    n_steps: int,
    sample_every: int = 1,
    record_energy: bool = False,
) -> HomogeneousTrajectory | list[HomogeneousTrajectory]:
    """Advance the homogeneous dynamics, sampling m(t) (and optionally F, D).

    ``s`` is one state or a sequence of states that share n_theta, nu and
    t, with kappa per state; a sequence is stepped as one stack of rows
    by ``spectral.evolve_rows`` and gives one trajectory per state, in order.
    Raises NumericsError naming the row on NaN at a sample.
    """
    states = [s] if isinstance(s, HomogeneousState) else list(s)
    if not states:
        raise ValueError("evolve_homogeneous needs at least one state")
    first = states[0]
    if any((x.g.n, x.nu, x.t) != (first.g.n, first.nu, first.t) for x in states):
        raise ValueError("batched homogeneous states must share n_theta, nu and t")
    heat = diffusion_factor(first.g.n, first.nu, dt)
    records = [[] for _ in states]
    final = list(states)

    def sample(rows, c, t):
        finite = np.isfinite(c).all(axis=-1)
        if not finite.all():
            raise NumericsError(f"NaN in homogeneous evolution near t={t} in row {rows[np.argmin(finite)]}")
        for j, g in zip(rows, c):
            x = final[j] = replace(states[j], g=AngularProfile(g), t=float(t))
            energy = (free_energy(x, kernel), fisher_information(x, kernel)) if record_energy else ()
            records[j].append((x.t, x.order_parameter, *energy))

    def stepper(rows):
        kappa = np.array([[states[j].kappa] for j in rows])
        rhs = partial(_alignment_rhs, psi_coeffs=kernel.psi.coeffs, kappa=kappa)
        return lambda c, t: split_step(c, t, dt, heat, rhs=rhs, kappa=kappa)

    evolve_rows(np.stack([x.g.coeffs for x in states]), first.t, dt, n_steps, sample_every, stepper, sample)
    out = []
    for x, rec in zip(final, records):
        t, m, *energy = (np.asarray(col) for col in zip(*rec))
        fe, fi = energy or (None, None)
        out.append(HomogeneousTrajectory(t=t, order_parameter=m, free_energy=fe, fisher=fi, final=x))
    return out[0] if isinstance(s, HomogeneousState) else out


# ---------------------------------------------------------------------------
# Energy structure
# ---------------------------------------------------------------------------


def free_energy(s: HomogeneousState, kernel: AngularKernel) -> float:
    """nu int g log g + (kappa/2) int g (U*g); +inf if g is not positive."""
    g = s.g.values.real
    if np.min(g) <= 0.0:
        return math.inf
    quad = TWO_PI / s.g.n
    entropy = quad * float(np.sum(g * np.log(g)))
    ug = kernel.primitive.convolve(s.g).values.real
    interaction = quad * float(np.sum(g * ug))
    return s.nu * entropy + 0.5 * s.kappa * interaction


def fisher_information(s: HomogeneousState, kernel: AngularKernel, floor: float | None = None) -> float:
    """int g |nu d_theta log g + kappa (Psi*g)|^2 dtheta.

    Requires g > 0; pass ``floor`` to clamp instead of rejecting.
    """
    g = s.g.values.real
    if floor is not None:
        g = np.maximum(g, floor)
    if np.min(g) <= 0.0:
        raise ValueError("Fisher information requires a positive density")
    dg = s.g.derivative().values.real
    conv = kernel.psi.convolve(s.g).values.real
    drift = s.nu * dg / g + s.kappa * conv
    quad = TWO_PI / s.g.n
    return quad * float(np.sum(g * drift**2))


def homogeneous_rhs(s: HomogeneousState, kernel: AngularKernel) -> AngularProfile:
    """Full right-hand side kappa d_theta(g (Psi*g)) + nu d^2 g, no dealiasing.

    Used for stationarity residuals; vanishes at compatible von Mises states.
    """
    conv = kernel.psi.convolve(s.g)
    flux = AngularProfile.from_values(s.g.values * conv.values)
    ddg = AngularProfile(s.g.derivative().derivative().coeffs)
    return AngularProfile(s.kappa * flux.derivative().coeffs + s.nu * ddg.coeffs)


# ---------------------------------------------------------------------------
# Linear stability of the constant state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    rates: np.ndarray  # sigma_l for l = 1..l_max
    stable: bool


def u_hat_unnormalized(kernel: AngularKernel, l: int) -> complex:
    """The transform integral U e^{-i l theta} dtheta = 2 pi Uhat(l)."""
    return complex(TWO_PI * kernel.primitive.coeffs[l])


def linear_stability(kernel: AngularKernel, kappa: float, nu: float, l_max: int) -> StabilityReport:
    """Per-mode growth rates sigma_l = -l^2 (nu + (kappa/2pi) Re Uhat(l)).

    The verdict is stable iff every sigma_l is strictly negative.
    """
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    ls = np.arange(1, l_max + 1)
    uh = np.array([u_hat_unnormalized(kernel, int(l)).real for l in ls])
    rates = -(ls.astype(np.float64) ** 2) * (nu + kappa / TWO_PI * uh)
    return StabilityReport(rates=rates, stable=bool(np.all(rates < 0.0)))


# ---------------------------------------------------------------------------
# Modified Bessel ratio and the compatibility condition
# ---------------------------------------------------------------------------

_SERIES_CUT = 15.0


def bessel_ratio(z):
    """I_1(z)/I_0(z), increasing from 0 at z=0 toward 1 as z -> infinity.

    Power series below |z| = 15, continued fraction beyond; accepts
    complex arguments (enables complex-step differentiation).
    """
    if isinstance(z, np.ndarray):
        return np.array([bessel_ratio(zi) for zi in z.ravel()]).reshape(z.shape)
    if abs(z) <= _SERIES_CUT:
        return _ratio_series(z)
    return _ratio_continued_fraction(z)


def _ratio_series(z):
    q = z * z / 4.0
    term0 = 1.0
    i0 = term0
    term1 = 0.5
    i1 = term1
    for m in range(1, 200):
        term0 = term0 * q / (m * m)
        term1 = term1 * q / (m * (m + 1))
        i0 += term0
        i1 += term1
        if abs(term0) < 1e-18 * abs(i0) and abs(term1) < 1e-18 * abs(i1):
            break
    return z * i1 / i0


def _ratio_continued_fraction(z):
    # t_nu = I_nu / I_{nu-1} satisfies 1/t_nu = 2 nu / z + t_{nu+1}
    depth = int(abs(z)) + 50
    t = 0.0
    for nu in range(depth, 0, -1):
        t = 1.0 / (2.0 * nu / z + t)
    return t


@dataclass(frozen=True)
class StationaryRoot:
    """Admissible order-parameter magnitudes at a given kappa/nu ratio."""

    ratio: float
    roots: tuple[float, ...]
    r2: float | None

    def __post_init__(self):
        if 0.0 not in self.roots:
            raise ValueError("the trivial root 0 is always admissible")


BISECTION_TOL = 1e-12
BISECTION_CAP = 200


def solve_compatibility(ratio: float) -> StationaryRoot:
    """Solve I_1(z)/I_0(z) = z nu/kappa for the order-parameter magnitude.

    Roots are reported as |r| = z / ratio.  Only the trivial root exists
    for ratio <= 2; a unique positive root r2 in (0, 1) appears beyond.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if ratio <= 2.0:
        return StationaryRoot(ratio=ratio, roots=(0.0,), r2=None)

    def h(z):
        return bessel_ratio(z) - z / ratio

    a = 1e-8
    while h(a) <= 0.0 and a > 1e-300:
        a /= 1e3
    # I_1/I_0 < 1, so h(ratio) = I_1/I_0(ratio) - 1 < 0 brackets the root from above
    b = float(ratio)
    if h(a) <= 0.0:
        raise NumericsError(f"failed to bracket the compatibility root at ratio {ratio}")
    for _ in range(BISECTION_CAP):
        mid = 0.5 * (a + b)
        if h(mid) > 0.0:
            a = mid
        else:
            b = mid
        if b - a <= BISECTION_TOL:
            break
    z_root = 0.5 * (a + b)
    r2 = z_root / ratio
    return StationaryRoot(ratio=ratio, roots=(0.0, r2), r2=r2)


def von_mises_state(ratio: float, r: complex, n_theta: int) -> AngularProfile:
    """Normalized profile proportional to exp{ratio |r| cos(theta + arg r)}.

    With the order-parameter convention m = integral e^{-i theta} g, the
    concentration is (kappa/nu)|r| and the profile's own order parameter
    solves the compatibility condition.
    """
    r = complex(r)
    if not (0.0 <= abs(r) < 1.0):
        raise ValueError("|r| must lie in [0, 1)")
    th = theta_points(n_theta)
    c = ratio * abs(r)
    vals = np.exp(c * np.cos(th + np.angle(r)))
    prof = AngularProfile.from_values(vals)
    return AngularProfile(prof.coeffs / (TWO_PI * prof.coeffs[0]))


# ---------------------------------------------------------------------------
# Frouvelle-Liu sphere formulation (numerical equivalence oracle)
# ---------------------------------------------------------------------------


def frouvelle_liu_rhs(g: AngularProfile) -> tuple[AngularProfile, AngularProfile]:
    """Alignment drift computed two ways: sphere projection vs flux form.

    Returns (-div_p((I - p(x)p)J[g] g), d_theta(g (sin*g))); the two
    agree identically, which validates the angular formulation.
    """
    n = g.n
    th = theta_points(n)
    gv = g.values

    # sphere formulation through the projection matrix algebra
    j1 = float(TWO_PI * g.coeffs[1].real)     # integral cos(theta') g
    j2 = float(-TWO_PI * g.coeffs[1].imag)    # integral sin(theta') g
    sin, cos = np.sin(th), np.cos(th)
    f1 = (sin**2 * j1 - sin * cos * j2) * gv
    f2 = (-sin * cos * j1 + cos**2 * j2) * gv
    df1 = AngularProfile.from_values(f1).derivative().values
    df2 = AngularProfile.from_values(f2).derivative().values
    sphere = AngularProfile.from_values(-(-sin * df1 + cos * df2))

    # direct flux form with the angular convolution
    sin_profile = AngularProfile.from_values(np.sin(th))
    conv = sin_profile.convolve(g).values
    direct = AngularProfile.from_values(gv * conv).derivative()
    return sphere, direct
