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
exact diffusion, with the kinetic solver's step-size guard.  The
alignment RHS is the kinetic one at k = 0: the 2/3-dealiased flux as the
banded sum ``spectral.band_product`` over the band of Psihat
(``AngularKernel.band``), with no transform; only the guard's max|Psi*g|
takes one (``spectral.band_sup``), where ``split_step`` reads it.  The
Heun stages run on the modes 0..n_theta/3 of each row, the block the flux
reads and writes (``spectral.Alignment``); ``_lower`` adds the increment
of a half-step to the row and its conjugate to the modes -n_theta/3..-1.
``evolve_homogeneous`` advances a sequence of states that share n_theta, nu and t as one stack
of rows with kappa per row (the ratios of a phase diagram), with the
RHS and the guard evaluated row-wise; a single state is a batch of one.
The stack runs on ``spectral.evolve_rows``, the one run loop of the PDE
layers; it keeps the sample log of m = 2pi ghat_1 per row (and F, D
under ``record_energy``), and each row's final state is built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import mul
from typing import Sequence

import numpy as np

from .errors import NumericsError
from .influence import AngularKernel
from .spectral import (
    TWO_PI,
    Alignment,
    AngularProfile,
    band_product,
    band_sup,
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
        if not (math.isfinite(self.kappa) and math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"kappa must be finite and nu finite and > 0, got {self.kappa}, {self.nu}")


def constant_state(n_theta: int, kappa: float, nu: float) -> HomogeneousState:
    vals = np.full(n_theta, 1.0 / TWO_PI)
    return HomogeneousState(AngularProfile.from_values(vals), 0.0, kappa, nu)


def _alignment_rhs(
    g: np.ndarray, kernel: AngularKernel, kappa: np.ndarray | float, with_sup: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """kappa d_theta(g (Psi*g)) on the modes 0..n_theta/3 of g, 2/3-dealiased: the kinetic banded product at k = 0.

    Row-wise over the modes ``g[m + 1]`` of one real density, m =
    n_theta/3, or a stack ``g[batch, m + 1]`` of them, with kappa a scalar
    or one per row.  Psi*g has the modes a_j = 2pi Psihat_j ghat_j, j in
    ``kernel.band``, so the flux modes 0 <= l <= m are the sums P_l of
    ``spectral.band_product``, and the right-hand side there is
    kappa i l P_l; the modes l < 0 are their conjugates (``_lower``) and the
    others zero.  The right-hand side takes no transform; the sup,
    max|Psi*g| per row shaped ``(..., 1)``, takes one ``irfft`` (None
    unless ``with_sup``).
    """
    n = kernel.n_theta
    band, psi = kernel.band
    a = (psi * g[..., band]).T  # the planes of band_product: the modes first, then the rows
    prod = band_product(g.T, a, band).T
    rhs = kappa * theta_derivative(n)[: g.shape[-1]] * prod
    return rhs, band_sup(a[..., None], band, n) * n if with_sup else None


def _lower(g: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """g plus the increment inc of its modes 0..m, and plus conj(inc) on the modes -m..-1."""
    m = inc.shape[-1] - 1
    out = g.copy()
    out[..., : m + 1] += inc
    out[..., g.shape[-1] - m :] += np.conj(inc[..., m:0:-1])
    return out


def _alignment(kernel: AngularKernel, kappa: np.ndarray | float) -> Alignment:
    """The homogeneous alignment sub-step of ``split_step`` on the modes 0..n_theta/3 of each row."""
    m = kernel.n_theta // 3
    return Alignment(
        kappa=kappa,
        lift=lambda g: g[..., : m + 1],
        rhs=lambda g, with_sup: _alignment_rhs(g, kernel, kappa, with_sup),
        lower=_lower,
    )


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
    The final state of a row, built at its last sample time, is the one
    unit-mass check: the step keeps the mass 2pi Re ghat_0 bit for bit (the
    flux at l = 0 is i 0 P_0, the diffusion factor there 1).
    Raises NumericsError naming the row on NaN at a sample.
    """
    states = [s] if isinstance(s, HomogeneousState) else list(s)
    if not states:
        raise ValueError("evolve_homogeneous needs at least one state")
    first = states[0]
    if any((x.g.n, x.nu, x.t) != (first.g.n, first.nu, first.t) for x in states):
        raise ValueError("batched homogeneous states must share n_theta, nu and t")
    if kernel.n_theta != first.g.n:
        raise ValueError(
            f"the kernel's n_theta = {kernel.n_theta} differs from the states' n_theta = {first.g.n}"
        )

    def sample(rows, c, t):
        finite = np.isfinite(c).all(axis=-1)
        if not finite.all():
            raise NumericsError(f"NaN in homogeneous evolution near t={t} in row {rows[np.argmin(finite)]}")
        if not record_energy:
            return (TWO_PI * c[:, 1],)
        xs = [replace(states[j], g=AngularProfile(g), t=float(t)) for j, g in zip(rows, c)]
        energy = [(free_energy(x, kernel), fisher_information(x, kernel)) for x in xs]
        return (TWO_PI * c[:, 1], *np.array(energy).T)

    def stepper(rows):
        align = _alignment(kernel, np.array([[states[j].kappa] for j in rows]))
        return lambda c, t: split_step(c, t, dt, first.nu, align=align)

    c, series = evolve_rows(
        np.stack([x.g.coeffs for x in states]), first.t, dt, n_steps, sample_every, stepper, sample
    )
    out = []
    for x, g, (t, m, *energy) in zip(states, c, series):
        fe, fi = energy or (None, None)
        final = replace(x, g=AngularProfile(g), t=float(t[-1]))
        out.append(HomogeneousTrajectory(t=t, order_parameter=m, free_energy=fe, fisher=fi, final=final))
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


def fisher_information(s: HomogeneousState, kernel: AngularKernel) -> float:
    """int g |nu d_theta log g + kappa (Psi*g)|^2 dtheta; ValueError unless g > 0, +inf where the integral overflows."""
    g = s.g.values.real
    if np.min(g) <= 0.0:
        raise ValueError("Fisher information requires a positive density")
    dg = s.g.derivative().values.real
    conv = kernel.psi.convolve(s.g).values.real
    drift = s.nu * dg / g + s.kappa * conv
    quad = TWO_PI / s.g.n
    with np.errstate(over="ignore"):
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
    if not 1 <= l_max <= kernel.n_theta // 2:
        raise ValueError(f"l_max must lie in [1, n_theta/2 = {kernel.n_theta // 2}], got {l_max}")
    ls = np.arange(1, l_max + 1)
    uh = np.array([u_hat_unnormalized(kernel, int(l)).real for l in ls])
    rates = -(ls.astype(np.float64) ** 2) * (nu + kappa / TWO_PI * uh)
    return StabilityReport(rates=rates, stable=bool(np.all(rates < 0.0)))


# ---------------------------------------------------------------------------
# Modified Bessel ratio and the compatibility condition
# ---------------------------------------------------------------------------


def bessel_ratios(z, n: int) -> list:
    """[I_k(z)/I_0(z) for k = 0..n] as a list; [1, 0, ..., 0] at z = 0.

    t_k = I_k/I_{k-1} satisfies 1/t_k = 2k/z + t_{k+1}: the continued
    fraction runs as a backward recurrence from t = 0 at depth
    max(n, min(|z|, 10 |z|^{1/2})) + 50 (I_k/I_0 ~ exp(-k^2/2z) is e^-50
    at k = 10 |z|^{1/2}); the ratios are the running products of the t_k.
    Complex z is accepted (complex-step differentiation); ValueError unless
    |z| is finite.
    """
    if z == 0:
        return [1.0] + [0.0] * n
    if not math.isfinite(abs(z)):
        raise ValueError(f"bessel_ratios needs a finite argument, got z = {z!r}")
    t, tail = 0.0, []
    for k in range(int(max(n, min(abs(z), 10.0 * math.sqrt(abs(z))))) + 50, 0, -1):
        t = 1.0 / (2.0 * k / z + t)
        if k <= n:
            tail.append(t)
    return list(accumulate(reversed(tail), mul, initial=1.0))


def bessel_ratio(z):
    """I_1(z)/I_0(z), increasing from 0 at z=0 toward 1 as z -> infinity.

    The k = 1 entry of ``bessel_ratios``, elementwise on an array.
    """
    if isinstance(z, np.ndarray):
        return np.array([bessel_ratio(zi) for zi in z.ravel()]).reshape(z.shape)
    return bessel_ratios(z, 1)[1]


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
        if b - a <= BISECTION_TOL or math.nextafter(a, b) == b:  # adjacent floats stay put
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
