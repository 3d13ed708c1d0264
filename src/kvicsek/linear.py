"""Per-x-mode passive scalar solver and hypocoercivity diagnostics.

Each spatial Fourier mode k != (0,0) of the transport-diffusion equation
evolves independently:

    d/dt eta_k + i v(t) (k1 cos(theta) + k2 sin(theta)) eta_k
        = nu d^2/dtheta^2 eta_k.

The weighted energy

    F = ||eta||^2 + alpha zeta (nu/|k|)^{1/2} ||d_theta eta||^2
        - beta zeta^2 Re<i sin(theta - theta_k) eta, d_theta eta>
        + gamma zeta^3 (nu/|k|)^{-1/2} ||sin(theta - theta_k) eta||^2,

with the time ramp zeta = min(1, (nu |k|)^{1/2} t), certifies decay at
the enhanced rate (nu |k|)^{1/2}; the comparison bounds sandwich F
between the 1/2- and 3/2-weighted diagonal parts whenever
beta^2 <= alpha gamma.

``step_mode`` is ``spectral.split_step`` at kappa = 0 on one mode: the
kinetic step restricted to a single x-Fourier mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import SandwichViolation
from .fitting import fit_rate
from .spectral import (
    TWO_PI,
    AngularProfile,
    _readonly,
    diffusion_factor,
    profile_coeffs_from_values,
    profile_values_from_coeffs,
    split_step,
    theta_points,
)


def speed_constant(value: float = 1.0) -> Callable[[float], float]:
    return lambda t: value


def speed_decaying(tau: float) -> Callable[[float], float]:
    """v(t) = 1/2 + e^{-t/tau}/2, taking values in (1/2, 1]."""
    return lambda t: 0.5 + 0.5 * np.exp(-t / tau)


MAX_BETA = 1.0 / 4096.0


@dataclass(frozen=True)
class HypoWeights:
    """Weights alpha = beta^{1/2}/4, gamma = 4 beta^{3/2}; beta <= 1/4096.

    This parameterization saturates beta^2 = alpha * gamma, the relation
    the comparison bounds require.
    """

    beta: float = MAX_BETA

    def __post_init__(self):
        if not (0.0 < self.beta <= MAX_BETA):
            raise ValueError(f"beta must lie in (0, 1/4096], got {self.beta}")

    @property
    def alpha(self) -> float:
        return np.sqrt(self.beta) / 4.0

    @property
    def gamma(self) -> float:
        return 4.0 * self.beta**1.5


@dataclass(frozen=True)
class ModeState:
    """State of one x-Fourier mode: eta_k(theta) at time t."""

    k: tuple[int, int]
    eta: AngularProfile
    t: float
    nu: float
    v: Callable[[float], float] = speed_constant()

    def __post_init__(self):
        if self.k == (0, 0):
            raise ValueError("ModeState requires k != (0,0)")
        if self.nu <= 0:
            raise ValueError("nu must be positive")

    @property
    def k_norm(self) -> float:
        return float(np.hypot(self.k[0], self.k[1]))

    @property
    def theta_k(self) -> float:
        return float(np.arctan2(self.k[1], self.k[0]))

    @property
    def zeta(self) -> float:
        return min(1.0, np.sqrt(self.nu * self.k_norm) * self.t)


@lru_cache(maxsize=64)
def transport_factor(k: tuple[int, int], n: int, v: float, dt: float) -> np.ndarray:
    """Read-only exp(-i v p(theta).k dt/2) on the n theta points: one transport half-step."""
    th = theta_points(n)
    pk = k[0] * np.cos(th) + k[1] * np.sin(th)
    return _readonly(np.exp(-1j * v * pk * (0.5 * dt)))


def step_mode(s: ModeState, dt: float) -> ModeState:
    """One ``split_step`` with exact transport and diffusion sub-propagators.

    Transport multiplies pointwise in theta-collocation space by
    exp(-i v p(theta).k dt/2); diffusion multiplies coefficients by
    exp(-nu l^2 dt).  v(t) is sampled at the sub-step midpoints.  The L2
    norm never increases.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = s.eta.n

    def transport(coeffs, t_mid):
        values = profile_values_from_coeffs(coeffs)
        values *= transport_factor(s.k, n, s.v(t_mid), dt)
        return profile_coeffs_from_values(values)

    coeffs = split_step(s.eta.coeffs, s.t, dt, diffusion_factor(n, s.nu, dt), transport=transport)
    return replace(s, eta=AngularProfile(coeffs), t=s.t + dt)


def mode_hm1_norm(s: ModeState) -> float:
    """Single-mode homogeneous H^{-1}: coefficients weighted by (|k|^2+l^2)^{-1/2}."""
    l = s.eta.l.astype(np.float64)
    w = 1.0 / (s.k_norm**2 + l**2)
    return float(np.sqrt(TWO_PI * np.sum(w * np.abs(s.eta.coeffs) ** 2)))


@dataclass(frozen=True)
class HypoTerms:
    l2: float
    alpha_term: float
    beta_term: float
    gamma_term: float

    @property
    def total(self) -> float:
        return self.l2 + self.alpha_term + self.beta_term + self.gamma_term


def hypo_functional(s: ModeState, w: HypoWeights = HypoWeights()) -> HypoTerms:
    """Evaluate the four terms of the weighted energy at the current state."""
    n = s.eta.n
    quad = TWO_PI / n
    th = theta_points(n)
    sinw = np.sin(th - s.theta_k)
    eta = s.eta.values
    deta = s.eta.derivative().values
    zeta = s.zeta
    ratio = np.sqrt(s.nu / s.k_norm)

    l2 = quad * float(np.sum(np.abs(eta) ** 2))
    d2 = quad * float(np.sum(np.abs(deta) ** 2))
    s2 = quad * float(np.sum(np.abs(sinw * eta) ** 2))
    cross = quad * float(np.real(np.sum(1j * sinw * eta * np.conj(deta))))

    return HypoTerms(
        l2=l2,
        alpha_term=w.alpha * zeta * ratio * d2,
        beta_term=-w.beta * zeta**2 * cross,
        gamma_term=w.gamma * zeta**3 / ratio * s2,
    )


def comparison_sandwich(s: ModeState, w: HypoWeights = HypoWeights()) -> tuple[float, float, float]:
    """Bounds lower <= F <= upper with factors 1/2 and 3/2 on the diagonal terms.

    Raises SandwichViolation if the bounds fail beyond round-off; that
    signals a convention bug, not a numerical accident.
    """
    terms = hypo_functional(s, w)
    diagonal = terms.alpha_term + terms.gamma_term
    lower = terms.l2 + 0.5 * diagonal
    upper = terms.l2 + 1.5 * diagonal
    value = terms.total
    tol = 1e-12 * (1.0 + abs(value))
    if value < lower - tol or value > upper + tol:
        raise SandwichViolation(
            f"comparison bounds violated at t={s.t}: {lower} <= {value} <= {upper} fails"
        )
    return lower, value, upper


@dataclass(frozen=True)
class ModeSeries:
    """Sampled diagnostics along one per-mode trajectory."""

    k: tuple[int, int]
    nu: float
    t: np.ndarray
    norm_l2: np.ndarray
    norm_hm1: np.ndarray
    f_hypo: np.ndarray
    f_lower: np.ndarray
    f_upper: np.ndarray
    zeta: np.ndarray


def evolve_mode(
    s: ModeState,
    dt: float,
    n_steps: int,
    weights: HypoWeights = HypoWeights(),
    sample_every: int = 1,
) -> tuple[ModeState, ModeSeries]:
    """Advance n_steps, sampling norms and the sandwich every sample_every steps."""
    rows = []

    def sample(state):
        lo, val, up = comparison_sandwich(state, weights)
        rows.append(
            (state.t, state.eta.norm_l2(), mode_hm1_norm(state), val, lo, up, state.zeta)
        )

    sample(s)
    for i in range(n_steps):
        s = step_mode(s, dt)
        if (i + 1) % sample_every == 0 or i == n_steps - 1:
            sample(s)
    cols = [np.asarray(c) for c in zip(*rows)]
    series = ModeSeries(s.k, s.nu, *cols)
    return s, series


# ---------------------------------------------------------------------------
# Rate measurements
# ---------------------------------------------------------------------------

UNDERFLOW_FLOOR = 1e-13


@dataclass(frozen=True)
class RateFit:
    rate: float
    stderr: float
    window: tuple[float, float]
    n_points: int


def measure_ed_rate(
    k: tuple[int, int],
    nu: float,
    eta0: AngularProfile,
    horizon: float,
    dt: float | None = None,
    v: Callable[[float], float] = speed_constant(),
) -> RateFit:
    """Fit the enhanced-dissipation decay rate of ||eta_k(t)||_L2.

    The fit window starts at one enhanced-dissipation time
    (nu |k|)^{-1/2} to skip the ramp transient; the fit stops once the
    norm falls below 1e-13 of its initial value.
    """
    s = ModeState(k=k, eta=eta0, t=0.0, nu=nu, v=v)
    t_ed = 1.0 / np.sqrt(nu * s.k_norm)
    if horizon < 5.0 * t_ed:
        raise ValueError(f"horizon must be at least 5 * {t_ed:.3g}")
    n0 = eta0.norm_l2()
    if n0 == 0.0:
        raise ValueError("eta0 must be nonzero")
    if dt is None:
        dt = min(0.05, t_ed / 50.0)
    n_steps = int(np.ceil(horizon / dt))
    sample_every = max(1, n_steps // 2000)

    ts, norms = [], []
    for i in range(n_steps):
        s = step_mode(s, dt)
        if (i + 1) % sample_every == 0:
            ts.append(s.t)
            norms.append(s.eta.norm_l2())
    ts = np.asarray(ts)
    norms = np.asarray(norms)
    keep = (ts >= t_ed) & (norms > UNDERFLOW_FLOOR * n0)
    slope, stderr = fit_rate(ts[keep], norms[keep])
    return RateFit(rate=-slope, stderr=stderr, window=(t_ed, float(ts[keep][-1])), n_points=int(keep.sum()))


@dataclass(frozen=True)
class MixingCurve:
    t: np.ndarray
    norm_hm1: np.ndarray
    slope: float
    stderr: float


def require_mixing_window(nu: float, horizon: float) -> None:
    """Raise ValueError unless horizon <= 2 nu^{-1/2}, where phase mixing is seen."""
    if horizon > 2.0 / np.sqrt(nu):
        raise ValueError("horizon beyond 2 nu^{-1/2} leaves the mixing window")


def mixing_curve(
    k: tuple[int, int],
    nu: float,
    eta0: AngularProfile,
    horizon: float,
    dt: float = 0.05,
    v: Callable[[float], float] = speed_constant(),
) -> MixingCurve:
    """Sample the per-mode H^{-1} norm and fit its algebraic decay exponent.

    The companion fit is log-log on t in [1, nu^{-1/2}], where phase
    mixing produces the t^{-1/2} law before the enhanced-dissipation
    time takes over.
    """
    require_mixing_window(nu, horizon)
    s = ModeState(k=k, eta=eta0, t=0.0, nu=nu, v=v)
    ts = [0.0]
    norms = [mode_hm1_norm(s)]
    n_steps = int(np.ceil(horizon / dt))
    for _ in range(n_steps):
        s = step_mode(s, dt)
        ts.append(s.t)
        norms.append(mode_hm1_norm(s))
    ts = np.asarray(ts)
    norms = np.asarray(norms)
    t_hi = min(horizon, 1.0 / np.sqrt(nu))
    slope, stderr = fit_rate(ts, norms, window=(1.0, t_hi), loglog=True)
    return MixingCurve(t=ts, norm_hm1=norms, slope=slope, stderr=stderr)


# ---------------------------------------------------------------------------
# Vector fields J_k^+- and their cutoffs
# ---------------------------------------------------------------------------


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


def wrap_angle(x: np.ndarray) -> np.ndarray:
    """Wrap angles into [-pi, pi)."""
    return np.mod(np.asarray(x) + np.pi, TWO_PI) - np.pi


def cutoff_chi(n: int, theta_k: float, width: float = TWO_PI / 3.0) -> np.ndarray:
    """Smooth bump supported on |theta - theta_k| < width, equal to 1 at theta_k."""
    u = wrap_angle(theta_points(n) - theta_k) / width
    out = np.zeros(n)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out
