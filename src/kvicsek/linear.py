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

The step is ``spectral.split_step`` at kappa = 0 with the kinetic
layer's ``spectral.transport``: the kinetic step restricted to single
x-Fourier modes.  ``evolve_mode`` advances a stack of modes, one row per
(k, nu) with its own step count and sampling cadence, through
``spectral.evolve_rows`` (shared with the homogeneous layer), and
evaluates the norms and the comparison sandwich row-wise by Parseval
sums; ``step_mode`` and a single-state ``evolve_mode`` are batches of
one.  The two measurements are ``evolve_mode`` batches too:
``measure_ed_rate`` runs its states on their ``ed_schedule``, one stack
per time step, and ``mixing_curve`` runs its states as one stack sampled
every step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .config import due, step_times
from .errors import NumericsError, SandwichViolation
from .fitting import MIN_SAMPLES, fit_rate
from .spectral import (
    TWO_PI,
    AngularProfile,
    _check_dt,
    diffusion_factor,
    evolve_rows,
    fft_wavenumbers,
    split_step,
    theta_derivative,
    theta_points,
    transport,
    transport_factor,
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

    @cached_property
    def k_norm(self) -> float:
        return float(np.hypot(self.k[0], self.k[1]))

    @cached_property
    def theta_k(self) -> float:
        return float(np.arctan2(self.k[1], self.k[0]))

    @property
    def zeta(self) -> float:
        return _ramp(self, self.t)


def _ramp(s: ModeState, t: float) -> float:
    """zeta = min(1, (nu |k|)^{1/2} t) of s's mode at time t."""
    return min(1.0, np.sqrt(s.nu * s.k_norm) * t)


def _mode_step(states: Sequence[ModeState], dt: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """``split_step`` at kappa = 0 of a stack of modes: (c, t) -> c at t + dt.

    Row j of c is states[j]'s eta, advanced with that state's k, nu and
    speed; the states share n_theta.  Transport is ``spectral.transport``
    with each row's ``transport_factor`` row ((k1,), (k2,)), v(t) sampled
    at the sub-step midpoints; diffusion multiplies coefficients by
    exp(-nu l^2 dt).
    """
    n = states[0].eta.n
    heat = np.array([diffusion_factor(n, s.nu, dt) for s in states])

    def advect(coeffs, t_mid):
        rows = [transport_factor((s.k[0],), (s.k[1],), n, s.v(t_mid) * (0.5 * dt)) for s in states]
        return transport(coeffs, np.array(rows)[:, 0, 0])

    return lambda c, t: split_step(c, t, dt, heat, advect=advect)


def step_mode(s: ModeState, dt: float) -> ModeState:
    """One ``split_step`` with exact transport and diffusion sub-propagators.

    A batch of one of the stepper behind ``evolve_mode``.  The L2 norm
    never increases.
    """
    coeffs = _mode_step([s], dt)(s.eta.coeffs[None], s.t)[0]
    return replace(s, eta=AngularProfile(coeffs), t=s.t + dt)


def _hm1_rows(eta: np.ndarray, states: Sequence[ModeState]) -> np.ndarray:
    """Per-row ``mode_hm1_norm`` of a stack of modes eta[j] with states[j]'s k."""
    l = fft_wavenumbers(eta.shape[-1]).astype(np.float64)
    w = 1.0 / (np.array([[s.k_norm**2] for s in states]) + l**2)
    return np.sqrt(TWO_PI * np.sum(w * np.abs(eta) ** 2, axis=-1))


def mode_hm1_norm(s: ModeState) -> float:
    """Single-mode homogeneous H^{-1}: coefficients weighted by (|k|^2+l^2)^{-1/2}."""
    return float(_hm1_rows(s.eta.coeffs[None], [s])[0])


@dataclass(frozen=True)
class HypoTerms:
    """The four terms of the weighted energy: floats, or arrays over the rows of a stack."""

    l2: float
    alpha_term: float
    beta_term: float
    gamma_term: float

    @property
    def total(self) -> float:
        return self.l2 + self.alpha_term + self.beta_term + self.gamma_term


def _hypo_rows(eta: np.ndarray, states: Sequence[ModeState], t: float, w: HypoWeights) -> HypoTerms:
    """The four terms for a stack of modes eta[j] (states[j]'s k, nu) at time t, by Parseval sums."""
    n = eta.shape[-1]
    deta = theta_derivative(n) * eta
    # sin(theta - theta_k) eta: (e^{-i theta_k} eta(l-1) - e^{i theta_k} eta(l+1)) / 2i, cyclic in l,
    # which on an even grid is exact for the product of the collocation values
    turn = np.exp(1j * np.array([[s.theta_k] for s in states]))
    seta = (np.conj(turn) * np.roll(eta, 1, axis=-1) - turn * np.roll(eta, -1, axis=-1)) / 2j
    # the per-row weights in scalar arithmetic, as for a single state
    zr = [(_ramp(s, t), np.sqrt(s.nu / s.k_norm)) for s in states]
    alpha, beta, gamma = np.array(
        [(w.alpha * z * r, -w.beta * z**2, w.gamma * z**3 / r) for z, r in zr]
    ).T

    l2 = TWO_PI * np.sum(np.abs(eta) ** 2, axis=-1)
    d2 = TWO_PI * np.sum(np.abs(deta) ** 2, axis=-1)
    s2 = TWO_PI * np.sum(np.abs(seta) ** 2, axis=-1)
    cross = TWO_PI * np.real(np.sum(1j * seta * np.conj(deta), axis=-1))
    return HypoTerms(l2=l2, alpha_term=alpha * d2, beta_term=beta * cross, gamma_term=gamma * s2)


def hypo_functional(s: ModeState, w: HypoWeights = HypoWeights()) -> HypoTerms:
    """Evaluate the four terms of the weighted energy at the current state."""
    terms = _hypo_rows(s.eta.coeffs[None], [s], s.t, w)
    return HypoTerms(*(float(getattr(terms, f.name)[0]) for f in fields(HypoTerms)))


def _sandwich_rows(
    terms: HypoTerms, states: Sequence[ModeState], t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``comparison_sandwich`` of the ``_hypo_rows`` terms of states at time t."""
    diagonal = terms.alpha_term + terms.gamma_term
    lower = terms.l2 + 0.5 * diagonal
    upper = terms.l2 + 1.5 * diagonal
    value = terms.total
    tol = 1e-12 * (1.0 + np.abs(value))
    bad = (value < lower - tol) | (value > upper + tol)
    if np.count_nonzero(bad):
        j = int(np.argmax(bad))
        raise SandwichViolation(
            f"comparison bounds violated at t={t} for k={states[j].k}, nu={states[j].nu:g}: "
            f"{lower[j]} <= {value[j]} <= {upper[j]} fails"
        )
    return lower, value, upper


def comparison_sandwich(s: ModeState, w: HypoWeights = HypoWeights()) -> tuple[float, float, float]:
    """Bounds lower <= F <= upper with factors 1/2 and 3/2 on the diagonal terms.

    Raises SandwichViolation if the bounds fail beyond round-off; that
    signals a convention bug, not a numerical accident.
    """
    terms = _hypo_rows(s.eta.coeffs[None], [s], s.t, w)
    return tuple(float(x[0]) for x in _sandwich_rows(terms, [s], s.t))


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


def sample_times(t0: float, dt: float, n_steps: int, sample_every: int) -> np.ndarray:
    """The times at which ``evolve_mode`` samples a row: ``step_times`` where ``due``."""
    return step_times(t0, dt, n_steps)[due(np.arange(n_steps + 1), n_steps, sample_every)]


def evolve_mode(
    s: ModeState | Sequence[ModeState],
    dt: float,
    n_steps: int | Sequence[int],
    weights: HypoWeights = HypoWeights(),
    sample_every: int | Sequence[int] = 1,
) -> tuple[ModeState, ModeSeries] | list[tuple[ModeState, ModeSeries]]:
    """Advance n_steps, sampling norms and the sandwich every sample_every steps.

    ``s`` is one state or a sequence of states that share t and n_theta;
    k, nu and the speed may differ per state, and ``n_steps`` and
    ``sample_every`` are one int or one per state.  A sequence is stepped
    as one stack of rows, each row leaving the stack after its last step,
    and gives one (final state, series) pair per state, in order.  Each
    row is sampled at the start, every sample_every steps and at its last
    step.  Raises NumericsError (NaN) or SandwichViolation at a sample,
    naming the row's k and nu.
    """
    states = [s] if isinstance(s, ModeState) else list(s)
    if not states:
        raise ValueError("evolve_mode needs at least one mode state")
    if any((x.t, x.eta.n) != (states[0].t, states[0].eta.n) for x in states):
        raise ValueError("batched mode states must share t and n_theta")
    rows = [[] for _ in states]

    def sample(idx, eta, t):
        picked = [states[j] for j in idx]
        terms = _hypo_rows(eta, picked, t, weights)
        l2 = np.sqrt(terms.l2)
        finite = np.isfinite(l2)
        if not finite.all():
            bad = picked[int(np.argmin(finite))]
            raise NumericsError(f"NaN in per-mode evolution at t={t} for k={bad.k}, nu={bad.nu:g}")
        lo, val, up = _sandwich_rows(terms, picked, t)
        hm1 = _hm1_rows(eta, picked)
        for j, x, *cols in zip(idx, picked, l2, hm1, val, lo, up):
            rows[j].append((t, *cols, _ramp(x, t)))

    c = evolve_rows(
        np.stack([x.eta.coeffs for x in states]), states[0].t, dt, n_steps, sample_every,
        lambda idx: _mode_step([states[j] for j in idx], dt), sample,
    )
    out = []
    for x, eta, samples in zip(states, c, rows):
        final = replace(x, eta=AngularProfile(eta), t=float(samples[-1][0]))
        out.append((final, ModeSeries(x.k, x.nu, *(np.asarray(col) for col in zip(*samples)))))
    return out[0] if isinstance(s, ModeState) else out


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
    series: ModeSeries


def ed_schedule(s: ModeState, horizon_factor: float) -> tuple[float, float, int, int]:
    """(t_ed, dt, n_steps, sample_every) of ``measure_ed_rate`` for s's mode.

    t_ed = (nu |k|)^{-1/2}; the run lasts horizon_factor t_ed at
    dt = min(0.05, t_ed/50), sampled every max(1, n_steps // 2000) steps.
    Raises ValueError unless horizon_factor > 0 and MIN_SAMPLES of those
    samples fall at or after t_ed, where the rate fit starts.
    """
    if not horizon_factor > 0:
        raise ValueError(f"horizon_factor must be > 0, got {horizon_factor}")
    t_ed = 1.0 / np.sqrt(s.nu * s.k_norm)
    dt = min(0.05, t_ed / 50.0)
    n_steps = int(np.ceil(horizon_factor * t_ed / dt))
    every = max(1, n_steps // 2000)
    n_fit = np.count_nonzero(sample_times(s.t, dt, n_steps, every) >= s.t + t_ed)
    if n_fit < MIN_SAMPLES:
        raise ValueError(
            f"k={s.k}, nu={s.nu:g}: {n_fit} samples after t_ed = {t_ed:.3g}, "
            f"the rate fit needs {MIN_SAMPLES}; raise horizon_factor"
        )
    return t_ed, dt, n_steps, every


def measure_ed_rate(
    s: ModeState | Sequence[ModeState],
    horizon_factor: float = 5.0,
    weights: HypoWeights = HypoWeights(),
) -> RateFit | list[RateFit]:
    """Fit the enhanced-dissipation decay rate of ||eta_k(t)||_L2, one fit per state.

    Each state runs on its ``ed_schedule``, one ``evolve_mode`` stack per
    dt.  The fit starts t_ed after the start, past the ramp transient,
    and stops once the norm falls below UNDERFLOW_FLOOR of its start.
    """
    states = [s] if isinstance(s, ModeState) else list(s)
    if not states:
        raise ValueError("measure_ed_rate needs at least one mode state")
    plans = [ed_schedule(x, horizon_factor) for x in states]
    if any(x.eta.norm_l2() == 0.0 for x in states):
        raise ValueError("eta0 must be nonzero")
    series = [None] * len(states)
    for dt in sorted({p[1] for p in plans}):
        group = [j for j, p in enumerate(plans) if p[1] == dt]
        out = evolve_mode(
            [states[j] for j in group], dt, [plans[j][2] for j in group],
            weights=weights, sample_every=[plans[j][3] for j in group],
        )
        for j, (_, ser) in zip(group, out):
            series[j] = ser
    fits = []
    for x, (t_ed, *_), ser in zip(states, plans, series):
        keep = (ser.t >= x.t + t_ed) & (ser.norm_l2 > UNDERFLOW_FLOOR * ser.norm_l2[0])
        slope, stderr = fit_rate(ser.t[keep], ser.norm_l2[keep])
        fits.append(RateFit(-slope, stderr, (x.t + t_ed, float(ser.t[keep][-1])), int(keep.sum()), ser))
    return fits[0] if isinstance(s, ModeState) else fits


@dataclass(frozen=True)
class MixingCurve:
    t: np.ndarray
    norm_hm1: np.ndarray
    slope: float
    stderr: float


def mixing_window(nu: float, horizon: float, dt: float) -> tuple[float, float]:
    """The log-log fit window [1, min(horizon, nu^{-1/2})] of ``mixing_curve``.

    Raises ValueError unless dt is finite and > 0, horizon <= 2 nu^{-1/2}, where
    phase mixing is seen, and the window holds MIN_SAMPLES of the curve's sample times.
    """
    _check_dt(dt)
    if horizon > 2.0 / np.sqrt(nu):
        raise ValueError("horizon beyond 2 nu^{-1/2} leaves the mixing window")
    window = (1.0, min(horizon, 1.0 / np.sqrt(nu)))
    t = sample_times(0.0, dt, int(np.ceil(horizon / dt)), 1)
    n = np.count_nonzero((t >= window[0]) & (t <= window[1]))
    if n < MIN_SAMPLES:
        raise ValueError(
            f"the mixing fit window [1, {window[1]:.3g}] holds {n} samples at dt={dt:g}, "
            f"the fit needs {MIN_SAMPLES}"
        )
    return window


def mixing_curve(
    s: ModeState | Sequence[ModeState], horizon: float, dt: float = 0.05
) -> MixingCurve | list[MixingCurve]:
    """Sample the per-mode H^{-1} norm every step and fit its algebraic decay exponent.

    The states run to ``horizon`` as one ``evolve_mode`` stack.  The fit
    is log-log on the ``mixing_window`` [1, nu^{-1/2}], where phase
    mixing produces the t^{-1/2} law before the enhanced-dissipation
    time takes over.
    """
    states = [s] if isinstance(s, ModeState) else list(s)
    windows = [mixing_window(x.nu, horizon, dt) for x in states]
    curves = []
    for window, (_, ser) in zip(windows, evolve_mode(states, dt, int(np.ceil(horizon / dt)))):
        slope, stderr = fit_rate(ser.t, ser.norm_hm1, window=window, loglog=True)
        curves.append(MixingCurve(t=ser.t, norm_hm1=ser.norm_hm1, slope=slope, stderr=stderr))
    return curves[0] if isinstance(s, ModeState) else curves


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
