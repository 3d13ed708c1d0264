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
x-Fourier modes, with one ``transport_factor`` table per stack.
``evolve_mode`` advances a stack of modes, one row per (k, nu) with its
own step count and sampling cadence, through ``spectral.evolve_rows``,
the one run loop of the three PDE layers, which keeps the sample log.
A sample records per row, on the coefficients, only the sums that
depend on eta (``_Sums``), checked here for NaN and overflow: of one
p = |eta_l|^2, the sums that give the L2 and H^{-1} norms and
||d_theta eta||^2, and the two lagged sums sum_l eta_{l-1} conj eta_{l+1}
and an l-weighted sum_l eta_{l-1} conj eta_l that give the
sin(theta - theta_k) terms.  Once the run ends, each row's norms,
weighted energy and comparison sandwich come from its sums in one pass
over its samples.  The per-row constants (the ramp's rate,
(nu/|k|)^{1/2}, e^{-i theta_k}, the H^{-1} weights) are built once per
stack; a single state is a batch of one.  ``measure_ed_rate`` runs
``evolve_mode`` batches, one per time step of its states' ``ed_schedule``;
``mixing_curve`` runs one stack, recording only the H^{-1} sum, every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import due, step_times
from .errors import NumericsError, SandwichViolation
from .fitting import MIN_SAMPLES, fit_rate
from .spectral import (
    TWO_PI,
    AngularProfile,
    _check_dt,
    evolve_rows,
    fft_wavenumbers,
    split_step,
    theta_derivative,
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

    @cached_property
    def alpha(self) -> float:
        return np.sqrt(self.beta) / 4.0

    @cached_property
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
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be finite and > 0, got {self.nu}")

    @cached_property
    def k_norm(self) -> float:
        return float(np.hypot(self.k[0], self.k[1]))

    @cached_property
    def theta_k(self) -> float:
        return float(np.arctan2(self.k[1], self.k[0]))


def _mode_step(states: Sequence[ModeState], dt: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """``split_step`` at kappa = 0 of a stack of modes: (c, t) -> c at t + dt.

    Row j of c is states[j]'s eta, advanced with that state's k, nu and
    speed; the states share n_theta.  Transport is ``spectral.transport``
    with one ``transport_factor`` table of the rows' k and v h.
    """
    n = states[0].eta.n
    k1, k2 = zip(*(s.k for s in states))
    nus = tuple(s.nu for s in states)

    def advect(coeffs, t_mid, h):
        return transport(coeffs, transport_factor(k1, k2, n, tuple(s.v(t_mid) * h for s in states)))

    return lambda c, t: split_step(c, t, dt, nus, advect=advect)


@dataclass(frozen=True)
class _ModeRows:
    """Constants of a stack of modes, per row and of the shared grid, built once per stack.

    Each row's are built as for a single state, so a row's samples do not
    depend on the stack it runs in; ``rows[j]`` keeps row j's.
    """

    rate: np.ndarray  # (nu |k|)^{1/2}: the ramp zeta = min(1, rate t)
    scale: np.ndarray  # (nu/|k|)^{1/2}
    turn: np.ndarray  # e^{-i theta_k}
    turn2: np.ndarray  # e^{-2i theta_k}
    hm1_weight: np.ndarray  # 1/(|k|^2 + l^2), a row per mode
    dl2: np.ndarray  # l'^2, l' = l off the Nyquist mode (theta_derivative)
    lag_weight: np.ndarray  # l'_m + l'_{m+1}, cyclic in m

    @classmethod
    def of(cls, states: Sequence[ModeState]) -> "_ModeRows":
        n = states[0].eta.n
        l = fft_wavenumbers(n).astype(np.float64)
        dl = theta_derivative(n).imag
        theta_k = np.array([s.theta_k for s in states])
        return cls(
            rate=np.array([np.sqrt(s.nu * s.k_norm) for s in states]),
            scale=np.array([np.sqrt(s.nu / s.k_norm) for s in states]),
            turn=np.exp(-1j * theta_k),
            turn2=np.exp(-2j * theta_k),
            hm1_weight=1.0 / (np.array([[s.k_norm**2] for s in states]) + l**2),
            dl2=dl**2,
            lag_weight=dl + np.roll(dl, -1),
        )

    def __getitem__(self, idx) -> "_ModeRows":
        return _ModeRows(
            self.rate[idx], self.scale[idx], self.turn[idx], self.turn2[idx], self.hm1_weight[idx],
            self.dl2, self.lag_weight,
        )

    def zeta(self, t) -> np.ndarray:
        """The ramps zeta = min(1, (nu |k|)^{1/2} t): of each row at one t, or of one row at each t."""
        return np.minimum(1.0, self.rate * t)


class _Sums(NamedTuple):
    """What a sample records of eta: five sums over l, per row of a stack or per sample of one row.

    p = |eta_l|^2, l' = l off the Nyquist mode, and indices are cyclic in the FFT layout.
    """

    total: np.ndarray  # sum_l p_l
    d2: np.ndarray  # sum_l l'^2 p_l
    hm1: np.ndarray  # sum_l p_l / (|k|^2 + l^2)
    lag1: np.ndarray  # sum_m (l'_m + l'_{m+1}) eta_m conj eta_{m+1}
    lag2: np.ndarray  # sum_m eta_m conj eta_{m+2}


def _stack_sums(eta: np.ndarray, rows: _ModeRows, idx=slice(None)) -> _Sums:
    """The ``_Sums`` of a stack eta[j] of the rows ``idx`` of ``rows``."""
    n = eta.shape[-1]
    p = np.abs(eta) ** 2
    # conj eta_{m+1} and conj eta_{m+2} for m = 0 .. n-1: each row with its first two appended
    ahead = np.concatenate((eta, eta[:, :2]), axis=-1)
    np.conjugate(ahead, out=ahead)
    return _Sums(
        total=p.sum(axis=-1),
        d2=(rows.dl2 * p).sum(axis=-1),
        hm1=(rows.hm1_weight[idx] * p).sum(axis=-1),
        lag1=(rows.lag_weight * eta * ahead[:, 1:n + 1]).sum(axis=-1),
        lag2=(eta * ahead[:, 2:]).sum(axis=-1),
    )


def _hm1_norm(hm1: np.ndarray) -> np.ndarray:
    """The single-mode homogeneous H^{-1} norm, coefficients weighted by (|k|^2+l^2)^{-1/2}, from the ``_Sums.hm1`` sums."""
    return np.sqrt(TWO_PI * hm1)


@dataclass(frozen=True)
class HypoTerms:
    """The four terms of the weighted energy: floats, or arrays over rows or samples."""

    l2: float
    alpha_term: float
    beta_term: float
    gamma_term: float

    @property
    def total(self) -> float:
        return self.l2 + self.alpha_term + self.beta_term + self.gamma_term


def _hypo_terms(sums: _Sums, rows: _ModeRows, zeta: np.ndarray, w: HypoWeights) -> HypoTerms:
    """The four terms from the ``_Sums`` of eta, with the rows' constants and ramps zeta.

    sin(theta - theta_k) eta has coefficients (e^{-i theta_k} eta_{l-1} -
    e^{i theta_k} eta_{l+1}) / 2i, which on an even grid is exact for the
    product of the collocation values, so

        2pi ||sin(theta - theta_k) eta||^2 = pi [sum_l p_l - Re(e^{-2i theta_k} sum_l eta_{l-1} conj eta_{l+1})],
        2pi Re<i sin(theta - theta_k) eta, d_theta eta>
            = pi Im(e^{-i theta_k} sum_l (l'_l + l'_{l-1}) eta_{l-1} conj eta_l),

    and 2pi ||d_theta eta||^2 = 2pi sum_l l'^2 p_l.
    """
    d2 = TWO_PI * sums.d2
    s2 = np.pi * (sums.total - np.real(rows.turn2 * sums.lag2))
    cross = np.pi * np.imag(rows.turn * sums.lag1)
    zeta2 = zeta * zeta
    alpha = w.alpha * zeta * rows.scale
    beta = -w.beta * zeta2
    gamma = w.gamma * (zeta2 * zeta) / rows.scale
    return HypoTerms(l2=TWO_PI * sums.total, alpha_term=alpha * d2, beta_term=beta * cross, gamma_term=gamma * s2)


def _sandwich(terms: HypoTerms) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The comparison bounds lower <= F <= upper (factors 1/2 and 3/2 on the diagonal terms) from the terms, and where F leaves them beyond round-off."""
    diagonal = terms.alpha_term + terms.gamma_term
    lower = terms.l2 + 0.5 * diagonal
    upper = terms.l2 + 1.5 * diagonal
    value = terms.total
    tol = 1e-12 * (1.0 + np.abs(value))
    return lower, value, upper, (value < lower - tol) | (value > upper + tol)


def _violation(s: ModeState, t: float, lower: float, value: float, upper: float) -> SandwichViolation:
    return SandwichViolation(
        f"comparison bounds violated at t={t} for k={s.k}, nu={s.nu:g}: {lower} <= {value} <= {upper} fails"
    )


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


def _mode_batch(s: ModeState | Sequence[ModeState], name: str) -> list[ModeState]:
    """s as a list of states; ValueError if it is empty or its states differ in t or n_theta."""
    states = [s] if isinstance(s, ModeState) else list(s)
    if not states:
        raise ValueError(f"{name} needs at least one mode state")
    if any((x.t, x.eta.n) != (states[0].t, states[0].eta.n) for x in states):
        raise ValueError("batched mode states must share t and n_theta")
    return states


def _evolve_modes(
    states: Sequence[ModeState], dt: float, n_steps, every,
    sums: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """``spectral.evolve_rows`` over the states' eta, stepped by ``_mode_step``: (final c, series).

    At each sample, ``sums(idx, eta)`` gives per-row sums of the stack eta of rows idx.  The
    first must be finite: else NumericsError names the t, k and nu of the first row where it
    is not, at that sample.  Row j's series is (t, *sums), arrays over its ``sample_times``.
    """

    def sample(idx, eta, t):
        got = sums(idx, eta)
        finite = np.isfinite(got[0])
        if not finite.all():
            bad = states[idx[np.argmin(finite)]]
            raise NumericsError(f"NaN or overflow in per-mode evolution at t={t} for k={bad.k}, nu={bad.nu:g}")
        return got

    return evolve_rows(
        np.stack([x.eta.coeffs for x in states]), states[0].t, dt, n_steps, every,
        lambda idx: _mode_step([states[j] for j in idx], dt), sample,
    )


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
    step.  A sample records only the row's ``_Sums`` of eta; once the run
    ends, each row's norms, weighted energy and bounds come from them in
    one pass over its samples.  Raises NumericsError at a sample whose
    sum of |eta_l|^2 is not finite (a NaN, or a finite |eta| above about
    1e154 whose square overflows), naming the row's k and nu and the t;
    after the run, SandwichViolation names the first violating sample,
    the earliest t and then the first row.
    """
    states = _mode_batch(s, "evolve_mode")
    consts = _ModeRows.of(states)
    c, samples = _evolve_modes(
        states, dt, n_steps, sample_every, lambda idx, eta: _stack_sums(eta, consts, idx)
    )
    out, violations = [], []
    for j, (x, eta, (t, *cols)) in enumerate(zip(states, c, samples)):
        row, sums = consts[j], _Sums(*cols)
        zeta = row.zeta(t)
        terms = _hypo_terms(sums, row, zeta, weights)
        lower, value, upper, bad = _sandwich(terms)
        if bad.any():
            i = int(np.argmax(bad))
            violations.append((t[i], j, _violation(x, t[i], lower[i], value[i], upper[i])))
        series = ModeSeries(x.k, x.nu, t, np.sqrt(terms.l2), _hm1_norm(sums.hm1), value, lower, upper, zeta)
        out.append((replace(x, eta=AngularProfile(eta), t=float(t[-1])), series))
    if violations:
        raise min(violations, key=lambda v: v[:2])[2]
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


def _steps_to(horizon: float, dt: float) -> int:
    """ceil(horizon / dt), the steps of a run to horizon; ValueError if that is no finite count."""
    n = float(horizon) / dt
    if not math.isfinite(n):
        raise ValueError(f"a run to {horizon:g} at dt = {dt:g} takes no finite number of steps")
    return math.ceil(n)


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
    n_steps = _steps_to(horizon_factor * t_ed, dt)
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
    states = _mode_batch(s, "measure_ed_rate")
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
    t = sample_times(0.0, dt, _steps_to(horizon, dt), 1)
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

    The states run to ``horizon`` as one stack, stepped as by ``evolve_mode``;
    a sample records only each row's ``_Sums.hm1``, and the norms come from
    them once the run ends.  NumericsError names the t, k and nu of a row
    whose sum is not finite.  The fit is log-log on the ``mixing_window``
    [1, nu^{-1/2}], where phase mixing produces the t^{-1/2} law before the
    enhanced-dissipation time takes over.
    """
    states = _mode_batch(s, "mixing_curve")
    windows = [mixing_window(x.nu, horizon, dt) for x in states]
    consts = _ModeRows.of(states)
    _, samples = _evolve_modes(
        states, dt, _steps_to(horizon, dt), 1,
        lambda idx, eta: ((consts.hm1_weight[idx] * np.abs(eta) ** 2).sum(axis=-1),),
    )
    curves = []
    for window, (t, hm1) in zip(windows, samples):
        norm_hm1 = _hm1_norm(hm1)
        slope, stderr = fit_rate(t, norm_hm1, window=window, loglog=True)
        curves.append(MixingCurve(t=t, norm_hm1=norm_hm1, slope=slope, stderr=stderr))
    return curves[0] if isinstance(s, ModeState) else curves


def wrap_angle(x: np.ndarray, shift: float = np.pi, out: np.ndarray | None = None) -> np.ndarray:
    """Wrap angles into [-shift, 2pi - shift), bit for bit np.mod(x + shift, 2pi) - shift.

    Where every x + shift lies in [-2pi, 4pi), np.mod is one conditional
    2pi shift: its fmod is exact there (Sterbenz) and numpy adds the
    divisor to a negative remainder the same way, so no fmod is needed.
    An array with anything outside, such as a noise jump of more than one
    period or a NaN, takes np.mod whole.  (Like np.mod, a tiny negative
    x + shift rounds up to 2pi - shift.)  The result goes to ``out`` if
    given (float64 of x's shape, x itself allowed), else to a new array.
    """
    # x + 0.0 also turns -0.0 into +0.0, as np.mod does
    a = np.add(x, shift, out=np.empty(np.shape(x)) if out is None else out)
    if a.size and not (-TWO_PI <= a.min() and a.max() < 2 * TWO_PI):
        np.mod(a, TWO_PI, out=a)
    else:
        np.subtract(a, TWO_PI, out=a, where=a >= TWO_PI)
        np.add(a, TWO_PI, out=a, where=a < 0.0)
    a -= shift
    return a
