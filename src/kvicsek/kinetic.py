"""Nonlinear kinetic solver on T^2 x T with the alignment operator.

The density f(t, x, theta) obeys

    d/dt f + v(t) p(theta) . grad_x f + kappa d_theta(f L[f])
        = nu d^2/dtheta^2 f,

with L[f] the (Phi, Psi) convolution.  The step is ``spectral.split_step``,
the Strang composition shared with the homogeneous and per-mode solvers:
exact transport and diffusion sub-propagators, and Heun's method for the
alignment flux, evaluated here pseudospectrally with 2/3-rule dealiasing
in all three indices, which keeps the total mass invariant to round-off.

f is real, so the step works on its half spectrum k2 >= 0, whose layout
lives in ``spectral``: it reads ``SpectralField.half`` on entry and
returns ``SpectralField.from_half`` on exit.  Transport is the per-mode
layer's ``spectral.transport`` with the Nyquist wavenumbers zeroed; the
flux product uses real-to-complex transforms over ``spectral.HALF_AXES``.
L[f] is built in real space from the angular planes where Psihat is nonzero
(``InfluencePair.psi_support``): one 2-D x-transform per plane, then one
real theta-transform.  For Psi = sin that is a single plane; for a dense
Psihat it is an ordinary inverse real transform.  Everything the step
reuses is cached read-only: the dealias mask, the flux factor, the
transport factor for each repeated v h (one for a constant speed) and the
support planes of the multiplier (on the InfluencePair).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from .config import check_cadence, due, step_count, step_times
from .errors import NumericsError
from .influence import InfluencePair
from .linear import speed_constant
from .spectral import (
    HALF_AXES,
    TWO_PI,
    SpectralField,
    TorusGrid,
    _readonly,
    _unfold,
    diffusion_factor,
    norm,
    remainder,
    split_step,
    theta_derivative,
    transport,
    transport_factor,
    write_snapshot,
    x_average,
)


GAMMA_TILDE = 0.05  # exponent margin of the enhanced-dissipation regime
C_DAGGER = 1.0  # constant of the mixing regime


@dataclass(frozen=True)
class KineticParams:
    """Run parameters with the asymptotic-regime flags precomputed."""

    kappa: float
    nu: float
    grid: TorusGrid
    dt: float
    t_end: float
    v: Callable[[float], float] = speed_constant()

    def __post_init__(self):
        if not (0.0 <= self.kappa <= 1.0):
            raise ValueError("kappa must lie in [0, 1]")
        if not (0.0 < self.nu <= 1.0):
            raise ValueError("nu must lie in (0, 1]")
        if not all(np.isfinite(x) and x > 0 for x in (self.dt, self.t_end)):
            raise ValueError("dt and t_end must be finite and positive")

    @property
    def ed_regime(self) -> bool:
        """Enhanced-dissipation regime: kappa <= nu^{5/6 + GAMMA_TILDE}.

        A ratio kappa/nu > 2 (the ordered phase) lies inside it only for
        nu < 2^{-1/(1/6 - GAMMA_TILDE)} ~ 2.6e-3, too slow to run in tier-1.
        """
        return self.kappa <= self.nu ** (5.0 / 6.0 + GAMMA_TILDE)

    @property
    def mixing_regime(self) -> bool:
        return self.kappa <= C_DAGGER * self.nu


@lru_cache(maxsize=8)
def _half_wavenumbers(grid: TorusGrid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """k1 and the k2 >= 0 wavenumbers of the half spectrum, Nyquist ones zeroed.

    The Nyquist rows k1 = -n1/2 and k2 = -n2/2 are their own reflections:
    only a zero wavenumber there keeps a real field's coefficients
    conjugate-symmetric, as for l in spectral.theta_derivative.
    """
    k1, k2 = grid.k1.tolist(), grid.k2[: grid.n_x2 // 2 + 1].tolist()
    k1[grid.n_x1 // 2] = k2[grid.n_x2 // 2] = 0
    return tuple(k1), tuple(k2)


@lru_cache(maxsize=8)
def _half_mask(grid: TorusGrid) -> np.ndarray:
    return _readonly(grid.dealias_mask[:, : grid.n_x2 // 2 + 1, :].copy())


@lru_cache(maxsize=8)
def _flux_factor(grid: TorusGrid) -> np.ndarray:
    """The dealiased theta-derivative, applied to the flux f L[f]."""
    return _readonly(theta_derivative(grid.n_theta)[None, None, :] * _half_mask(grid))


def _transport_half(half: np.ndarray, grid: TorusGrid, v_eff: float, half_dt: float) -> np.ndarray:
    out = transport(half, transport_factor(*_half_wavenumbers(grid), grid.n_theta, v_eff * half_dt))
    # p.k vanishes identically at k=(0,0): keep that slice exactly, so the
    # x-average (and with it the total mass) never sees FFT round-off
    out[0, 0, :] = half[0, 0, :]
    return out


def _alignment_rhs(
    half: np.ndarray,
    grid: TorusGrid,
    kernels: InfluencePair,
    kappa: float,
) -> tuple[np.ndarray, float]:
    """-kappa d_theta(f L[f]) on the k2 >= 0 half, dealiased flux form.

    L[f] is synthesised from the angular planes in the support of Psihat
    only: one 2-D x-transform per plane, then a real theta-transform that
    zero-pads the modes above the support.  Returns the right-hand side
    and max|L[f]| on the collocation grid.
    """
    # The product is pointwise, so the (-1)^l grid-offset phase cancels
    # between the inverse and forward transforms and is left out.
    fd = half * _half_mask(grid)
    fv = np.fft.irfftn(fd, axes=HALF_AXES) * grid.size
    support = kernels.psi_support
    planes = _unfold(fd, grid, support) * kernels.support_multiplier
    lhat = np.zeros((grid.n_x1, grid.n_x2, support.max(initial=0) + 1), dtype=np.complex128)
    lhat[:, :, support] = np.fft.ifft2(planes, axes=(0, 1))
    lv = np.fft.irfft(lhat, n=grid.n_theta, axis=2) * grid.size
    prod = np.fft.rfftn(fv * lv, axes=HALF_AXES) / grid.size
    return -kappa * _flux_factor(grid) * prod, float(np.max(np.abs(lv)))


def step_kinetic(
    f: SpectralField,
    params: KineticParams,
    kernels: InfluencePair,
    t: float,
) -> SpectralField:
    """One ``split_step``: transport / alignment / diffusion / alignment / transport.

    The step evolves ``f.half`` and returns ``SpectralField.from_half``.  Raises
    StepSizeError when dt violates the explicit alignment guard
    dt <= 0.5 / (kappa l_max max|L[f]| + 1), and NumericsError on NaN.
    """
    grid = f.grid
    dt = params.dt
    if params.kappa != 0.0 and kernels.grid != grid:
        raise ValueError("kernels live on a different grid")
    c = split_step(
        f.half,
        t,
        dt,
        diffusion_factor(grid.n_theta, params.nu, dt),
        advect=lambda c, s: _transport_half(c, grid, params.v(s), 0.5 * dt),
        rhs=lambda c: _alignment_rhs(c, grid, kernels, params.kappa),
        kappa=params.kappa,
    )

    # the k2 < 0 columns of f were not read: check them here too
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(f.coeffs[:, c.shape[1]:, :]))):
        raise NumericsError(
            f"NaN detected at t={t + dt}: mass={TWO_PI**3 * c[0, 0, 0]!r}, "
            f"max|fhat|={np.max(np.abs(c[np.isfinite(c)])) if np.any(np.isfinite(c)) else 'n/a'}"
        )
    return SpectralField.from_half(grid, c)


# ---------------------------------------------------------------------------
# Initial data and experiment runner
# ---------------------------------------------------------------------------


def default_initial(grid: TorusGrid, eps: float, seed: int = 0) -> SpectralField:
    """1/(2pi)^3 plus eps times a mean-zero mixture of low cosine modes.

    The mixture is normalized to unit sup so the field stays positive
    whenever eps < 1/(2pi)^3.
    """
    rng = np.random.default_rng(seed)
    modes = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, 1), (0, 1, 2), (2, 1, 0)]
    x1, x2, th = grid.mesh()
    mix = np.zeros(grid.shape)
    for (a, b, l) in modes:
        amp = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, TWO_PI)
        mix = mix + amp * np.cos(a * x1 + b * x2 + l * th + phase)
    mix /= np.max(np.abs(mix))
    return SpectralField.from_values(grid, 1.0 / TWO_PI**3 + eps * mix)


@dataclass
class KineticRun:
    """Sampled diagnostics of one nonlinear run plus snapshot locations."""

    t: np.ndarray
    fneq_l2: np.ndarray
    fneq_hm1: np.ndarray
    favg_l2: np.ndarray
    min_f: np.ndarray
    mass: np.ndarray
    order_parameter: np.ndarray  # complex m(t)
    snapshots: list[Path] = field(default_factory=list)
    final: SpectralField | None = None


NEGATIVITY_WARN = 1e-8


def run_experiment(
    params: KineticParams,
    kernels: InfluencePair,
    f0: SpectralField,
    sample_every: int = 10,
    snapshot_every: int = 0,
    out_dir: Path | str | None = None,
) -> KineticRun:
    """Advance the kinetic equation from f0 to t_end, sampling the decay diagnostics.

    Emits per sample: remainder norms (L2 and homogeneous H^{-1}), the
    x-average L2 norm, min f, total mass and the order parameter
    m = fhat(0,0,1)/fhat(0,0,0).
    """
    if f0.grid != params.grid:
        raise ValueError(f"f0 lives on {f0.grid}, the run on {params.grid}")
    check_cadence("sample_every", sample_every, 1)
    check_cadence("snapshot_every", snapshot_every, 0)
    if snapshot_every > 0 and out_dir is None:
        raise ValueError("snapshots requested without an output directory")

    n_steps = step_count(params.t_end, params.dt)
    times = step_times(0.0, params.dt, n_steps).tolist()
    f = f0
    rows = []
    snapshots: list[Path] = []
    warned_negative = False

    def sample(f, t):
        nonlocal warned_negative
        fneq = remainder(f)
        vals = f.values
        min_f = float(np.min(vals))
        if not warned_negative and min_f < -NEGATIVITY_WARN * float(np.max(vals)):
            warnings.warn(f"density went negative beyond tolerance at t={t}: min f = {min_f:.3e}")
            warned_negative = True
        favg = x_average(f)
        m = complex(f.coeffs[0, 0, 1] / f.coeffs[0, 0, 0])
        rows.append(
            (
                t,
                norm(fneq, "L2"),
                norm(fneq, "Hm1_nonzero"),
                favg.norm_l2(),
                min_f,
                f.mass,
                m,
            )
        )

    sample(f, times[0])
    for step in range(1, n_steps + 1):
        f = step_kinetic(f, params, kernels, times[step - 1])
        if due(step, n_steps, sample_every):
            sample(f, times[step])
        if snapshot_every > 0 and due(step, n_steps, snapshot_every):
            path = Path(out_dir) / f"snapshot_{step:08d}.bin"
            write_snapshot(path, f, time=times[step], parameters={"kappa": params.kappa, "nu": params.nu})
            snapshots.append(path)

    return KineticRun(*(np.asarray(col) for col in zip(*rows)), snapshots=snapshots, final=f)
