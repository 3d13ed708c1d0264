"""Nonlinear kinetic solver on T^2 x T with the alignment operator.

The density f(t, x, theta) obeys

    d/dt f + v(t) p(theta) . grad_x f + kappa d_theta(f L[f])
        = nu d^2/dtheta^2 f,

with L[f] the (Phi, Psi) convolution.  The step is ``spectral.split_step``,
the Strang composition shared with the homogeneous and per-mode solvers:
exact transport and diffusion sub-propagators, and Heun's method for the
alignment flux, evaluated here pseudospectrally in x and as a banded
product in theta, with 2/3-rule dealiasing in all three indices, which
keeps the total mass invariant to round-off.

f is real, so the step works on its half spectrum k2 >= 0, whose layout
lives in ``spectral``: it reads ``SpectralField.half`` on entry and
returns ``SpectralField.from_half`` on exit.  Transport is the per-mode
layer's ``spectral.transport`` on ``TorusGrid.half_wavenumbers``.

The flux is a banded product in theta, ``spectral.band_product``, the one
the homogeneous layer runs at k = 0.  L[f] has only the angular modes +-j,
j in the support S of Psihat up to n_theta/3 (``AngularKernel.band``), so
the flux modes 0 <= l <= n_theta/3 that dealiasing keeps are
P_l = sum_j (a_j f_{l-j} + conj(a_j) f_{l+j}) in x-values, exactly, with
f_{-l} = conj(f_l).  The Heun stages of an alignment half-step run on that
block (``spectral.Alignment``): ``_lift`` gathers the planes f_l,
l = 0..n_theta/3, on the full (k1, k2) grid, x-dealiased, once per
half-step; the right-hand side reads and returns planes in that layout;
``_lower`` adds the half-step's increment back to the half spectrum once,
the modes l < 0 as conjugate reflections (``spectral.mirror``).  The
right-hand side takes one batched inverse 2-D x-transform of the planes
f_l and a_j and one forward transform of the P_l, and no transform over
theta; its cost grows with |S| (Psi = sin has one plane, a dense Psihat
n_theta/3).  The guard's max|L[f]| on the collocation grid costs one
theta-transform of the a_j (``spectral.band_sup``), paid only where
``split_step`` reads it and only at the x-points whose bound can reach the
max.
Everything the step reuses is cached read-only: the half spectrum's
transport table for each repeated v h (one for a constant speed), and
the band planes of the multiplier (on the InfluencePair).
``run_experiment`` runs a stack of one field on ``spectral.evolve_rows``,
the one run loop of the three PDE layers, one ``step_kinetic`` per step;
its snapshots come from that loop's snapshot hook.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .config import step_count
from .errors import NumericsError
from .influence import InfluencePair
from .linear import speed_constant
from .spectral import (
    TWO_PI,
    Alignment,
    SpectralField,
    TorusGrid,
    band_product,
    band_sup,
    evolve_rows,
    mirror,
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


def _transport_half(half: np.ndarray, grid: TorusGrid, v_eff: float, h: float) -> np.ndarray:
    out = transport(half, transport_factor(*grid.half_wavenumbers, grid.n_theta, v_eff * h))
    # p.k vanishes identically at k=(0,0): keep that slice exactly, so the
    # x-average (and with it the total mass) never sees FFT round-off
    out[0, 0, :] = half[0, 0, :]
    return out


def _lift(half: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The block of the flux: the planes f_l, l = 0..n_theta/3, on the full (k1, k2) grid, x-dealiased.

    The 2/3 rule of x zeroes the rows and columns |k| > n/3; the k2 < 0
    columns are conj(half) at (-k1, -k2, -l).
    """
    n1, n2, n = grid.shape
    m, m1, m2 = n // 3, n1 // 3, n2 // 3
    fl = np.empty((m + 1, n1, n2), dtype=np.complex128)
    fl[:, :, : m2 + 1] = half[:, : m2 + 1, : m + 1].transpose(2, 0, 1)
    fl[:, :, m2 + 1 : n2 - m2] = 0.0
    mirror(half[:, m2:0:-1], (0, 2), fl[:, :, n2 - m2 :].transpose(1, 2, 0))
    fl[:, m1 + 1 : n1 - m1] = 0.0
    return fl


def _alignment_rhs(
    fl: np.ndarray,
    grid: TorusGrid,
    kernels: InfluencePair,
    kappa: float,
    with_sup: bool = True,
) -> tuple[np.ndarray, float | None]:
    """-kappa d_theta(f L[f]) on the block ``_lift`` returns, dealiased flux form, in the same layout.

    L[f] has only the angular modes +-j, j in the band of Psihat, so the
    modes 0 <= l <= n_theta/3 that the 2/3 rule keeps of the flux are the
    ``spectral.band_product`` sums P_l = sum_j (a_j f_{l-j} + conj(a_j) f_{l+j})
    of x-values, with f_{-l} = conj(f_l) and a_j the mode j of L[f].  One
    batched 2-D transform gives f_l and a_j, one more takes P back: there
    is no transform over theta, and no scatter into the half spectrum
    (``_lower`` adds the increment of a whole Heun step once).  Returns the
    right-hand side and max|L[f]| on the collocation grid, from
    ``spectral.band_sup`` (None unless ``with_sup``).
    """
    n1, n2, n = grid.shape
    m, m1, m2 = n // 3, n1 // 3, n2 // 3
    band, _ = kernels.angular.band

    planes = np.empty((m + 1 + len(band), n1, n2), dtype=np.complex128)
    planes[: m + 1] = fl
    np.multiply(fl[band], kernels.support_multiplier.transpose(2, 0, 1), out=planes[m + 1 :])
    # The product is pointwise in x, and the (-1)^l grid-offset phase
    # cancels in the banded sum, so both are left out.  The 2-D transforms
    # run in place, as ifftn/fftn over the last two axes: NumPy's ifft2
    # drops its out= (2.4).
    planes = np.fft.ifftn(planes, axes=(-2, -1), out=planes)
    f_x, a_x = planes[: m + 1], planes[m + 1 :]
    rhs = band_product(f_x, -kappa * a_x, band)
    rhs = np.fft.fftn(rhs, axes=(-2, -1), out=rhs)

    # The theta-derivative times n_x1 n_x2, which undoes the 1/(n_x1 n_x2)
    # the inverse x-transform put on both factors of P; the 2/3 rule keeps
    # |k1| <= m1 and |k2| <= m2.  On the columns k2 < 0 this is the
    # reflection of the modes l < 0 of the half: i l = conj(-i l) bit for bit.
    rhs *= ((n1 * n2) * theta_derivative(n))[: m + 1, None, None]
    rhs[:, m1 + 1 : n1 - m1] = 0.0
    rhs[:, :, m2 + 1 : n2 - m2] = 0.0
    return rhs, float(band_sup(a_x.reshape(len(band), -1), band, n)[0]) * grid.size if with_sup else None


def _lower(half: np.ndarray, inc: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """half plus the block increment inc: inc on k2 >= 0, l >= 0, and the modes l < 0 by P(k, -l) = conj P(-k, l)."""
    n1, n2, n = grid.shape
    m, m2 = n // 3, n2 // 3
    out = half.copy()
    out[:, : m2 + 1, : m + 1] += inc[:, :, : m2 + 1].transpose(1, 2, 0)
    out[:, : m2 + 1, n - m :] += mirror(
        inc[m:0:-1].transpose(1, 2, 0), (0, 1), np.empty((n1, m2 + 1, m), dtype=np.complex128)
    )
    return out


def _alignment(grid: TorusGrid, kernels: InfluencePair, kappa: float) -> Alignment:
    """The kinetic alignment sub-step of ``split_step`` on the half spectrum."""
    return Alignment(
        kappa=kappa,
        lift=lambda half: _lift(half, grid),
        rhs=lambda fl, with_sup: _alignment_rhs(fl, grid, kernels, kappa, with_sup),
        lower=lambda half, inc: _lower(half, inc, grid),
    )


def step_kinetic(
    f: SpectralField,
    params: KineticParams,
    kernels: InfluencePair,
    t: float,
) -> SpectralField:
    """One ``split_step`` of ``f.half``, returned as ``SpectralField.from_half``.

    Raises StepSizeError from the guard of ``split_step``, and NumericsError on NaN.
    """
    grid = f.grid
    dt = params.dt
    if params.kappa != 0.0 and kernels.grid != grid:
        raise ValueError("kernels live on a different grid")
    c = split_step(
        f.half,
        t,
        dt,
        params.nu,
        advect=lambda c, s, h: _transport_half(c, grid, params.v(s), h),
        align=_alignment(grid, kernels, params.kappa),
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
    m = fhat(0,0,1)/fhat(0,0,0); the snapshot hook writes f on its cadence.
    """
    if f0.grid != params.grid:
        raise ValueError(f"f0 lives on {f0.grid}, the run on {params.grid}")
    if snapshot_every > 0 and out_dir is None:
        raise ValueError("snapshots requested without an output directory")

    grid = params.grid
    snapshots: list[Path] = []
    warned_negative = False

    def stepper(rows):
        return lambda c, t: step_kinetic(SpectralField(grid, c[0]), params, kernels, t).coeffs[None]

    def sample(rows, c, t):
        nonlocal warned_negative
        f = SpectralField(grid, c[0])
        fneq = remainder(f)
        vals = f.values
        min_f = float(np.min(vals))
        if not warned_negative and min_f < -NEGATIVITY_WARN * float(np.max(vals)):
            warnings.warn(f"density went negative beyond tolerance at t={t}: min f = {min_f:.3e}")
            warned_negative = True
        m = complex(f.coeffs[0, 0, 1] / f.coeffs[0, 0, 0])
        row = (norm(fneq, "L2"), norm(fneq, "Hm1_nonzero"), x_average(f).norm_l2(), min_f, f.mass, m)
        return tuple(np.array([v]) for v in row)

    def snapshot(step, rows, c, t):
        path = Path(out_dir) / f"snapshot_{step:08d}.bin"
        write_snapshot(path, SpectralField(grid, c[0]), time=t, parameters={"kappa": params.kappa, "nu": params.nu})
        snapshots.append(path)

    c, (series,) = evolve_rows(
        f0.coeffs[None], 0.0, params.dt, step_count(params.t_end, params.dt), sample_every,
        stepper, sample, snapshot, snapshot_every,
    )
    return KineticRun(*series, snapshots=snapshots, final=SpectralField(grid, c[0]))
