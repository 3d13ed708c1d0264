"""Spectral core: grids, transforms, norms and the x-average/remainder split.

Functions on the domain T^2 x T (positions on [0, 2pi)^2, angles on
[-pi, pi)) are represented by Fourier coefficients under the convention

    f(x, theta) = sum_{k, l} fhat(k, l) e^{i k.x} e^{i l theta},
    fhat(k, l) = (2pi)^{-3} integral f e^{-i k.x - i l theta} dx dtheta.

Coefficient arrays use the FFT frequency layout (``numpy.fft.fftfreq``
ordering).  The angular grid starts at -pi rather than 0, so the values
carry an extra (-1)^l phase, applied only by ``values``/``from_values`` of
``AngularProfile`` and ``SpectralField``.  Solver products skip it: they
run on phi_j = theta_j + pi = 2pi j/n, which gives the same product.

Fields on T^2 x T are real, and their half-spectrum layout (k2 >= 0,
``HALF_AXES``) lives here only: ``SpectralField.values`` reads the half
``SpectralField.half``, and ``SpectralField.from_half`` rebuilds the rest.
``mirror`` is the one reflection k -> -k of the package, with the
conjugate fhat(-k, -l) = conj(fhat(k, l)) of a real field: ``from_half``,
``SpectralField.is_real``, the evenness checks of the kernels and the
kinetic flux all use it.

``split_step`` is the one Strang/Heun step of the three PDE solvers
(per-mode, homogeneous, kinetic), and the one place that composes it: a
layer passes nu, its kappa on the ``Alignment`` and a transport over the
sub-step h it is given.  The tables the steps read are built and cached
here only, one per stack: the theta-derivative, the 2/3 mask, the
``diffusion_factor``, the ``transport_factor`` of ``transport``.
Its leading axes are a batch: the 1-D layers stack independent rows
``c[batch, n_theta]`` (one per alignment strength, or per x-mode and
viscosity) and advance them in one call, with the alignment step-size
guard evaluated per row.  The alignment sub-steps run on the block of
modes the dealiased flux reads and writes, in the layer's own layout
(``Alignment``): the layer lifts the block out of its coefficients once
per Heun step and lowers the increment back once, so the right-hand side
never scatters into a full coefficient array.  ``evolve_rows``, the one
run loop of the three PDE layers, steps such a stack on the ``config``
clock and cadence, keeps the log of its samples and returns each row's
series; the kinetic run is a stack of one field, and its snapshots come
from the loop's snapshot hook, on its own cadence.

``band_product`` is the one alignment flux product of the homogeneous and
kinetic layers: the dealiased modes 0..n_theta/3 of a product of two real
series in theta, as a banded sum over the support of Psihat, with no
transform and no aliasing.  ``band_sup`` is the one transform behind the
step-size guard's max|L|; over many points (the kinetic x-grid) it runs
only at those whose bound can reach the largest value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .config import check_cadence, due, step_times
from .errors import StepSizeError

TWO_PI = 2.0 * np.pi
EVAL_CUTOFF = 1e-15  # AngularProfile.eval drops terms at or below this times max(max|ghat|, 1)
REAL_RTOL = 1e-12  # relative tolerance of SpectralField.is_real
SUP_ROUNDING = 1e-9  # band_sup's relative margin on its bound 2 sum_j |a_j|, for rounding


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def theta_points(n: int) -> np.ndarray:
    """Collocation angles -pi + 2pi*j/n, j = 0..n-1 (endpoint-exclusive)."""
    return -np.pi + TWO_PI * np.arange(n) / n


def x_points(n: int) -> np.ndarray:
    """Collocation positions 2pi*j/n on [0, 2pi)."""
    return TWO_PI * np.arange(n) / n


@lru_cache(maxsize=64)
def fft_wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT layout: 0, 1, ..., n/2-1, -n/2, ..., -1."""
    out = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _theta_phase(n: int) -> np.ndarray:
    # (-1)^l factor from the -pi grid offset
    out = np.where(fft_wavenumbers(n) % 2 == 0, 1.0, -1.0)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def theta_derivative(n: int) -> np.ndarray:
    """1j*l, the theta-derivative; Nyquist dropped for odd-order derivatives."""
    l = fft_wavenumbers(n).astype(np.float64)
    l[n // 2] = 0.0
    return _readonly(1j * l)


def _check_dt(dt: float) -> None:
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")


@lru_cache(maxsize=64)
def diffusion_factor(n: int, nu: float | tuple[float, ...], dt: float) -> np.ndarray:
    """exp(-nu l^2 dt), a row per nu of a tuple: exact diffusion over dt; ValueError, uncached, on a bad dt."""
    _check_dt(dt)
    l = fft_wavenumbers(n).astype(np.float64)
    return _readonly(np.exp(-np.array(nu, np.float64)[..., None] * l**2 * dt))


@lru_cache(maxsize=64)
def dealias_keep(n: int) -> np.ndarray:
    """2/3-rule mask of one axis: True on the retained wavenumbers |k| <= n/3."""
    return _readonly(np.abs(fft_wavenumbers(n)) <= n // 3)


def _validate_count(n: int, name: str) -> None:
    if not isinstance(n, (int, np.integer)) or n < 4 or n % 2 != 0:
        raise ValueError(f"{name} must be an even integer >= 4, got {n!r}")


@lru_cache(maxsize=64)
def _mirror_slices(src_shape: tuple[int, ...], out_shape: tuple[int, ...], axes: tuple[int, ...]) -> tuple:
    """The (target, source) index tuples of ``mirror``: on each mirrored axis index 0 stays, the rest reverses."""
    whole = ((slice(None), slice(None)),)
    per_axis = [
        ((slice(0, 1), slice(0, 1)), (slice(1, d), slice(n - 1, n - d, -1))) if ax in axes else whole
        for ax, (n, d) in enumerate(zip(src_shape, out_shape))
    ]
    return tuple(tuple(zip(*pairs)) for pairs in product(*per_axis))


def mirror(src: np.ndarray, axes: tuple[int, ...], out: np.ndarray) -> np.ndarray:
    """out[i] = conj(src[-i mod n]) along each of ``axes``, n = src's length there; returns out.

    The one map k -> -k of the package.  ``out`` may be shorter than ``src``
    on the mirrored axes; the other axes match.  For real input it is the
    reflection alone.
    """
    for target, source in _mirror_slices(src.shape, out.shape, axes):
        np.conjugate(src[source], out=out[target])
    return out


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on T^2 x T; all counts even and >= 4."""

    n_x1: int
    n_x2: int
    n_theta: int

    def __post_init__(self):
        _validate_count(self.n_x1, "n_x1")
        _validate_count(self.n_x2, "n_x2")
        _validate_count(self.n_theta, "n_theta")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_x1, self.n_x2, self.n_theta)

    @property
    def size(self) -> int:
        return self.n_x1 * self.n_x2 * self.n_theta

    @cached_property
    def x1(self) -> np.ndarray:
        return x_points(self.n_x1)

    @cached_property
    def x2(self) -> np.ndarray:
        return x_points(self.n_x2)

    @cached_property
    def theta(self) -> np.ndarray:
        return theta_points(self.n_theta)

    @cached_property
    def k1(self) -> np.ndarray:
        return fft_wavenumbers(self.n_x1)

    @cached_property
    def k2(self) -> np.ndarray:
        return fft_wavenumbers(self.n_x2)

    @cached_property
    def l(self) -> np.ndarray:
        return fft_wavenumbers(self.n_theta)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Open (broadcastable) meshgrid of collocation coordinates."""
        return (
            self.x1[:, None, None],
            self.x2[None, :, None],
            self.theta[None, None, :],
        )

    @cached_property
    def half_wavenumbers(self) -> tuple[tuple[tuple[int], ...], tuple[int, ...]]:
        """``transport_factor``'s k1 (a column of 1-tuples) and k2 >= 0 of the half spectrum, Nyquist ones 0.

        The Nyquist rows are their own reflections: only a zero wavenumber
        there keeps a real field conjugate-symmetric, as in ``theta_derivative``.
        """
        k1, k2 = self.k1.tolist(), self.k2[: self.n_x2 // 2 + 1].tolist()
        k1[self.n_x1 // 2] = k2[self.n_x2 // 2] = 0
        return tuple((k,) for k in k1), tuple(k2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True on retained modes, all three indices; read-only."""
        keep1, keep2, keep3 = (dealias_keep(n) for n in self.shape)
        return _readonly(keep1[:, None, None] & keep2[None, :, None] & keep3[None, None, :])


# ---------------------------------------------------------------------------
# Angular profiles (functions on T)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngularProfile:
    """Function g(theta) on T held as Fourier coefficients ghat(l).

    Real profiles (densities, kernels) and complex ones (per-mode states
    eta_k) share this representation.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        _validate_count(self.n, "n_theta")

    @classmethod
    def from_values(cls, values: np.ndarray) -> "AngularProfile":
        n = np.shape(values)[-1]
        return cls(np.fft.fft(values, axis=-1) / n * _theta_phase(n))

    @classmethod
    def from_function(cls, fn: Callable[[np.ndarray], np.ndarray], n: int) -> "AngularProfile":
        return cls.from_values(fn(theta_points(n)))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def l(self) -> np.ndarray:
        return fft_wavenumbers(self.n)

    @property
    def values(self) -> np.ndarray:
        return np.fft.ifft(self.coeffs * _theta_phase(self.n), axis=-1) * self.n

    @property
    def mass(self) -> float:
        """integral g dtheta = 2pi ghat(0)."""
        return float((TWO_PI * self.coeffs[0]).real)

    def norm_l2(self) -> float:
        return float(np.sqrt(TWO_PI * np.sum(np.abs(self.coeffs) ** 2)))

    def norm_hs(self, s: float) -> float:
        w = (1.0 + self.l.astype(np.float64) ** 2) ** s
        return float(np.sqrt(TWO_PI * np.sum(w * np.abs(self.coeffs) ** 2)))

    def derivative(self) -> "AngularProfile":
        return AngularProfile(theta_derivative(self.n) * self.coeffs)

    def convolve(self, other: "AngularProfile") -> "AngularProfile":
        """(self * other)(theta) = integral self(theta - w) other(w) dw."""
        if other.n != self.n:
            raise ValueError("profile resolution mismatch")
        return AngularProfile(TWO_PI * self.coeffs * other.coeffs)

    def rotate(self, phi: float) -> "AngularProfile":
        """Profile of theta -> g(theta + phi)."""
        return AngularProfile(self.coeffs * np.exp(1j * self.l * phi))

    def eval(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate the trigonometric sum at arbitrary angles, skipping the terms below EVAL_CUTOFF."""
        theta = np.asarray(theta, dtype=np.float64)
        amax = np.max(np.abs(self.coeffs))
        out = np.zeros(theta.shape, dtype=np.complex128)
        for l, c in zip(self.l, self.coeffs):
            if np.abs(c) > EVAL_CUTOFF * max(amax, 1.0):
                out += c * np.exp(1j * l * theta)
        return out


# ---------------------------------------------------------------------------
# The splitting step of the three PDE solvers
# ---------------------------------------------------------------------------


# A time-dependent speed gives a new shift v h at every sub-step, so the
# cache holds only the tables a constant speed repeats: one per stack.
@lru_cache(maxsize=8)
def transport_factor(k1: tuple, k2: tuple, n: int, shift: float | tuple[float, ...]) -> np.ndarray:
    """Read-only exp(-i shift p(phi).k), phi_j = 2pi j/n last; k1, k2 and shift = v h broadcast as arrays."""
    k1, k2, shift = (np.array(a, np.float64)[..., None] for a in (k1, k2, shift))
    phi = x_points(n)
    return _readonly(np.exp(-1j * shift * (k1 * np.cos(phi) + k2 * np.sin(phi))))


def transport(c: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """The transport sub-step: coefficients c (theta last) times a ``transport_factor`` table on phi_j."""
    mixed = np.fft.ifft(c, axis=-1)
    mixed *= factor
    return np.fft.fft(mixed, axis=-1, out=mixed)


def band_product(f: np.ndarray, a: np.ndarray, band: np.ndarray) -> np.ndarray:
    """The modes l = 0..m of a product of two real series in theta, as a banded sum; m = len(f) - 1.

    ``f`` holds the modes l = 0..m of one factor as planes, l first, with
    f_{-l} = conj(f_l); ``a`` holds the planes a_j of the other at the modes
    j in ``band`` (0 <= j <= m), its only nonzero ones up to
    a_{-j} = conj(a_j).  Returns P_l = sum_j (a_j f_{l-j} + conj(a_j) f_{l+j})
    (the j = 0 term once) with the terms |l +- j| > m dropped: the exact
    modes 0..m of the product of the truncated series, free of aliasing.
    The planes are pointwise factors of any one shape: x-values of the
    kinetic layer, or the rows of a 1-D stack.
    """
    m = len(f) - 1
    prod = np.zeros(f.shape, dtype=np.complex128)
    term = np.empty_like(prod)
    for aj, j in zip(a, band.tolist()):
        if j == 0:
            prod += np.multiply(aj, f, out=term)
            continue
        k = m + 1 - j
        prod[j:] += np.multiply(aj, f[:k], out=term[:k])
        prod[:j] += np.multiply(aj, np.conj(f[j:0:-1]), out=term[:j])
        prod[:k] += np.multiply(np.conj(aj), f[j:], out=term[:k])
    return prod


def _series(a: np.ndarray, band: np.ndarray, n: int) -> np.ndarray:
    """|irfft| over the n angles of the real series with the modes a_j, j in ``band``, at each point of a's other axes."""
    lhat = np.zeros(a.shape[1:] + (band.max(initial=0) + 1,), dtype=np.complex128)
    lhat[..., band] = a.transpose(*range(1, a.ndim), 0)
    lv = np.fft.irfft(lhat, n=n, axis=-1)
    return np.abs(lv, out=lv)


def _reachable(a: np.ndarray, band: np.ndarray, n: int) -> np.ndarray:
    """The points (last axis) of one row of planes ``a`` where the series of ``band_sup`` can reach its max.

    At a point the series is Re(a_0) + 2 sum_{j > 0} Re(a_j e^{i j phi})
    (numpy's ``irfft`` times n; the band lies below n/2), so 2 sum_j |a_j|
    bounds it.  The value found is its max over the n angles at the point
    of largest bound, by the same transform.  A point whose bound is below
    that value, with SUP_ROUNDING to spare, cannot hold the max of the
    transform; a NaN bound or value keeps every point it is compared with.
    """
    bound = np.abs(a).sum(axis=0)
    found = _series(a[:, [np.argmax(bound)]], band, n).max() * n
    return ~(bound * (2.0 * (1.0 + SUP_ROUNDING)) < found)


def band_sup(a: np.ndarray, band: np.ndarray, n: int) -> np.ndarray:
    """max of |irfft| of the real series with the modes a_j, j in ``band``, over the n angles phi_j = 2pi j/n and a row's points.

    ``a`` holds the planes as ``band_product`` reads them, with the points
    of a row on their last axis: one point per row of a 1-D stack
    (``a[..., None]``), or one row of the n_x1 n_x2 x-points of the kinetic
    layer (``a`` of shape ``(len(band), n_x1 n_x2)``).  Returns the max
    per row, shaped ``(..., 1)``.  The series is numpy's ``irfft``, so 1/n
    times its values: the caller multiplies the max by its own transform
    sizes, which gives the max of the scaled values bit for bit (rounding
    is monotone).  Over one row of many points the transform runs only at
    the points that can hold the max (``_reachable``): the result is the
    max over all of them bit for bit, NaN and inf included.
    """
    if a.ndim == 2 and a.shape[1] > 1:
        a = a[:, _reachable(a, band, n)]
    return _series(a, band, n).max(axis=(-2, -1))[..., None]


class Alignment(NamedTuple):
    """The alignment sub-step of ``split_step``, on the block of modes its right-hand side reads and writes.

    ``kappa`` is the alignment strength the right-hand side was built
    with, a scalar or one per row as ``(batch, 1)``; the guard and the
    kappa = 0 skip read it.  ``lift(c)`` returns that block of the
    coefficients c in the right-hand side's own layout.  ``rhs(y,
    with_sup)`` returns the block's right-hand side, a new array that
    ``split_step`` updates in place, and the sup of the alignment field, a
    scalar or one per row as ``(batch, 1)`` (None unless ``with_sup``).
    ``lower(c, inc)`` returns c plus the block increment inc, and plus
    conj(inc) on the modes l < 0 that the block holds only as reflections;
    it adds to c rather than writing the lifted block back, so the modes
    the block reads twice keep c's own values.
    """

    kappa: np.ndarray | float
    lift: Callable[[np.ndarray], np.ndarray]
    rhs: Callable[..., tuple[np.ndarray, np.ndarray | float | None]]
    lower: Callable[[np.ndarray, np.ndarray], np.ndarray]


def split_step(
    c: np.ndarray,
    t: float,
    dt: float,
    nu: float | tuple[float, ...],
    advect: Callable[[np.ndarray, float, float], np.ndarray] | None = None,
    align: Alignment | None = None,
) -> np.ndarray:
    """One Strang step T/2 -> A/2 -> D -> A/2 -> T/2 on coefficients, theta last.

    ``c`` may be a stack of rows ``c[batch, n_theta]`` that share t and
    dt; ``nu`` is then a scalar or a tuple with one value per row.
    ``advect(c, s, h)`` advances c over h = dt/2 by ``transport`` with the
    speed sampled at s (t + dt/4, then t + 3dt/4); None skips it.  Each A/2
    is a Heun step over dt/2 on the block y = ``align.lift(c)``:
    r1 = rhs(y), r2 = rhs(y + r1 dt/2), then ``align.lower(c, (r1 + r2) dt/4)``;
    it is skipped when every ``align.kappa`` is 0 (None: kappa = 0).  Only
    the first stage reads the sup, so the second asks for none
    (``with_sup=False``).  D multiplies by the cached
    ``diffusion_factor(n_theta, nu, dt)``, n_theta the length of c's last
    axis.  The guard dt <= 0.5 / (kappa (n_theta/2) sup + 1) is checked
    per row with kappa != 0 at the first stage of either Heun step;
    StepSizeError names the first row that breaks it, its kappa, sup and bound.
    ValueError: dt not finite and > 0.
    """
    _check_dt(dt)
    h = 0.5 * dt

    def align_half(c):
        y = align.lift(c)
        r1, sup = align.rhs(y, with_sup=True)
        bound = 0.5 / (align.kappa * (c.shape[-1] // 2) * sup + 1.0)
        bad = (dt > bound) & (align.kappa != 0.0)
        if np.count_nonzero(bad):
            row = int(np.argmax(np.ravel(bad)))
            kappa, sup, bound = (
                np.ravel(np.broadcast_to(a, np.shape(bad)))[row] for a in (align.kappa, sup, bound)
            )
            raise StepSizeError(
                f"dt={dt} violates the alignment guard at t={t} in row {row}: "
                f"dt <= 0.5/(kappa (n_theta/2) sup + 1) = {bound:.3g} "
                f"(kappa {kappa:.3g}, alignment field max {sup:.3g})"
            )
        # y + h r1 and 0.5 h (r1 + r2), in place on the fresh products
        stage = np.multiply(h, r1)
        stage += y
        r2, _ = align.rhs(stage, with_sup=False)
        r1 += r2
        r1 *= 0.5 * h
        return align.lower(c, r1)

    aligned = align is not None and np.count_nonzero(align.kappa) > 0
    if advect is not None:
        c = advect(c, t + 0.25 * dt, h)
    if aligned:
        c = align_half(c)
    c = c * diffusion_factor(c.shape[-1], nu, dt)
    if aligned:
        c = align_half(c)
    if advect is not None:
        c = advect(c, t + 0.75 * dt, h)
    return c


def evolve_rows(
    c: np.ndarray, t0: float, dt: float, n_steps, every, stepper, sample, snapshot=None, snapshot_every: int = 0
) -> tuple[np.ndarray, list]:
    """The one run loop of the three PDE layers and its sample log: advance the stack c[batch, ...].

    Row j takes n_steps[j] steps (an int or one per row, as ``every``), then leaves the stack;
    ``stepper(rows)`` is the step (c, t) -> c of the rows still running, which returns a new array.
    ``sample(rows, c[rows], t)`` runs at t0 and where ``config.due`` says, at the times of
    ``config.step_times``, and returns new arrays (no views of c), a value per row each.
    ``snapshot(step, rows, c[rows], t)`` runs after the steps that ``config.due`` gives for the
    cadence ``snapshot_every`` (0: never), once the previous step's stack is dropped.  Returns
    (c, series), ``series[j] = (t, *columns)`` of row j in time order; while every row runs, c is
    the stepper's own output, and c is neither copied nor written.  ValueError first on a bad dt.
    """
    _check_dt(dt)
    check_cadence("n_steps", n_steps, 0)
    check_cadence("sample_every", every, 1)
    check_cadence("snapshot_every", snapshot_every, 0)
    n_steps = np.broadcast_to(n_steps, len(c))
    every = np.broadcast_to(every, len(c))
    times = step_times(t0, dt, int(np.max(n_steps, initial=0)))
    log = []

    def record(rows, c, t):
        log.append((rows, t, sample(rows, c, t)))

    def due_rows(active, ca, d, n_due):
        return (active, ca) if n_due == len(active) else (active[d], ca[d])

    record(np.arange(len(c)), c, times[0])
    ends = sorted(set(n_steps.tolist()) - {0})
    for start, end in zip([0, *ends], ends):
        active = np.flatnonzero(n_steps >= end)
        whole = len(active) == len(c)
        step = stepper(active)
        steps = np.arange(start + 1, end + 1)
        sampled = due(steps[:, None], n_steps[active], every[active])
        saved = due(steps[:, None], n_steps[active], snapshot_every) if snapshot_every else np.zeros_like(sampled)
        counts = (np.count_nonzero(sampled, axis=1).tolist(), np.count_nonzero(saved, axis=1).tolist())
        ca = c if whole else c[active]
        for m, d, s, n_due, n_saved in zip(steps.tolist(), sampled, saved, *counts):
            ca = step(ca, times[m - 1])
            if n_due:
                record(*due_rows(active, ca, d, n_due), times[m])
            if n_saved:
                snapshot(m, *due_rows(active, ca, s, n_saved), times[m])
        if whole:
            c = ca
        else:
            c[active] = ca
    # the log, sample by sample, as one array per column, then split by row in time order
    rows = np.concatenate([idx for idx, _, _ in log])
    cols = [np.repeat([t for _, t, _ in log], [len(idx) for idx, _, _ in log])]
    cols += [np.concatenate(col) for col in zip(*(got for *_, got in log))]
    order = np.argsort(rows, kind="stable")
    cuts = np.cumsum(np.bincount(rows, minlength=len(c)))[:-1]
    return c, list(zip(*(np.split(col[order], cuts) for col in cols)))


# ---------------------------------------------------------------------------
# Spectral fields (functions on T^2 x T)
# ---------------------------------------------------------------------------


# The half spectrum k2 >= 0 of a real field in the layout of np.fft.rfftn(...,
# axes=HALF_AXES): full transforms over k1 and l, the real one over x2.
HALF_AXES = (0, 2, 1)


@dataclass(frozen=True)
class SpectralField:
    """Coefficient array fhat(k1, k2, l) on a TorusGrid; immutable value."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} != grid shape {self.grid.shape}"
            )
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_values(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        c = np.fft.fftn(values) / grid.size
        c *= _theta_phase(grid.n_theta)
        return cls(grid, c)

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "SpectralField":
        x1, x2, th = grid.mesh()
        return cls.from_values(grid, np.broadcast_to(fn(x1, x2, th), grid.shape))

    @classmethod
    def from_half(cls, grid: TorusGrid, half: np.ndarray) -> "SpectralField":
        """The real field with k2 >= 0 coefficients ``half``; k2 < 0 by fhat(k, l) = conj(fhat(-k, -l))."""
        n2h = half.shape[1]
        out = np.empty(grid.shape, dtype=np.complex128)
        out[:, :n2h] = half
        mirror(half[:, n2h - 2 : 0 : -1], (0, 2), out[:, n2h:])  # from the columns -k2
        return cls(grid, out)

    @property
    def half(self) -> np.ndarray:
        """The k2 >= 0 columns of the coefficients (layout HALF_AXES); a read-only view."""
        return self.coeffs[:, : self.grid.n_x2 // 2 + 1, :]

    @property
    def values(self) -> np.ndarray:
        """Collocation values of the real field: one inverse real transform of ``half``."""
        g = self.grid
        c = self.half * _theta_phase(g.n_theta)
        return np.fft.irfftn(c, s=(g.n_x1, g.n_theta, g.n_x2), axes=HALF_AXES) * g.size

    @property
    def mass(self) -> float:
        """integral f dx dtheta = (2pi)^3 fhat(0,0,0)."""
        return float((TWO_PI**3 * self.coeffs[0, 0, 0]).real)

    def is_real(self) -> bool:
        """Conjugate symmetry fhat(-k,-l) = conj(fhat(k,l)) to REAL_RTOL (relative)."""
        dev = np.max(np.abs(mirror(self.coeffs, (0, 1, 2), np.empty_like(self.coeffs)) - self.coeffs))
        scale = np.max(np.abs(self.coeffs))
        return bool(dev <= REAL_RTOL * max(scale, 1e-300))

    def dealiased(self) -> "SpectralField":
        return SpectralField(self.grid, np.where(self.grid.dealias_mask, self.coeffs, 0.0))


def x_average(f: SpectralField) -> AngularProfile:
    """Spatial mean <f>(theta) = (2pi)^{-2} integral f dx: the k=(0,0) slice."""
    return AngularProfile(f.coeffs[0, 0, :].copy())


def remainder(f: SpectralField) -> SpectralField:
    """f_neq = f - <f>; zeroes the k=(0,0) coefficients exactly."""
    c = f.coeffs.copy()
    c[0, 0, :] = 0.0
    return SpectralField(f.grid, c)


def norm(f: SpectralField, kind: str = "L2", s: float | None = None) -> float:
    """Norm of a spectral field.

    Parameters
    ----------
    kind : {"L1", "L2", "Hs", "Hm1_nonzero"}
        L2/Hs are evaluated by Parseval on the coefficients; L1 by
        quadrature on collocation values.  ``Hm1_nonzero`` is the
        homogeneous H^{-1} norm over the k != 0 modes with weight
        1/(|k|^2 + l^2); it rejects fields carrying k=(0,0) content.
    s : float
        Sobolev order, required for kind "Hs".
    """
    g = f.grid
    def k_squared():  # |k|^2 + l^2 on the full coefficient array
        return (g.k1[:, None, None] ** 2 + g.k2[:, None] ** 2 + g.l**2).astype(np.float64)
    if kind == "L2":
        return float(np.sqrt(TWO_PI**3 * np.sum(np.abs(f.coeffs) ** 2)))
    if kind == "L1":
        w = TWO_PI**3 / g.size
        return float(w * np.sum(np.abs(f.values)))
    if kind == "Hs":
        if s is None:
            raise ValueError("Hs norm requires the order s")
        weights = (1.0 + k_squared()) ** s
        return float(np.sqrt(TWO_PI**3 * np.sum(weights * np.abs(f.coeffs) ** 2)))
    if kind == "Hm1_nonzero":
        zero_slice = np.max(np.abs(f.coeffs[0, 0, :]))
        scale = max(np.max(np.abs(f.coeffs)), 1e-300)
        if zero_slice > 1e-13 * scale:
            raise ValueError(
                "Hm1_nonzero requires the x-average removed; pass remainder(f)"
            )
        weights = k_squared()
        weights[0, 0] = np.inf  # weight 1/inf = 0 on the k=(0,0) slice
        return float(np.sqrt(TWO_PI**3 * np.sum(1.0 / weights * np.abs(f.coeffs) ** 2)))
    raise ValueError(f"unknown norm kind {kind!r}")


# ---------------------------------------------------------------------------
# Snapshot I/O: one JSON header line, then raw little-endian payload
# ---------------------------------------------------------------------------


SNAPSHOT_DTYPE = "float64 little-endian"
SNAPSHOT_ORDER = "(k1,k2,l) complex interleaved"


def write_header_and_payload(path, header: dict, payload: np.ndarray):
    """One sorted-key JSON header line, then the raw bytes of payload; returns path."""
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(payload.tobytes())
    return path


def write_snapshot(path, f: SpectralField, time: float = 0.0, parameters: dict | None = None) -> None:
    header = {
        "n_x1": f.grid.n_x1,
        "n_x2": f.grid.n_x2,
        "n_theta": f.grid.n_theta,
        "time": time,
        "parameters": parameters or {},
        "layout": "row-major",
        "dtype": SNAPSHOT_DTYPE,
        "order": SNAPSHOT_ORDER,
    }
    write_header_and_payload(path, header, f.coeffs.astype("<c16"))


def read_snapshot(path) -> tuple[SpectralField, dict]:
    """The field and header of a ``write_snapshot`` file; ValueError naming the path if malformed."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as err:
            raise ValueError(f"{path}: snapshot header is not JSON ({err})") from None
        payload = fh.read()
    if not isinstance(header, dict):
        raise ValueError(f"{path}: snapshot header is {type(header).__name__}, expected an object")
    for key, expected in (("dtype", SNAPSHOT_DTYPE), ("order", SNAPSHOT_ORDER)):
        if header.get(key) != expected:
            raise ValueError(f"{path}: snapshot {key} {header.get(key)!r}, expected {expected!r}")
    try:
        grid = TorusGrid(header.get("n_x1"), header.get("n_x2"), header.get("n_theta"))
    except ValueError as err:
        raise ValueError(f"{path}: snapshot {err}") from None
    time = header.get("time")
    if type(time) not in (int, float) or not np.isfinite(time):
        raise ValueError(f"{path}: snapshot time {time!r}, expected a finite number")
    expected_bytes = 16 * grid.size
    if len(payload) != expected_bytes:
        raise ValueError(
            f"{path}: snapshot payload is {len(payload)} bytes, expected {expected_bytes}"
        )
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"{path}: snapshot payload holds non-finite coefficients")
    return SpectralField(grid, coeffs.astype(np.complex128)), header
