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

``split_step`` is the one Strang/Heun step of the three PDE solvers
(per-mode, homogeneous, kinetic), with the cached angular factors it and
they share: the theta-derivative, the diffusion factor, the 2/3 mask and,
for its transport sub-step ``transport``, the ``transport_factor``.
Its leading axes are a batch: the 1-D layers stack independent rows
``c[batch, n_theta]`` (one per alignment strength, or per x-mode and
viscosity) and advance them in one call, with the alignment step-size
guard evaluated per row.  ``evolve_rows``, the one row loop of both 1-D
layers, steps such a stack on the ``config`` clock and cadence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .config import due, step_times
from .errors import StepSizeError

TWO_PI = 2.0 * np.pi


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
def diffusion_factor(n: int, nu: float, dt: float) -> np.ndarray:
    """exp(-nu l^2 dt), exact angular diffusion over dt; ValueError, before caching, on a bad dt."""
    _check_dt(dt)
    l = fft_wavenumbers(n).astype(np.float64)
    return _readonly(np.exp(-nu * l**2 * dt))


@lru_cache(maxsize=64)
def dealias_keep(n: int) -> np.ndarray:
    """2/3-rule mask of one axis: True on the retained wavenumbers |k| <= n/3."""
    return _readonly(np.abs(fft_wavenumbers(n)) <= n // 3)


def _validate_count(n: int, name: str) -> None:
    if not isinstance(n, (int, np.integer)) or n < 4 or n % 2 != 0:
        raise ValueError(f"{name} must be an even integer >= 4, got {n!r}")


def _reflect(coeffs: np.ndarray) -> np.ndarray:
    """Index map k -> -k (mod n) applied on every axis."""
    out = coeffs
    for ax in range(coeffs.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
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
    def k_squared(self) -> np.ndarray:
        """|k|^2 + l^2 on the full coefficient array; read-only."""
        out = (
            self.k1[:, None, None] ** 2
            + self.k2[None, :, None] ** 2
            + self.l[None, None, :] ** 2
        ).astype(np.float64)
        out.flags.writeable = False
        return out

    @cached_property
    def hm1_weights(self) -> np.ndarray:
        """1/(|k|^2 + l^2) off the k=(0,0) slice and 0 on it; read-only."""
        out = np.zeros(self.shape)
        nonzero = np.ones(self.shape, dtype=bool)
        nonzero[0, 0, :] = False
        out[nonzero] = 1.0 / self.k_squared[nonzero]
        out.flags.writeable = False
        return out

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

    @property
    def order_parameter(self) -> complex:
        """m = integral e^{-i theta} g dtheta / integral g dtheta = ghat(1)/ghat(0)."""
        return complex(self.coeffs[1] / self.coeffs[0])

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

    def eval(self, theta: np.ndarray, cutoff: float = 1e-15) -> np.ndarray:
        """Evaluate the trigonometric sum at arbitrary angles."""
        theta = np.asarray(theta, dtype=np.float64)
        amax = np.max(np.abs(self.coeffs))
        out = np.zeros(theta.shape, dtype=np.complex128)
        for l, c in zip(self.l, self.coeffs):
            if np.abs(c) > cutoff * max(amax, 1.0):
                out += c * np.exp(1j * l * theta)
        return out


# ---------------------------------------------------------------------------
# The splitting step of the three PDE solvers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def transport_factor(k1: tuple[int, ...], k2: tuple[int, ...], n: int, shift: float) -> np.ndarray:
    """Read-only exp(-i shift p(phi).k) on the outer table (k1, k2, phi_j = 2pi j/n); shift = v h."""
    k1, k2, phi = np.array(k1, np.float64), np.array(k2, np.float64), x_points(n)
    pk = k1[:, None, None] * np.cos(phi) + k2[None, :, None] * np.sin(phi)
    return _readonly(np.exp(-1j * shift * pk))


def transport(c: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """The transport sub-step: coefficients c (theta last) times a ``transport_factor`` table on phi_j."""
    mixed = np.fft.ifft(c, axis=-1)
    mixed *= factor
    return np.fft.fft(mixed, axis=-1)


def split_step(
    c: np.ndarray,
    t: float,
    dt: float,
    diffusion: np.ndarray,
    advect: Callable[[np.ndarray, float], np.ndarray] | None = None,
    rhs: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | float]] | None = None,
    kappa: np.ndarray | float = 0.0,
) -> np.ndarray:
    """One Strang step T/2 -> A/2 -> D -> A/2 -> T/2 on coefficients, theta last.

    ``c`` may be a stack of rows ``c[batch, n_theta]`` that share t and
    dt; ``kappa`` is then a scalar or a ``(batch, 1)`` column and
    ``diffusion`` an ``(n_theta,)`` or ``(batch, n_theta)`` array.
    ``advect(c, s)`` advances c over dt/2 by ``transport`` with the speed
    sampled at s (t + dt/4, then t + 3dt/4); None skips it.  Each A/2 is a
    Heun step over dt/2 with ``rhs(c) -> (alignment right-hand side, sup of
    the alignment field)``, the sup a scalar or one per row as
    ``(batch, 1)``; it is skipped when every kappa is 0.  D multiplies by
    ``diffusion`` (cached ``diffusion_factor`` rows).  The guard
    dt <= 0.5 / (kappa (n_theta/2) sup + 1) is checked per row with kappa
    != 0 at the first stage of either Heun step; StepSizeError names the
    first row that breaks it and its sup.  ValueError: dt not finite and > 0.
    """
    _check_dt(dt)

    def align_half(c):
        h = 0.5 * dt
        r1, sup = rhs(c)
        bad = (dt > 0.5 / (kappa * (c.shape[-1] // 2) * sup + 1.0)) & (kappa != 0.0)
        if np.count_nonzero(bad):
            row = int(np.argmax(np.ravel(bad)))
            sup_row = np.ravel(np.broadcast_to(sup, np.shape(bad)))[row]
            raise StepSizeError(
                f"dt={dt} violates the alignment guard at t={t} in row {row} "
                f"(alignment field max {sup_row:.3g})"
            )
        r2, _ = rhs(c + h * r1)
        return c + 0.5 * h * (r1 + r2)

    aligned = np.count_nonzero(kappa) > 0
    if advect is not None:
        c = advect(c, t + 0.25 * dt)
    if aligned:
        c = align_half(c)
    c = c * diffusion
    if aligned:
        c = align_half(c)
    if advect is not None:
        c = advect(c, t + 0.75 * dt)
    return c


def evolve_rows(c: np.ndarray, t0: float, dt: float, n_steps, every, stepper, sample) -> np.ndarray:
    """The row loop of the 1-D layers: advance the stack c[batch, n_theta] in place and return it.

    Row j takes n_steps[j] steps (an int or one per row, as ``every``), then leaves the stack;
    ``stepper(rows)`` is the step (c, t) -> c of the rows still running.  ``sample(rows, c[rows], t)``
    runs at t0 and where ``config.due`` says, at the times of ``config.step_times``.
    """
    n_steps = np.broadcast_to(n_steps, len(c))
    every = np.broadcast_to(every, len(c))
    if np.any(n_steps < 0) or np.any(every < 1):
        raise ValueError("n_steps must be >= 0 and sample_every >= 1")
    times = step_times(t0, dt, int(np.max(n_steps, initial=0)))
    sample(np.arange(len(c)), c, times[0])
    ends = sorted(set(n_steps.tolist()) - {0})
    for start, end in zip([0, *ends], ends):
        active = np.flatnonzero(n_steps >= end)
        step = stepper(active)
        steps = np.arange(start + 1, end + 1)
        sampled = due(steps[:, None], n_steps[active], every[active])
        ca = c[active]
        for m, d, n_due in zip(steps.tolist(), sampled, np.count_nonzero(sampled, axis=1).tolist()):
            ca = step(ca, times[m - 1])
            if n_due == len(active):
                sample(active, ca, times[m])
            elif n_due:
                sample(active[d], ca[d], times[m])
        c[active] = ca
    return c


# ---------------------------------------------------------------------------
# Spectral fields (functions on T^2 x T)
# ---------------------------------------------------------------------------


# The half spectrum k2 >= 0 of a real field in the layout of np.fft.rfftn(...,
# axes=HALF_AXES): full transforms over k1 and l, the real one over x2.
HALF_AXES = (0, 2, 1)


@lru_cache(maxsize=8)
def _reflection(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Indices of -k1 and of the k2 >= 0 columns mirroring k2 < 0."""
    neg_k1 = (-np.arange(grid.n_x1)) % grid.n_x1
    mirror = np.arange(grid.n_x2 // 2 - 1, 0, -1)
    return _readonly(neg_k1), _readonly(mirror)


def _unfold(half: np.ndarray, grid: TorusGrid, l_index: np.ndarray) -> np.ndarray:
    """Full (k1, k2) coefficients at the angular indices l_index of a real field.

    The k2 < 0 columns follow from fhat(k, l) = conj(fhat(-k, -l)).
    """
    n2h = half.shape[1]
    out = np.empty((grid.n_x1, grid.n_x2, len(l_index)), dtype=np.complex128)
    out[:, :n2h] = half[:, :, l_index]
    neg_k1, mirror = _reflection(grid)
    neg_l = (-l_index) % grid.n_theta
    np.conjugate(half[np.ix_(neg_k1, mirror, neg_l)], out=out[:, n2h:])
    return out


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
        """The real field with k2 >= 0 coefficients ``half``; k2 < 0 by conjugate symmetry."""
        return cls(grid, _unfold(half, grid, np.arange(grid.n_theta)))

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

    def is_real(self, rtol: float = 1e-12) -> bool:
        """Conjugate symmetry fhat(-k,-l) = conj(fhat(k,l)) to rtol (relative)."""
        dev = np.max(np.abs(_reflect(self.coeffs) - np.conj(self.coeffs)))
        scale = np.max(np.abs(self.coeffs))
        return bool(dev <= rtol * max(scale, 1e-300))

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
    if kind == "L2":
        return float(np.sqrt(TWO_PI**3 * np.sum(np.abs(f.coeffs) ** 2)))
    if kind == "L1":
        w = TWO_PI**3 / g.size
        return float(w * np.sum(np.abs(f.values)))
    if kind == "Hs":
        if s is None:
            raise ValueError("Hs norm requires the order s")
        weights = (1.0 + g.k_squared) ** s
        return float(np.sqrt(TWO_PI**3 * np.sum(weights * np.abs(f.coeffs) ** 2)))
    if kind == "Hm1_nonzero":
        zero_slice = np.max(np.abs(f.coeffs[0, 0, :]))
        scale = max(np.max(np.abs(f.coeffs)), 1e-300)
        if zero_slice > 1e-13 * scale:
            raise ValueError(
                "Hm1_nonzero requires the x-average removed; pass remainder(f)"
            )
        return float(np.sqrt(TWO_PI**3 * np.sum(g.hm1_weights * np.abs(f.coeffs) ** 2)))
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
