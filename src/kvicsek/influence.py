"""Influence kernels: the spatial/angular pair (Phi, Psi) and its structure.

Structural requirements: Phi is even with unit mass; Psi(theta) =
sin(theta) * psi(theta) with psi smooth, even and nonnegative, so that
the primitive U(theta) = int_{-pi}^theta Psi is nonpositive on T.
``angular_kernel`` rejects a psi that is not even and nonnegative, and
``make_influence`` a Phi with no positive mass, not even or not smooth;
the rest follows from how the two build Psi, U and the normalised Phi.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .spectral import (
    TWO_PI,
    AngularProfile,
    SpectralField,
    TorusGrid,
    _readonly,
    fft_wavenumbers,
    mirror,
    theta_points,
    x_points,
)


# Relative tolerance of the structural checks of angular_kernel and make_influence.
KERNEL_CHECK_TOL = 1e-12

# Relative cutoff for the support of Psihat.  Off the support the built-in
# factors leave round-off (<= 1e-16 of max|Psihat|); on it they have >= 0.125.
PSI_SUPPORT_RTOL = 1e-12


@dataclass(frozen=True)
class AngularKernel:
    """Angular influence Psi = sin * psi with its primitive U."""

    psi: AngularProfile          # Psi itself
    psi_factor: AngularProfile   # the even factor psi
    primitive: AngularProfile    # U(theta), U(-pi) = 0

    @property
    def n_theta(self) -> int:
        return self.psi.n

    @cached_property
    def psi_support(self) -> np.ndarray:
        """Angular modes 0 <= l <= n_theta/2 where Psihat is nonzero; read-only.

        Nonzero means above PSI_SUPPORT_RTOL * max|Psihat|.  Psi is real, so
        its support is symmetric in l and this half describes it.
        """
        psi = np.abs(self.psi.coeffs[: self.n_theta // 2 + 1])
        return _readonly(np.flatnonzero(psi > PSI_SUPPORT_RTOL * np.max(psi)))

    @cached_property
    def band(self) -> tuple[np.ndarray, np.ndarray]:
        """The support modes j <= n_theta/3 and 2pi Psihat_j there; read-only.

        These are the modes j of the alignment field that the 2/3-dealiased
        flux reads: the ``band`` of ``spectral.band_product`` in the
        homogeneous and the kinetic layer, with a_j = 2pi Psihat_j ghat_j
        in the homogeneous one.
        """
        support = self.psi_support[self.psi_support <= self.n_theta // 3]
        return _readonly(support), _readonly(TWO_PI * self.psi.coeffs[support])


def _primitive_profile(psi: AngularProfile) -> AngularProfile:
    """U(theta) = int_{-pi}^theta Psi, assuming the mean of Psi vanishes."""
    l = psi.l.astype(np.float64)
    coeffs = np.zeros_like(psi.coeffs)
    nz = l != 0
    coeffs[nz] = psi.coeffs[nz] / (1j * l[nz])
    # pin U(-pi) = 0 through the mean coefficient
    coeffs[0] = -np.sum(coeffs[nz] * np.exp(-1j * l[nz] * np.pi))
    return AngularProfile(coeffs)


def angular_kernel(n_theta: int, psi_factor: Callable[[np.ndarray], np.ndarray] | None = None) -> AngularKernel:
    """Build the angular kernel from the even factor psi (default psi = 1).

    ValueError unless psi is finite, nonnegative and even on the angular
    grid, to KERNEL_CHECK_TOL of max|psi|.
    """
    th = theta_points(n_theta)
    pf = np.ones_like(th) if psi_factor is None else np.asarray(psi_factor(th), dtype=np.float64)
    tol = KERNEL_CHECK_TOL * float(np.max(np.abs(pf)))
    if not (np.isfinite(tol) and np.min(pf) >= -tol):
        raise ValueError(f"psi is not finite and nonnegative: its minimum is {np.min(pf):.3e}, its tolerance {tol:.3e}")
    odd = float(np.max(np.abs(pf - mirror(pf, (0,), np.empty_like(pf)))))
    if not odd <= tol:
        raise ValueError(f"psi is not even: |psi(theta) - psi(-theta)| reaches {odd:.3e}, above {tol:.3e}")
    psi = AngularProfile.from_values(np.sin(th) * pf)
    return AngularKernel(
        psi=psi,
        psi_factor=AngularProfile.from_values(pf),
        primitive=_primitive_profile(psi),
    )


def bump_phi(sigma: float = 1.0) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Periodic bump concentrated near the origin for width sigma; ValueError unless sigma^2 > 0 and 4/sigma^2 are finite."""
    try:
        width2 = sigma**2
    except OverflowError:
        raise ValueError(f"sigma {sigma!r} is too large: sigma^2 overflows") from None
    if width2 == 0.0:
        raise ValueError(f"sigma {sigma!r} is too small: sigma^2 underflows to 0")
    if not np.isfinite(4.0 / width2):
        raise ValueError(f"sigma {sigma!r} is too small: the bump exponent 4/sigma^2 overflows")

    def phi(x1, x2):
        return np.exp((np.cos(x1) + np.cos(x2) - 2.0) / width2)

    return phi


def uniform_phi() -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def phi(x1, x2):
        return np.full(np.broadcast(x1, x2).shape, 1.0 / TWO_PI**2)

    return phi


# Cutoff for the Fourier series of Phi, relative to max|Phi| (not max|Phihat|,
# which for a peaked Phi lies far below max|Phi| and would put the cutoff
# under the FFT round-off of the samples).  A dropped coefficient moves no
# value of Phi by more than half an ulp of its maximum.
PHI_SERIES_RTOL = 1e-16

# Largest sampling grid (per axis) tried for the series of Phi.
PHI_SERIES_MAX_GRID = 1024


@dataclass(frozen=True)
class InfluencePair:
    """The (Phi, Psi) kernel pair with precomputed spectra on a grid; Phi is given once, as phi_fn."""

    grid: TorusGrid
    phi_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    angular: AngularKernel

    def __post_init__(self):
        if self.angular.n_theta != self.grid.n_theta:
            raise ValueError("angular kernel resolution differs from grid")

    @cached_property
    def phi_values(self) -> np.ndarray:
        """phi_fn on the (x1, x2) grid, float64 of shape (n_x1, n_x2); read-only."""
        pv = np.asarray(self.phi_fn(self.grid.x1[:, None], self.grid.x2[None, :]), dtype=np.float64)
        return _readonly(np.broadcast_to(pv, self.grid.shape[:2]).copy())

    @cached_property
    def phi_coeffs(self) -> np.ndarray:
        """Phihat on the (k1, k2) grid, FFT layout; read-only."""
        return _readonly(np.fft.fft2(self.phi_values) / (self.grid.n_x1 * self.grid.n_x2))

    def _multiplier_planes(self, modes) -> np.ndarray:
        """(2pi)^3 Phihat(-k) Psihat(-l) at the angular indices ``modes``; read-only.

        Phi and Psi are real, so the reflected spectra are the conjugates.
        """
        phi_neg = np.conj(self.phi_coeffs)
        psi_neg = np.conj(self.angular.psi.coeffs[modes])
        return _readonly(TWO_PI**3 * phi_neg[:, :, None] * psi_neg[None, None, :])

    @cached_property
    def multiplier(self) -> np.ndarray:
        """Coefficient multiplier of L: (2pi)^3 Phihat(-k) Psihat(-l); read-only."""
        return self._multiplier_planes(slice(None))

    @cached_property
    def support_multiplier(self) -> np.ndarray:
        """The multiplier's planes j in the band of the angular kernel: multiplier[:, :, band]; read-only."""
        return self._multiplier_planes(self.angular.band[0])

    @cached_property
    def phi_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Fourier series of phi_fn as (ks, Phihat), |k1|, |k2| <= K; read-only.

        ``Phihat[a, b]`` is the coefficient of exp(i (ks[a] x1 + ks[b] x2)).
        phi_fn is sampled on m x m grids, m = 16, 32, ..., until every
        coefficient with max(|k1|, |k2|) >= m/4 is at most PHI_SERIES_RTOL *
        max|Phi|; K is the largest shell max(|k1|, |k2|) still above that.
        Raises ValueError when no grid up to PHI_SERIES_MAX_GRID resolves
        Phi: a Phi that is not smooth has no short series.
        """
        m = 16
        while True:
            x = x_points(m)
            samples = np.broadcast_to(self.phi_fn(x[:, None], x[None, :]), (m, m))
            coeffs = np.fft.fft2(samples) / m**2
            k = fft_wavenumbers(m)
            shell = np.maximum(np.abs(k)[:, None], np.abs(k)[None, :])
            tail = shell >= m // 4
            above = np.abs(coeffs) > PHI_SERIES_RTOL * float(np.max(np.abs(samples)))
            if not np.any(above & tail):
                break
            if m >= PHI_SERIES_MAX_GRID:
                residual = float(np.max(np.abs(coeffs[tail])) / np.max(np.abs(samples)))
                raise ValueError(
                    f"Phi has no Fourier series to relative tolerance {PHI_SERIES_RTOL:g} on a "
                    f"{m}x{m} grid: coefficients with max(|k1|,|k2|) >= {m // 4} reach "
                    f"{residual:.3e} of max|Phi|; Phi must be smooth (for the bump, widen sigma)"
                )
            m *= 2
        big_k = int(np.max(shell[above], initial=0))
        ks = np.arange(-big_k, big_k + 1)
        phihat = coeffs[np.ix_(ks % m, ks % m)]
        ks.flags.writeable = False
        phihat.flags.writeable = False
        return ks, phihat

    def apply(self, f: SpectralField) -> SpectralField:
        if f.grid != self.grid:
            raise ValueError("field lives on a different grid")
        return SpectralField(self.grid, self.multiplier * f.coeffs)

    @cached_property
    def phi_max(self) -> float:
        return float(np.max(np.abs(self.phi_values)))

    @cached_property
    def psi_max(self) -> float:
        return float(np.max(np.abs(self.angular.psi.values.real)))


def make_influence(
    grid: TorusGrid,
    phi: str | Callable = "bump",
    sigma: float = 1.0,
    psi_factor: str | Callable | None = "one",
) -> InfluencePair:
    """Assemble an InfluencePair on a grid, Phi rescaled to discrete mass 1.

    Parameters
    ----------
    phi : "bump", "uniform" or a periodic callable phi(x1, x2)
    sigma : width of the default bump, checked by ``bump_phi`` whatever ``phi`` is
    psi_factor : "one" (Psi = sin), "cos_squared" ((1+cos)^2), or callable

    Raises ValueError unless Phi's discrete integral is finite and > 0 past
    round-off (1e-12 of the integral of |Phi|), Phi is even on the x-grid
    to KERNEL_CHECK_TOL of max|Phi|, and ``InfluencePair.phi_series``
    resolves Phi; ``angular_kernel`` checks psi.

    The alignment flux costs O(|S| n_theta/3) products per right-hand side,
    of x-planes in the kinetic layer and of rows in the homogeneous one, S
    the support of Psihat up to n_theta/3 (``AngularKernel.band``): one
    mode for "one", three for "cos_squared", and up to n_theta/3 for a
    callable Psi with wide support.
    """
    bump = bump_phi(sigma)
    if phi == "bump":
        phi_fn = bump
    elif phi == "uniform":
        phi_fn = uniform_phi()
    elif callable(phi):
        phi_fn = phi
    else:
        raise ValueError(f"unknown phi choice {phi!r}")

    if psi_factor in (None, "one"):
        pf = None
    elif psi_factor == "cos_squared":
        pf = lambda th: (1.0 + np.cos(th)) ** 2
    elif callable(psi_factor):
        pf = psi_factor
    else:
        raise ValueError(f"unknown psi_factor choice {psi_factor!r}")

    pair = InfluencePair(grid=grid, phi_fn=phi_fn, angular=angular_kernel(grid.n_theta, pf))
    pv = pair.phi_values
    total = float(np.sum(pv))
    mass = total * TWO_PI**2 / (grid.n_x1 * grid.n_x2)
    if not (np.isfinite(mass) and total > 1e-12 * float(np.sum(abs(pv)))):  # round-off: Phi x ~1e15
        raise ValueError(f"Phi has discrete mass {mass!r} on the x-grid, not finite and > 1e-12 of that of |Phi|")
    odd = np.abs(pv - mirror(pv, (0, 1), np.empty_like(pv)))
    at = np.unravel_index(int(np.argmax(odd)), odd.shape)
    if not odd[at] <= KERNEL_CHECK_TOL * pair.phi_max:
        raise ValueError(
            f"Phi is not even: |Phi(x) - Phi(-x)| reaches {odd[at] / pair.phi_max:.3e} of max|Phi| "
            f"at x-grid index {tuple(map(int, at))}"
        )
    pair = replace(pair, phi_fn=lambda x1, x2: phi_fn(x1, x2) / mass)
    pair.phi_series  # ValueError when no grid resolves Phi
    return pair
