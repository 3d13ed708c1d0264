"""Reference formulas, test data and helpers that only the tests call.

The undealiased homogeneous right-hand side and the Frouvelle-Liu sphere
form are oracles for the package's flux; the rest builds test inputs.
"""

from typing import Callable

import numpy as np

from kvicsek.agents import AgentEnsemble, _make_rng
from kvicsek.homogeneous import HomogeneousState
from kvicsek.influence import AngularKernel, InfluencePair
from kvicsek.linear import speed_constant
from kvicsek.spectral import TWO_PI, AngularProfile, SpectralField, TorusGrid, fft_wavenumbers, theta_points


def constant_state(n_theta: int, kappa: float, nu: float) -> HomogeneousState:
    vals = np.full(n_theta, 1.0 / TWO_PI)
    return HomogeneousState(AngularProfile.from_values(vals), 0.0, kappa, nu)


def rotate(g: AngularProfile, phi: float) -> AngularProfile:
    """Profile of theta -> g(theta + phi)."""
    return AngularProfile(g.coeffs * np.exp(1j * g.l * phi))


def dealias_mask(grid: TorusGrid) -> np.ndarray:
    """2/3-rule mask: True on the retained modes |k| <= n/3, all three indices."""
    keep1, keep2, keep3 = (np.abs(fft_wavenumbers(n)) <= n // 3 for n in grid.shape)
    return keep1[:, None, None] & keep2[None, :, None] & keep3[None, None, :]


def dealiased(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, np.where(dealias_mask(f.grid), f.coeffs, 0.0))


def homogeneous_rhs(s: HomogeneousState, kernel: AngularKernel) -> AngularProfile:
    """Full right-hand side kappa d_theta(g (Psi*g)) + nu d^2 g, no dealiasing.

    Used for stationarity residuals; vanishes at compatible von Mises states.
    """
    conv = kernel.psi.convolve(s.g)
    flux = AngularProfile.from_values(s.g.values * conv.values)
    ddg = AngularProfile(s.g.derivative().derivative().coeffs)
    return AngularProfile(s.kappa * flux.derivative().coeffs + s.nu * ddg.coeffs)


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


def ensemble_from_density(
    n: int,
    density: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    influence: InfluencePair,
    kappa: float,
    nu: float,
    seed: int = 0,
    v: Callable[[float], float] = speed_constant(),
) -> AgentEnsemble:
    """Rejection sampling of (x, theta) from a density on T^2 x T."""
    rng = _make_rng(seed)
    probe = density(
        np.linspace(0, TWO_PI, 33)[:, None, None],
        np.linspace(0, TWO_PI, 33)[None, :, None],
        np.linspace(-np.pi, np.pi, 33)[None, None, :],
    )
    top = float(np.max(probe))
    if not (np.isfinite(top) and top > 0):
        raise ValueError(f"density probe maximum {top!r} on the 33^3 grid is not finite and > 0")
    bound = 1.1 * top
    xs, ths = [], []
    have = 0
    while have < n:
        m = max(2 * (n - have), 1024)
        x1 = rng.random(m) * TWO_PI
        x2 = rng.random(m) * TWO_PI
        th = rng.random(m) * TWO_PI - np.pi
        accept = rng.random(m) * bound < density(x1, x2, th)
        xs.append(np.column_stack([x1[accept], x2[accept]]))
        ths.append(th[accept])
        have += int(accept.sum())
    x = np.concatenate(xs)[:n]
    theta = np.concatenate(ths)[:n]
    return AgentEnsemble(x=x, theta=theta, kappa=kappa, nu=nu, influence=influence, rng=rng, v=v)
