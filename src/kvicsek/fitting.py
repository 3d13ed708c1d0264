"""Least-squares rate fitting for decay curves."""

from __future__ import annotations

import numpy as np

# The fewest samples a fit accepts.
MIN_SAMPLES = 10


def fit_rate(
    t: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float] | None = None,
    loglog: bool = False,
) -> tuple[float, float]:
    """Fit the slope of log(values) against t (or log t in log-log mode).

    Parameters
    ----------
    t, values : samples of a positive decaying quantity
    window : optional (t_min, t_max) restriction, inclusive
    loglog : fit against log(t) instead of t (power-law exponent)

    Returns
    -------
    (slope, stderr) : least-squares slope and its standard error.

    Raises
    ------
    ValueError : fewer than MIN_SAMPLES samples in the window, or nonpositive values.
    """
    t = np.asarray(t, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if t.shape != values.shape:
        raise ValueError("t and values must have matching shapes")
    if window is not None:
        keep = (t >= window[0]) & (t <= window[1])
        t, values = t[keep], values[keep]
    if t.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples in the fit window, got {t.size}")
    if np.any(values <= 0.0):
        raise ValueError("values must be positive for a log fit")
    if loglog:
        if np.any(t <= 0.0):
            raise ValueError("log-log fit requires positive times")
        x = np.log(t)
    else:
        x = t
    y = np.log(values)

    xm = x - x.mean()
    sxx = float(np.sum(xm**2))
    if sxx == 0.0:
        raise ValueError("degenerate fit window: all abscissae equal")
    slope = float(np.sum(xm * y) / sxx)
    resid = y - (y.mean() + slope * xm)
    dof = max(t.size - 2, 1)
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    return slope, stderr
