"""Flat key-value configuration, the typed option resolver, the run schedule, manifests and CSV output."""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError

# The package's one version string: kvicsek.__version__, the manifests'
# code_version and, through setuptools' attr, pyproject's version read it.
CODE_VERSION = "0.1.0"


def parse_config(path: str | Path) -> dict[str, str]:
    """Parse one `key = value` per line; '#' starts a comment; no nesting; `t-end` reads as `t_end`; no key twice."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice, on lines {first[key]} and {lineno}")
        first[key] = lineno
        out[key] = value.strip()
    return out


# The one range rule: every number is finite and > 0, except these.
UNCONSTRAINED = frozenset({"amplitude", "eps_rel"})
NON_NEGATIVE = frozenset({"kappa", "snapshot_every", "seed"})


def parse_option(key: str, text: str, default: object) -> object:
    """``text`` as the type of ``default`` (a callable default is a float); ConfigError if not.

    Numbers must also meet the range rule above.
    """
    kind = float if callable(default) else type(default)
    text = str(text)
    if kind is str:
        return text
    if kind is tuple:
        parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
        if len(parts) != 3:
            raise ConfigError(f"option {key!r} must be 'n1,n2,ntheta', got {text!r}")
        return tuple(parse_option(key, p, 0) for p in parts)
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"option {key!r} must be {what}, got {text!r}") from None
    return _in_range(key, value)


def _in_range(key: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"option {key!r} must be finite, got {value}")
    if key in NON_NEGATIVE and not value >= 0:
        raise ConfigError(f"option {key!r} must be >= 0, got {value}")
    if key not in UNCONSTRAINED | NON_NEGATIVE and not value > 0:
        raise ConfigError(f"option {key!r} must be positive, got {value}")
    return value


MAX_STEPS = 10**9  # the most steps a run may take: its clock array alone is 8 GB


def step_count(t_end: float, dt: float) -> int:
    """Steps of size dt that a run to t_end takes: t_end / dt, rounded."""
    return int(round(t_end / dt))


def step_times(t0: float, dt: float, n: int) -> np.ndarray:
    """t0 and the time after each of n steps, accumulated one dt at a time (``t += dt``, bit for bit).

    ValueError, before anything is allocated, if n > MAX_STEPS.
    """
    if n > MAX_STEPS:
        raise ValueError(f"the run takes more than {MAX_STEPS:.0e} steps of dt = {dt:g}")
    return np.cumsum(np.r_[t0, np.full(n, dt)])


def due(m, n, every):
    """Whether a run of n steps samples after its m-th step (m = 0 is the start): every k-th and the last."""
    return (m % every == 0) | (m == n)


def check_cadence(name: str, every, least: int) -> None:
    """ValueError unless the ``due`` cadence ``every`` (or each of an array) is an integer >= least."""
    a = np.asarray(every)
    if a.dtype.kind not in "iu" or np.any(a < least):
        raise ValueError(f"{name} must be an integer >= {least}, got {every!r}")


def resolve_options(raw: Mapping[str, str], table: Mapping[str, object]) -> dict[str, object]:
    """Every option of ``table`` (name -> default), typed; an unknown key raises ConfigError.

    A callable default derives the value from the others when the key is absent.
    Every time step (``dt``, ``dt_*``) must give ``t_end`` at least one step and at most MAX_STEPS.
    """
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown option {unknown[0]!r}; known: {', '.join(sorted(table))}")
    values = {k: parse_option(k, raw[k], d) for k, d in table.items() if k in raw}
    values.update({k: d for k, d in table.items() if k not in raw and not callable(d)})
    for key, derive in table.items():
        if key not in values:
            values[key] = _in_range(key, derive(values))
    for key, dt in values.items():
        if (key == "dt" or key.startswith("dt_")) and "t_end" in values:
            if values["t_end"] / dt > MAX_STEPS:
                raise ConfigError(f"option {key!r} = {dt:g} gives t_end = {values['t_end']:g} more than {MAX_STEPS:.0e} steps")
            if step_count(values["t_end"], dt) < 1:
                raise ConfigError(
                    f"option {key!r} = {dt:g} leaves t_end = {values['t_end']:g} with no step"
                )
    return values


def write_manifest(out_dir: Path, preset: str, seed: int, resolved: Mapping[str, object]) -> Path:
    """Write the manifest, with status "running", before any data product; returns its path."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "manifest.json"
        payload = {
            "preset": preset,
            "seed": seed,
            "config": {k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in resolved.items()},
            "code_version": CODE_VERSION,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "status": "running",
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write manifest under {out_dir}: {exc}") from exc
    return path


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def finish_manifest(out_dir: Path, exit_code: int, error: Exception | None, wall_s: float) -> None:
    """Add how the run ended to the manifest under out_dir, if one is still "running".

    The status ("complete" on exit code 0, else "failed"), the exit code,
    the error's class and message, the wall time, and the Python and numpy
    versions and the thread variables as found (None where unset).
    """
    path = Path(out_dir) / "manifest.json"
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):  # no manifest, or none of this package
        return
    if not isinstance(payload, dict) or payload.get("status") != "running":
        return
    payload.update(
        status="failed" if exit_code else "complete",
        exit_code=exit_code,
        error=None if error is None else {"class": type(error).__name__, "message": str(error)},
        wall_s=wall_s,
        environment={"python": sys.version.split()[0], "numpy": np.__version__}
        | {name: os.environ.get(name) for name in THREAD_VARIABLES},
    )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def _format_cell(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable]) -> Path:
    """Single header row, '.' decimal separator, floats formatted %.17g.

    A row of floats alone (``float``, ``np.float64``) goes through one joined
    format string, the same bytes as formatting each cell.
    """
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        if all(isinstance(c, float) for c in row):
            lines.append(",".join(["%.17g"] * len(row)) % row)
        else:
            lines.append(",".join(_format_cell(c) for c in row))
    path.write_text("\n".join(lines) + "\n")
    return path
