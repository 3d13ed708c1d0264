"""Command-line entry point with one subcommand per experiment preset.

The flags are the names in each preset's option table (``n_theta`` is
``--n-theta``); a config file gives values, and the flags override it.

Exit codes: 0 success, 2 configuration error, 3 numerical assertion
failure, 4 I/O error.  ``main`` is the one place that maps errors to
them, and it adds how the run ended to the manifest the run wrote.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import finish_manifest, parse_config, parse_option
from .errors import ConfigError, NumericsError
from .presets import PRESETS, ExperimentConfig, run_preset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvicsek",
        description="Pseudo-spectral experiments for the kinetic alignment model",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="preset", required=True)
    for name in sorted(PRESETS):
        # one spelling per flag: a prefix unique today breaks when a preset gains an option
        p = sub.add_parser(name, help=f"run the {name} preset", allow_abbrev=False)
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--out", type=Path, default=Path("out") / name, help="output directory")
        p.add_argument("--seed", default=None)
        for option in PRESETS[name].options:
            p.add_argument("--" + option.replace("_", "-"), dest=option, default=None)
    return parser


def _collect_options(args: argparse.Namespace) -> dict[str, str]:
    options = parse_config(args.config) if args.config is not None else {}
    for option in ("seed", *PRESETS[args.preset].options):
        value = getattr(args, option)
        if value is not None:
            options[option] = value
    return options


def _finish(out_dir: Path, start: float, code: int, error: Exception | None = None, label: str = "") -> int:
    """Print the error under its label, finalise the run's manifest, and return the exit code (4 if that fails)."""
    if label:
        print(f"{label}: {error}", file=sys.stderr)
    try:
        finish_manifest(out_dir, code, error, time.perf_counter() - start)
    except OSError as exc:
        print(f"I/O error: cannot finalise the manifest under {out_dir}: {exc}", file=sys.stderr)
        return code or 4
    return code


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        options = _collect_options(args)
        seed = parse_option("seed", options.pop("seed", "0"), 0)
        cfg = ExperimentConfig(preset=args.preset, options=options, out_dir=args.out, seed=seed)
        paths = run_preset(cfg)
    except ConfigError as exc:
        return _finish(args.out, start, 2, exc, "config error")
    except NumericsError as exc:
        return _finish(args.out, start, 3, exc, "numerical assertion failed")
    except OSError as exc:
        return _finish(args.out, start, 4, exc, "I/O error")
    except Exception as exc:  # a defect: the record says so, then the traceback exits 1
        _finish(args.out, start, 1, exc)
        raise
    for p in paths:
        print(p)
    return _finish(args.out, start, 0)


if __name__ == "__main__":
    raise SystemExit(main())
