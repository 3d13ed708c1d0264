"""Command-line entry point with one subcommand per experiment preset.

Exit codes: 0 success, 2 configuration error, 3 numerical assertion
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import ConfigError, NumericsError
from .presets import PRESET_NAMES, ExperimentConfig, run_preset

_FLAGS = {
    "linear-ed": ["k-list", "nu-list", "n-theta", "horizon-factor", "beta"],
    "mixing": ["k-list", "nu", "n-theta", "dt", "horizon"],
    "kinetic": ["kappa", "nu", "grid", "dt", "t-end", "snapshot-every", "sample-every",
                "eps-rel", "sigma"],
    "homogeneous": ["ratio", "kappa", "nu", "n-theta", "dt", "t-end", "amplitude",
                    "sample-every"],
    "phase-diagram": ["ratio-min", "ratio-max", "ratio-steps", "nu", "n-theta", "dt",
                      "t-end", "amplitude"],
    "agents": ["n", "kappa", "nu", "dt", "t-end", "sample-every", "snapshot-every",
               "phi", "sigma", "n-theta", "amplitude"],
    "compare": ["ratio", "nu", "n", "t-end", "dt-sde", "dt-pde", "n-theta",
                "checkpoints", "band"],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvicsek",
        description="Pseudo-spectral experiments for the kinetic alignment model",
    )
    sub = parser.add_subparsers(dest="preset", required=True)
    for preset in PRESET_NAMES:
        p = sub.add_parser(preset, help=f"run the {preset} preset")
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any option")
        for flag in _FLAGS.get(preset, []):
            p.add_argument(f"--{flag}", default=None)
    return parser


def _collect_options(args: argparse.Namespace, preset: str) -> dict[str, str]:
    options: dict[str, str] = {}
    if args.config is not None:
        options.update(parse_config(args.config))
    for flag in _FLAGS.get(preset, []):
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None:
            options[flag.replace("-", "_")] = str(value)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        options[key.strip().replace("-", "_")] = value.strip()
    return options


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        options = _collect_options(args, args.preset)
        out_dir = args.out if args.out is not None else Path("out") / args.preset
        seed = args.seed if args.seed is not None else int(options.pop("seed", 0))
        cfg = ExperimentConfig(preset=args.preset, options=options, out_dir=out_dir, seed=seed)
        paths = run_preset(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical assertion failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
