"""Command-line entry point.

    netgreeks <subcommand> --config FILE [--out PATH] [--seed N] [--draws N] [--threads N]

Subcommands: symmetric-grid, two-firm, er-sweep, price, greeks,
local-compare, validate.  The config file is JSON; command-line flags
override the matching config fields, and a subcommand offers --seed,
--draws and --threads only where its config reads that key.  Exit codes:
0 success, 1 failed validation checks, 2 configuration error, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .experiments import KINDS, ConfigError, ExperimentConfig, run_experiment
from .fixpoint import ConvergenceError
from .sensitivity import SensitivityError

__all__ = ["main"]

# config keys a subcommand also takes as flags, where its config reads them
_FLAG_KEYS = ("seed", "draws", "threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgreeks",
        description="Valuation and network Greeks for firms with cross-holdings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="override config output path")
        for key in _FLAG_KEYS:
            if key in ExperimentConfig.OPTIONAL[kind]:
                p.add_argument(f"--{key}", type=int, default=None, help=f"override config {key}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config, kind=args.command)
        flags = {key: value for key in _FLAG_KEYS
                 if (value := getattr(args, key, None)) is not None}
        cfg = dataclasses.replace(cfg, **flags)
        out = args.out if args.out is not None else cfg.out
        if out is None and cfg.kind != "validate":
            raise ConfigError("no output path: set 'out' in the config or pass --out")
        result = run_experiment(cfg, out=out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SensitivityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    if cfg.kind == "validate":
        return 0 if result else 1
    if out is not None:
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
