"""Command-line entry point.

    delayfilt run --config scenario.yaml [--mode MODE] [--seed N] [--out DIR]

Modes: filter (Monte Carlo RMSE study), identify-offline, identify-online,
sweep (RMSE vs true latency probability). Exit codes: 0 success, 2 config
error, 3 run failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, DelayFiltError
from .experiments import (
    MODES,
    load_config,
    run_identification_study,
    run_monte_carlo,
    run_sweep,
    write_outputs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayfilt",
        description="Particle filtering studies for randomly delayed measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a configured study")
    run.add_argument("--config", required=True, help="YAML scenario file")
    run.add_argument("--mode", choices=MODES, default="filter")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:  # replacing re-validates the config
            config = dataclasses.replace(config, seed=args.seed)
        if args.out is not None:
            config = dataclasses.replace(config, out_dir=args.out)
        if config.out_dir is None:
            raise ConfigError("no output directory: set out_dir in the config or pass --out")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.mode == "filter":
            result = run_monte_carlo(config)
        elif args.mode == "identify-offline":
            result = run_identification_study(config, "offline")
        elif args.mode == "identify-online":
            result = run_identification_study(config, "online")
        else:
            result = run_sweep(config)
        write_outputs(config.out_dir, config, args.mode, result)
    except DelayFiltError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
