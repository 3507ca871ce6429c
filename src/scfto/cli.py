"""Command-line interface: run a scenario or sweep a parameter."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .config import ConfigError, SimConfig, load_config
from .metrics import load_scenario, run_sweep, run_to_files


def _load(args) -> SimConfig:
    config = SimConfig()
    if args.config:
        config = load_config(args.config, base=config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.force_channel is not None:
        overrides["force_channel"] = args.force_channel
    if overrides:
        config = replace(config, **overrides)
    return config


def cmd_run(args) -> int:
    config = _load(args)
    acc = run_to_files(config, args.out, dump_trust=args.dump_trust,
                       dump_outlier=args.dump_outlier)
    print(f"run complete: {acc.rounds_seen} rounds, "
          f"{acc.total_packets} packets delivered, "
          f"{acc.total_drop_attacks} drops, {acc.total_delay_attacks} delays, "
          f"first death at "
          f"{'-' if acc.first_death_round is None else acc.first_death_round}")
    print(f"outputs in {args.out}/")
    return 0


def cmd_sweep(args) -> int:
    spec = load_scenario(args.spec)
    if args.out:
        spec = replace(spec, output_dir=args.out)
    summary = run_sweep(spec)
    print(f"sweep complete; combined summary at {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scfto",
        description="Secure clustering protocol simulator for industrial "
                    "wireless sensor networks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    p_run.add_argument("--config", help="flat key-value config file")
    p_run.add_argument("--seed", type=int, help="override the master seed")
    p_run.add_argument("--rounds", type=int, help="override the round budget")
    p_run.add_argument("--force-channel", choices=("good", "bad"),
                       help="pin the channel state (testing)")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--dump-trust", action="store_true",
                       help="also write per-round trust tables")
    p_run.add_argument("--dump-outlier", action="store_true",
                       help="also write per-round threshold tracking")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep scenario file")
    p_sweep.add_argument("spec", help="scenario spec file")
    p_sweep.add_argument("--out", help="override the scenario output dir")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
