"""Command line entry point.

Exit codes: 0 on success, 1 for configuration or I/O problems, 2 when a
solver fails on the resolved inputs.
"""
from __future__ import annotations

import argparse
import sys

from .materials import MaterialError
from .sweeps import (COMMANDS, SOLVER_ERRORS, ConfigError, resolve_spec,
                     run_angle_map, run_e0_sweep, run_lz_sweep,
                     run_materials_table, run_strain_sweep)

_RUNNERS = {
    "materials-table": run_materials_table,
    "e0-sweep": run_e0_sweep,
    "lz-sweep": run_lz_sweep,
    "angle-map": run_angle_map,
    "strain-sweep": run_strain_sweep,
}

_HELP = {
    "materials-table": "figures of merit for a list of materials",
    "e0-sweep": "Rabi and Larmor frequencies versus the static field E0",
    "lz-sweep": "closed-form Rabi frequency versus dot height",
    "angle-map": "Rabi frequency over magnetic field directions",
    "strain-sweep": "qubit properties versus in-plane biaxial strain",
}


class _Parser(argparse.ArgumentParser):
    # usage errors are configuration errors, not solver failures
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(raw: str) -> int:
    if not raw.isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holebox",
        description="Rabi and Larmor frequencies of hole spin qubits in "
                    "rectangular quantum dots.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command in COMMANDS:
        p = sub.add_parser(command, help=_HELP[command])
        p.add_argument("--config", metavar="FILE", default=None,
                       help="INI file overriding the built-in defaults")
        p.add_argument("--out", metavar="CSV", required=True,
                       help="output CSV path; the resolved config is "
                            "written next to it as CSV.cfg")
        p.add_argument("--tier", metavar="T1,T2", default=None,
                       help="comma separated result tiers to compute")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted for compatibility (N >= 1); has no "
                            "effect, every grid sweep runs batched")
        p.add_argument("--set", metavar="SECTION.KEY=VALUE", action="append",
                       default=[], dest="overrides",
                       help="override one config value; repeatable")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = resolve_spec(args.command, config_path=args.config,
                            overrides=args.overrides, tiers=args.tier)
    except (ConfigError, MaterialError, OSError) as err:
        print(f"holebox: config error: {err}", file=sys.stderr)
        return 1
    try:
        out = _RUNNERS[args.command](spec, args.out)
    except SOLVER_ERRORS as err:
        print(f"holebox: solver error: {err}", file=sys.stderr)
        return 2
    except MaterialError as err:
        # e.g. strain sweep for a material without strain parameters
        print(f"holebox: config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"holebox: cannot write output: {err}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
