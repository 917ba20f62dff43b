"""Command line entry point: the commands of holebox.sweeps.COMMANDS, each
with the options they all share.

Exit codes: 0 on success, 1 for configuration or I/O problems, 2 when a
solver fails on the resolved inputs.

Importing this module loads no numpy, and neither do --help, a
configuration error or any command at its default tiers; only an
angle-map that requests a converged tier imports it (see holebox.sweeps).
"""
from __future__ import annotations

import argparse
import sys

from .inputs import AssemblyError
from .materials import MaterialError
from .sweeps import COMMANDS, SOLVER_ERRORS, ConfigError, resolve_spec

# main dispatches through this table, so a wrapper put in it sees the call
_RUNNERS = {name: command.run for name, command in COMMANDS.items()}


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", metavar="FILE", default=None,
                       help="INI file overriding the built-in defaults")
        p.add_argument("--out", metavar="CSV", required=True,
                       help="output CSV path; the resolved config is "
                            "written next to it as CSV.cfg")
        p.add_argument("--tier", metavar="T1,T2", default=None,
                       help="comma separated result tiers to compute")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="accepted for compatibility (N >= 1); has no "
                            "effect: every field direction is evaluated in "
                            "one Python thread")
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
    except (AssemblyError, MaterialError) as err:
        # e.g. a cutoff past the dimension guard, or a strain sweep for a
        # material without strain parameters
        print(f"holebox: config error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"holebox: cannot write output: {err}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
