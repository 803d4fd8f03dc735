"""Command-line interface: ``python -m repro <command>`` (or ``python -m repro.cli``).

Each subsystem's module registers its own commands next to their handlers
(``register(subparsers)``) and shows them in its docstring;
:data:`COMMANDS` is the one list of subsystems, in ``--help`` order.
"""

from __future__ import annotations

import argparse

from . import chaos, cluster, demo, live, paper, perf, prof, slo, store

__all__ = ["COMMANDS", "build_parser", "main"]

COMMANDS = (paper, demo, live, cluster, chaos, slo, store, prof, perf)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="P3S reproduction — experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in COMMANDS:
        module.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0
