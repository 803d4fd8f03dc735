"""The CLI surface fence: every command, option and help text, pinned.

``surface.json`` is :func:`surface` of ``build_parser()`` on commit
ab7cbe2, when the whole CLI was one module.  The split into per-subsystem
command modules kept that surface with one deliberate difference: the
three ``-p/--params`` options are one definition, so ``prof ledger -p``
gained the ``choices`` that ``table1`` and ``calibrate`` already had, and
all three share one help text.

The snapshot is structural (parser tree, action attributes), not
``format_help()`` text, so Python versions that wrap help differently
agree on it.  Regenerate (only for an intended surface change)::

    PYTHONPATH=src python tests/cli/test_surface.py > tests/cli/surface.json
"""

from __future__ import annotations

import argparse
import json
import os

from repro import cli
from repro.cli import build_parser

GOLDEN = os.path.join(os.path.dirname(__file__), "surface.json")

FIELDS = ("option_strings", "dest", "default", "choices", "required", "metavar", "nargs", "help")

PARAMS = {
    "option_strings": ["-p", "--params"],
    "dest": "params",
    "default": "TOY",
    "choices": ["TOY", "TEST", "PAPER"],
    "required": False,
    "metavar": None,
    "nargs": None,
    "help": "calibration parameter set (default: TOY)",
    "type": None,
}


def _action(action: argparse.Action) -> dict:
    entry = {field: getattr(action, field) for field in FIELDS}
    if entry["choices"] is not None:
        entry["choices"] = list(entry["choices"])
    entry["type"] = getattr(action.type, "__name__", None)
    return entry


def surface(parser: argparse.ArgumentParser, path: str = "repro") -> dict:
    """``{parser path: its description, actions and subcommands}`` for
    every parser in the tree, each list in declaration order."""
    node = {"description": parser.description, "actions": [], "subcommands": None}
    tree = {path: node}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            node["subcommands"] = {
                "dest": action.dest,
                "required": action.required,
                "commands": [[choice.dest, choice.help] for choice in action._choices_actions],
            }
            for name, child in action.choices.items():
                tree.update(surface(child, f"{path} {name}"))
        else:
            node["actions"].append(_action(action))
    return tree


def test_surface_is_the_parents_but_for_one_params_option():
    with open(GOLDEN) as handle:
        expected = json.load(handle)
    for path in ("repro table1", "repro calibrate", "repro prof ledger"):
        actions = expected[path]["actions"]
        expected[path]["actions"] = [PARAMS if a["dest"] == "params" else a for a in actions]
    assert surface(build_parser()) == expected


def test_each_top_level_command_is_registered_by_one_module():
    owners: dict[str, list[str]] = {}
    for module in cli.COMMANDS:
        sub = argparse.ArgumentParser().add_subparsers()
        module.register(sub)
        for name in sub.choices:
            owners.setdefault(name, []).append(module.__name__)
    assert all(len(modules) == 1 for modules in owners.values()), owners
    with open(GOLDEN) as handle:
        top = json.load(handle)["repro"]["subcommands"]["commands"]
    assert list(owners) == [name for name, _help in top]


if __name__ == "__main__":
    print(json.dumps(surface(build_parser()), indent=1, ensure_ascii=False))
