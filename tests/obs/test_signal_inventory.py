"""Every signal the program emits has a named consumer.

ROADMAP aim 4: "every exported signal has a named consumer (an SLO, a
gate, a `live top` panel, a doc'd runbook step) or is removed".  The
emitted set is read off the source by AST — every literal name handed to
``record_op`` / ``@instrument`` / ``observe`` / a registry's ``inc``,
every ``{"name": ..., "labels": ..., "value": ...}`` sample a live
service exports, and ``GAUGE_METRICS`` — and each must have a row in the
"Signals and their consumers" table of docs/OBSERVABILITY.md with a
non-empty consumer cell.  A new counter therefore arrives with its
reader, and a row whose signal is gone fails too.
"""

from __future__ import annotations

import ast
import pathlib
import re

from repro.live.telemetry import GAUGE_METRICS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCE = REPO_ROOT / "src" / "repro"
DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"
SECTION = "## Signals and their consumers"

# the hooks that only ever name an op: a computed name cannot be checked
OP_HOOKS = {"record_op", "instrument"}
# these and a registry's inc/observe also take re-emitted (scraped) names
NAMED_CALLS = OP_HOOKS | {"observe", "observe_exemplar", "inc"}


def _callee(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def emitted_signals() -> dict[str, str]:
    """``{signal name: "file:line" of one emission site}`` for all of src/."""
    found: dict[str, str] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "hooks.py" and path.parent.name == "obs":
            continue  # the hooks' own bodies build the names generically
        tree = ast.parse(path.read_text())
        where = str(path.relative_to(REPO_ROOT))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) in NAMED_CALLS and node.args:
                first = node.args[0]
                literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
                if _callee(node) in OP_HOOKS:
                    assert literal, f"{where}:{node.lineno}: computed op name"
                    found.setdefault("op." + first.value, f"{where}:{node.lineno}")
                    if _callee(node) == "instrument":
                        found.setdefault(f"op.{first.value}.wall_s", f"{where}:{node.lineno}")
                elif literal and "." in first.value:
                    found.setdefault(first.value, f"{where}:{node.lineno}")
            elif isinstance(node, ast.Dict):
                entries = {
                    key.value: value
                    for key, value in zip(node.keys, node.values)
                    if isinstance(key, ast.Constant)
                }
                name = entries.get("name")
                if {"labels", "value"} <= set(entries) and isinstance(name, ast.Constant):
                    found.setdefault(name.value, f"{where}:{node.lineno}")
    for name in GAUGE_METRICS:
        found.setdefault(name, "repro/live/telemetry.py GAUGE_METRICS")
    return found


def documented_consumers() -> dict[str, str]:
    """``{signal name: consumer cell}`` from the docs table."""
    text = DOC.read_text()
    assert SECTION in text, f"{DOC.name} has no {SECTION!r} section"
    section = text.split(SECTION, 1)[1].split("\n## ", 1)[0]
    rows: dict[str, str] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not line.lstrip().startswith("| `"):
            continue
        for name in re.findall(r"`([^`]+)`", cells[0]):
            rows[name] = cells[1]
    return rows


def test_every_emitted_signal_names_its_consumer():
    emitted = emitted_signals()
    documented = documented_consumers()
    assert len(emitted) > 40, "the scan found too little to be believed"
    missing = {name: site for name, site in emitted.items() if not documented.get(name)}
    assert not missing, f"signals with no documented consumer: {missing}"
    stale = sorted(set(documented) - set(emitted))
    assert not stale, f"documented signals nothing emits: {stale}"
