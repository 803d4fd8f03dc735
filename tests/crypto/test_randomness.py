"""One randomness seam: every secret under ``src/repro`` is drawn in
:mod:`repro.crypto.randomness`, and only a test or bench seeds it.

Two scans over ``src/repro``: no module but the seam reaches the OS's
randomness itself (``secrets``, ``os.urandom``, ``random.SystemRandom``),
and no module enters :func:`~repro.crypto.randomness.seeded` — a seeded
source in a deployment is a break, not a bug.  Every draw names one of
the seam's kinds.  Deterministic ``random.Random`` uses (Miller–Rabin
bases, retry jitter, chaos schedules, perf probes) draw no secret and
stay where they are.
"""

from __future__ import annotations

import ast
import inspect
import random
from pathlib import Path

import pytest

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.crypto.symmetric import SecretBox

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SEAM = SRC / "crypto" / "randomness.py"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC), ast.parse(path.read_text())


def _os_randomness(tree) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "secrets"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("secrets", "os", "random"):
            found += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if node.module == "secrets" or alias.name in ("urandom", "SystemRandom")
            ]
        elif isinstance(node, ast.Attribute) and node.attr in ("urandom", "SystemRandom"):
            found.append(node.attr)
    return found


def test_no_module_but_the_seam_draws_from_the_os():
    offenders = {
        str(path): found
        for path, tree in _modules()
        if SRC / path != SEAM and (found := _os_randomness(tree))
    }
    assert not offenders


def _names(node) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_no_module_seeds_the_seam():
    offenders = [
        f"{path}:{node.lineno}"
        for path, tree in _modules()
        if SRC / path != SEAM
        for node in ast.walk(tree)
        if "seeded" in _names(node)
    ]
    assert not offenders


def test_every_draw_names_a_kind():
    draws = [
        (f"{path}:{node.lineno}", node.args[0])
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in ("draw_below", "draw_bytes")
    ]
    assert len(draws) >= 8
    assert all(
        isinstance(kind, ast.Constant) and kind.value in randomness.KINDS for _, kind in draws
    ), draws


def test_the_group_takes_no_source_of_its_own():
    assert list(inspect.signature(PairingGroup).parameters) == ["params"]


def test_pinning_one_kind_moves_no_other():
    with randomness.seeded(7):
        plain = (randomness.draw_bytes("guid", 16), randomness.draw_below("scalar", 10**40))
    with randomness.seeded(7, guid=random.Random(1)):
        pinned = (randomness.draw_bytes("guid", 16), randomness.draw_below("scalar", 10**40))
    assert pinned[0] == random.Random(1).randbytes(16) != plain[0]
    assert pinned[1] == plain[1]


def test_a_block_restores_the_os_source_and_refuses_unknown_kinds():
    with randomness.seeded(7):
        inside = SecretBox.generate_key()
        with randomness.seeded(8):
            pass
        assert SecretBox.generate_key() != inside  # the outer stream went on
    with randomness.seeded(7):
        assert SecretBox.generate_key() == inside
    assert SecretBox.generate_key() != inside  # the OS again
    with pytest.raises(TypeError, match="takes the kinds"):
        with randomness.seeded(7, nonces=random.Random(1)):
            pass
