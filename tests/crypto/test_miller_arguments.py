"""A wire point never drives a Miller loop.

The reduced Tate pairing is defined on ``E/rE``: a small-order part of
the *evaluated* point changes nothing, ``ê(P, Q + T) = ê(P, Q)``, but a
small-order part of the point whose lines the loop walks (the first
argument) changes the value, and can move it out of μ_r.
``Point.from_bytes`` checks the curve, not the subgroup.  So lines are
built only from points a key authority minted — token components, CP-ABE
key points, the generator — and a point decoded from the wire is only
ever evaluated (docs/PROTOCOL.md, "Which point drives the Miller loop").

This scan pins every ``src/`` caller of the functions that take a line
point to the callers below, each with its reason.  A new caller — say,
publication-side lines built from a ciphertext's points — fails it until
it is added here, behind a subgroup check that it counts.  The list is
short because ``src/`` walks Miller's loop in one function,
``pairing._lines``: the second scan pins it as the only Miller-side caller
of the Jacobian steps.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# the first argument (or each pair's first point) is the one whose lines are walked
LINE_TAKERS = {
    "_lines",
    "precompute_pairing",
    "precompute_miller",
    "miller_loop",
    "multi_pair",
    "tate_pairing",
    "multi_pairing",
}

CALLERS = {
    "crypto/pairing.py:precompute_miller": "draws its first argument's lines: its callers are pinned here",
    "crypto/pairing.py:miller_loop": "draws its first argument's lines: its callers are pinned here",
    "crypto/pairing.py:tate_pairing": "draws its first argument's lines: its callers are pinned here",
    "crypto/pairing.py:multi_pairing": "draws its first argument's lines: its callers are pinned here",
    "pbe/hve.py:HVE._token_lines": (
        "a token's components, minted by the PBE-TS; under delegated matching the DS "
        "builds them from the bytes a client registered, which spoils only that "
        "client's own verdict"
    ),
    "abe/bsw07.py:CPABE.decrypt": "the secret key's points, minted by the ARA",
    "crypto/group.py:PairingGroup.gt_generator": "ê(g, g): the generator",
    "crypto/group.py:PairingGroup.precompute_pairing": "the facade: its callers are pinned here",
    "crypto/group.py:PairingGroup.multi_pair": "the facade: its callers are pinned here",
    "perf/calibrate.py:calibrate": "a timing probe over points the group drew itself",
    "perf/gate.py:probe_match_speedups": "a timing probe over points the group drew itself",
}


# every src/ caller of the Jacobian steps that walk a point: ladders and
# comb tables, and one Miller walk
STEPPERS = {"double", "add_affine"}
STEP_CALLERS = {
    "crypto/jacobian.py:add_affine",  # P + P is a doubling
    "crypto/jacobian.py:multiples",
    "crypto/jacobian.py:scalar_mul",
    "crypto/curve.py:FixedBaseTable.__init__",  # the doubling chain
    "crypto/curve.py:FixedBaseTable.mul",
    "crypto/pairing.py:_lines",  # Miller's loop: the one walk of T
}


def _callers(names: set[str]) -> set[str]:
    """``module:Class.method`` (or ``module:function``) of each call of ``names``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):

        def visit(node, stack):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, stack + [child])
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in names:
                        method = stack and isinstance(stack[0], ast.ClassDef)
                        owner = ".".join(n.name for n in stack[: 2 if method else 1])
                        found.add(f"{path.relative_to(SRC)}:{owner}")
                visit(child, stack)

        visit(ast.parse(path.read_text()), [])
    return found


def test_lines_come_only_from_minted_points():
    assert _callers(LINE_TAKERS) == set(CALLERS)


def test_one_function_walks_millers_loop():
    assert _callers(STEPPERS) == STEP_CALLERS
