"""Every decoder under ``src/`` faces hostile bytes, or says why not.

An AST scan finds every definition named ``decode_*``, ``deserialize_*``,
``parse_*``, ``from_bytes*`` or ``from_wire`` under ``src/repro``, plus the
decoders :data:`EXPLICIT` names because their names miss those.  Each one
must be *named by a hostile-bytes test* — a test function called
``test_hostile*``, or a test in a ``TestHostile*`` class, whose own code
(decorators and body, not comments) uses the decoder: a function by its
name, a method as ``Class.method`` — or sit in :data:`ALLOWLIST` with a
reason.  The decoders the roadmap still owes a property carry the reason
:data:`OWED`.  An allowlist entry that is no decoder any more, or that a
hostile-bytes test now names, is stale and fails too: strike it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"
PREFIXES = ("decode_", "deserialize_", "parse_", "from_bytes")
OWED = "owed: ROADMAP item 1"

# decoders of untrusted input whose names miss PREFIXES: "<path>:<qualified name>"
EXPLICIT = {
    "pbe/schema.py:MetadataSchema.from_json",
    "obs/prof/model.py:Profile.from_dict",
    "live/channel.py:accept_channel",
    "live/channel.py:SecureChannel.recv_record",
    "perf/bench.py:load_bench_file",
}

# "<path under src/repro>:<qualified name>" -> why no hostile-bytes test names it
ALLOWLIST = {
    "crypto/curve.py:Point.from_bytes": "reached through PairingGroup.deserialize_g1",
    "crypto/group.py:PairingGroup.deserialize_g1": (
        "every HVE ciphertext and token point: tests/pbe/test_hostile_bytes.py counts it "
        "through CountingGroup"
    ),
    "obs/tracing.py:SpanContext.from_wire": (
        "any JSON value, under tests/obs/test_context_wire.py's property (older than tests/hostile.py)"
    ),
    "abe/policy.py:parse_policy": (
        "ciphertext policy text arrives through deserialize_ciphertext/deserialize_hybrid; "
        "otherwise it parses what the publisher wrote"
    ),
}


def _is_decoder(key: str, name: str) -> bool:
    return name.startswith(PREFIXES) or name == "from_wire" or key in EXPLICIT


def decoders() -> dict[str, tuple[str | None, str]]:
    """``{"<path>:<qualname>": (class name or None, function name)}``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    key = f"{where}:{node.name}.{item.name}"
                    if _is_decoder(key, item.name):
                        found[key] = (node.name, item.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_decoder(
                f"{where}:{node.name}", node.name
            ):
                found[f"{where}:{node.name}"] = (None, node.name)
    return found


def _hostile_tests() -> list[ast.AST]:
    """Every hostile-bytes test function under ``tests/``."""
    out = []
    for path in sorted(TESTS.rglob("test_*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_hostile"):
                out.append(node)
            elif isinstance(node, ast.ClassDef) and node.name.startswith("TestHostile"):
                out.extend(
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name.startswith("test_")
                )
    return out


def named_by_hostile_tests() -> set[tuple[str | None, str]]:
    """``(class, name)`` for ``Class.name`` and ``(None, name)`` for a bare
    ``name``, over every identifier the hostile-bytes tests use."""
    names: set[tuple[str | None, str]] = set()
    for test in _hostile_tests():
        for node in ast.walk(test):
            if isinstance(node, ast.Name):
                names.add((None, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names.add((node.value.id, node.attr))
    return names


def test_every_decoder_is_under_the_property_or_allowlisted_with_a_reason():
    named = named_by_hostile_tests()
    unguarded = [
        key for key, signature in decoders().items() if signature not in named and key not in ALLOWLIST
    ]
    assert not unguarded, (
        "decoders no hostile-bytes test names (put one under the property, or list it in "
        "ALLOWLIST with a reason):\n  " + "\n  ".join(unguarded)
    )


def test_the_allowlist_is_short_and_not_stale():
    found = decoders()
    assert EXPLICIT <= set(found), f"EXPLICIT entries that are no definition: {EXPLICIT - set(found)}"
    named = named_by_hostile_tests()
    gone = sorted(set(ALLOWLIST) - set(found))
    assert not gone, f"ALLOWLIST entries that are no decoder any more: {gone}"
    covered = sorted(key for key in ALLOWLIST if found[key] in named)
    assert not covered, f"ALLOWLIST entries a hostile-bytes test now names: {covered}"
    assert all(reason.strip() for reason in ALLOWLIST.values())
    assert sum(reason != OWED for reason in ALLOWLIST.values()) <= 6

