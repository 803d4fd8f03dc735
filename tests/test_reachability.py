"""Every path has a caller.

An AST scan of ``src/repro``: a public function, class or method must be
Load-referenced (by name) from ``src/``, ``benchmarks/`` or ``examples/``
somewhere other than its own body — or be named by a
``benchmarks/e2e/tracing.py`` target string.  Definitions, ``__all__``
strings and ``from x import y`` re-exports are not references, and tests
are not callers: code only its own tests reach is deleted, not kept.

The one exception is :data:`INSTRUMENTS` — code that tests use to exercise
behaviour that remains.  Matching is by bare name, so the scan
under-reports (a method called ``get`` is always "reached"); it exists to
stop whole unreferenced paths from accumulating, not to prove liveness.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CALLER_ROOTS = (REPO / "src", REPO / "benchmarks", REPO / "examples")
TRACING = REPO / "benchmarks" / "e2e" / "tracing.py"

# name -> why tests need it although the program does not call it.
INSTRUMENTS = {
    # store/faults.py: damage a WAL file the way a crash or a bad disk would
    "tear_tail": "store/faults: truncate a log mid-frame before a recovery test reopens it",
    "corrupt_crc": "store/faults: flip a checksum so recovery must reject the record",
    "corrupt_length": "store/faults: inflate a length field so recovery must reject the record",
    # chaos/proxy.py: the live-substrate fault shims of tests/chaos/test_live_faults.py
    "interpose": "chaos/proxy: put a FaultProxy in front of one live service",
    "disarm": "chaos/proxy: stop injecting so a test can watch the deployment heal",
    "duplicate_dispatch": "chaos/proxy: deliver one live frame twice (dedup tests)",
    "set_drop_filter": "Network: drop chosen simulator messages in the loss/retry tests",
    # obs: how an assertion reads what a run recorded
    "counter_value": "MetricsRegistry: one labelled counter, in op-count assertions",
    "counter_total": "MetricsRegistry/TelemetryAggregator: one counter summed over its labels",
    "empty": "MetricsRegistry: 'nothing was recorded' (disabled/uninstalled observability)",
    "find": "Tracer: the spans of one name, in propagation assertions",
    "installed": "Observability: scoped install so a test cannot leak its sink into the next",
    "parse_openmetrics": "obs/exposition: strict parser the tests round-trip every exposition through",
    "render": "obs/exposition: the other half of that round trip (byte-identical re-emit)",
    # crypto: predicates and sizes the property tests are written in
    "is_one": "Fq2: identity predicate of the field/pairing property tests",
    "is_zero": "Fq2: zero predicate of the field property tests",
    "conjugate": "Fq2: Frobenius, used by the textbook final exponentiation the tests compare against",
    "pke_overhead": "crypto/pke: the pinned ciphertext expansion; sizes the hostile-frame floor",
    "gaps_detected": "SecureChannelLayer: how a test sees that a sequence gap was noticed",
    # privacy/analysis: the §6.1 structural analysis is exercised by tests/privacy only
    "analyze": "privacy/analysis: run the gadget analysis under a threat model",
    "exposed": "privacy/analysis: did this participant learn this element",
    "exposures_for": "privacy/analysis: everything one participant learned",
}


def _python_files(root: Path):
    return sorted(root.rglob("*.py"))


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions():
    """``(name, qualname, path, first line, last line)`` of every public def."""
    found = []
    for path in _python_files(SRC):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _public(node.name):
                continue
            found.append((node.name, node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name):
                        qualname = f"{node.name}.{item.name}"
                        found.append((item.name, qualname, path, item.lineno, item.end_lineno))
    return found


def references():
    """name -> [(path, line)] of every Load reference outside the tests."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for root in CALLER_ROOTS:
        for path in _python_files(root):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    refs.setdefault(node.attr, []).append((path, node.lineno))
    # the benchmark wraps callables it names in strings ("Class.method")
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                if part.isidentifier():
                    refs.setdefault(part, []).append((TRACING, node.lineno))
    return refs


def unreached():
    refs = references()
    missing = []
    for name, qualname, path, first, last in definitions():
        outside = [
            (ref_path, line)
            for ref_path, line in refs.get(name, ())
            if not (ref_path == path and first <= line <= last)
        ]
        if not outside:
            missing.append((name, f"{path.relative_to(REPO)}:{first} {qualname}"))
    return missing


def test_every_public_definition_has_a_caller_outside_the_tests():
    orphans = [where for name, where in unreached() if name not in INSTRUMENTS]
    assert not orphans, (
        "defined under src/repro but referenced only by tests (delete it, or "
        "list it in INSTRUMENTS with a reason):\n  " + "\n  ".join(orphans)
    )


def test_the_allowlist_is_short_and_not_stale():
    assert len(INSTRUMENTS) <= 25
    still_unreached = {name for name, _ in unreached()}
    stale = sorted(set(INSTRUMENTS) - still_unreached)
    assert not stale, f"INSTRUMENTS entries that now have a caller or no definition: {stale}"
