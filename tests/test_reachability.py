"""Every path has a caller.

An AST scan of ``src/repro``: a public function, class or method must be
Load-referenced (by name) from ``src/``, ``benchmarks/`` or ``examples/``
somewhere other than its own body — or be named by a
``benchmarks/e2e/tracing.py`` target string.  Definitions, ``__all__``
strings and ``from x import y`` re-exports are not references, and tests
are not callers: code only its own tests reach is deleted, not kept.

The one exception is :data:`INSTRUMENTS` — code that tests use to exercise
behaviour that remains.  Matching is by name, narrowed where the AST
allows: a bare ``name`` reaches only module-level definitions,
``self.<name>`` and ``cls.<name>`` only the methods of the enclosing
class's own hierarchy (its bases and subclasses, by class name), and any
other ``obj.<name>`` every definition of that name.  So the scan still
under-reports (``obj.get`` reaches every ``get``); it exists to stop whole
unreferenced paths from accumulating, not to prove liveness.  The
execution-level check is ``tests/test_execution_audit.py``: it runs every
entry point under a profile hook and asks of each function none of them
ran why it stays — an ``INSTRUMENTS`` entry is one such reason.

Every re-export has a caller too: a name a package ``__init__`` imports
from its own submodules, and does not use itself, must be imported
through the package (``from repro.core import P3SConfig``, or a relative
``from ..core import ...``) somewhere in ``src/``, ``benchmarks/`` or
``examples/``.  A test imports any other name from the module that
defines it.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CALLER_ROOTS = (REPO / "src", REPO / "benchmarks", REPO / "examples")
TRACING = REPO / "benchmarks" / "e2e" / "tracing.py"
MODULE = "<module>"  # the owner of a bare-name reference

# name -> why tests need it although the program does not call it.
INSTRUMENTS = {
    "scan_files_for": "chaos/invariants: look for expired ciphertext in every store file (§4.3 deletion)",
    # obs: how an assertion reads what a run recorded
    "counter_value": "MetricsRegistry: one labelled counter, in op-count assertions",
    "empty": "MetricsRegistry: 'nothing was recorded' (disabled/uninstalled observability)",
    "find": "Tracer: the spans of one name, in propagation assertions",
    # crypto: predicates and sizes the property tests are written in
    "is_one": "Fq2: identity predicate of the field/pairing property tests",
    "is_zero": "Fq2: zero predicate of the field property tests",
    "gaps_detected": "SecureChannelLayer: how a test sees that a sequence gap was noticed",
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


def _walk(node: ast.AST, owner: str | None = None):
    """Every node under ``node`` with the name of its innermost enclosing class."""
    for child in ast.iter_child_nodes(node):
        yield child, owner
        yield from _walk(child, child.name if isinstance(child, ast.ClassDef) else owner)


def _trees():
    for root in CALLER_ROOTS:
        for path in _python_files(root):
            yield path, ast.parse(path.read_text())


def references():
    """name -> [(path, line, owner)] of every Load reference outside the
    tests; ``owner`` is :data:`MODULE` for a bare name, the enclosing class
    of a ``self.``/``cls.`` attribute and ``None`` for any other attribute."""
    refs: dict[str, list[tuple[Path, int, str | None]]] = {}
    for path, tree in _trees():
        for node, owner in _walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.setdefault(node.id, []).append((path, node.lineno, MODULE))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                on_self = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
                refs.setdefault(node.attr, []).append(
                    (path, node.lineno, owner if on_self else None)
                )
    # the benchmark wraps callables it names in strings ("Class.method")
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                if part.isidentifier():
                    refs.setdefault(part, []).append((TRACING, node.lineno, None))
    return refs


def hierarchies():
    """class name -> the class names a ``self.`` reference inside it can
    reach: itself, its ancestors and its descendants."""
    bases: dict[str, set[str]] = {}
    for _path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                )

    def ancestors(name: str) -> set[str]:
        found, todo = set(), [name]
        while todo:
            for base in bases.get(todo.pop(), ()):
                if base not in found:
                    found.add(base)
                    todo.append(base)
        return found

    lineage = {name: ancestors(name) for name in bases}
    return {
        name: {name} | up | {other for other, theirs in lineage.items() if name in theirs}
        for name, up in lineage.items()
    }


def unreached():
    refs = references()
    family = hierarchies()
    missing = []
    for name, qualname, path, first, last in definitions():
        cls = qualname.split(".")[0] if "." in qualname else None
        outside = [
            (ref_path, line)
            for ref_path, line, owner in refs.get(name, ())
            if not (ref_path == path and first <= line <= last)
            and (
                owner is None
                or (cls is None if owner == MODULE else cls in family.get(owner, {owner}))
            )
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
    """An entry names a definition; whether an entry point now runs it is
    the execution audit's check (``tests/test_execution_audit.py``), which
    a name cannot settle: a definition named only by a branch no entry
    point takes is reachable by name and still never runs."""
    assert len(INSTRUMENTS) <= 25
    defined = {name for name, *_ in definitions()}
    stale = sorted(set(INSTRUMENTS) - defined)
    assert not stale, f"INSTRUMENTS entries that name no public definition: {stale}"


def _module_name(path: Path) -> str:
    """The dotted module a file under ``src/`` defines (a package for an ``__init__``)."""
    parts = path.relative_to(REPO / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_from(path: Path, node: ast.ImportFrom) -> str:
    """The absolute module an ``import from`` names, relative ones resolved."""
    if not node.level:
        return node.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def reexports():
    """``(package, name, where)`` of every name a package ``__init__`` imports
    from its own submodules and does not use itself."""
    found = []
    for path in sorted(SRC.rglob("__init__.py")):
        tree = ast.parse(path.read_text())
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        package = _module_name(path)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used:
                        found.append((package, name, f"{path.relative_to(REPO)}:{node.lineno}"))
    return found


def imports_through_packages():
    """``{(module, name)}`` of every ``from <module> import <name>`` outside the tests."""
    seen = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _imported_from(path, node)
                seen.update((module, alias.name) for alias in node.names)
    return seen


def unused_reexports():
    imported = imports_through_packages()
    return [
        f"{where} {package}.{name}"
        for package, name, where in reexports()
        if (package, name) not in imported
    ]


def test_every_reexport_has_a_caller_outside_the_tests():
    unused = unused_reexports()
    assert not unused, (
        f"{len(unused)} names re-exported by a package __init__ that no caller in "
        "src/, benchmarks/ or examples/ imports through the package (drop the "
        "import and its __all__ entry; a test imports the name from the module "
        "that defines it):\n  " + "\n  ".join(unused)
    )
