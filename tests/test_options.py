"""Every option has a second value.

An AST scan of ``src/repro``: an optional parameter (one with a default)
of a public callable — a module-level function, a public class's
``__init__``, a public method — and every defaulted field of the config
objects (:data:`CONFIGS`: ``P3SConfig`` and the chaos ``Profile``) must be
*passed* by some call in ``src/``, ``benchmarks/`` or ``examples/``: by
keyword, or positionally at or past its index.  An option every program
caller leaves at its default is a constant (simplicity review, Options:
"with one value in use, ask for a constant").  Tests are not callers: a
test that needs another value monkeypatches the module constant, which
the code therefore reads when it runs, not as a default argument.  The
fields of other dataclasses are records, not options, and the callables
``test_reachability.INSTRUMENTS`` lists have tests for their only
callers, so their parameters are the tests' to choose.

Matching is by name, as in ``test_reachability.py``: a call to ``f`` or
``obj.f`` reaches every public ``f``; a call to a class reaches its own
``__init__`` and those of its ancestors; ``super().__init__`` reaches the
enclosing class's bases and ``cls(...)`` the enclosing class;
``replace(config, x=...)`` and ``config.with_(x=...)`` set ``P3SConfig``
fields.  A ``**mapping`` or ``*sequence`` argument sets nothing.  Two call
sites forward options indirectly, and the scan resolves both explicitly:

* :class:`~repro.core.plan.DeploymentPlan` builds classes through
  variables: ``service()`` unpacks a services tuple (``CORE_SERVICES``,
  ``LIVE_SERVICES``) into ``ds_class``/``rs_class``/``pbe_ts_class``/
  ``anonymizer_class``, and ``_client()`` builds the client class a
  caller hands ``publisher()``/``subscriber()`` with the keywords those
  methods, and the callers of them, name;
* the benchmark harness calls ``P3SConfig(**overrides)``: the keys of the
  ``config`` dicts in ``benchmarks/e2e/workloads.py`` (read by AST) and
  what a driver ``update``s into ``overrides`` are what it sets.

The exceptions are :data:`KEPT`, at most :data:`MAX_KEPT` of them, each
with its reason: deployment settings, paper-defined modes, and the
injection seams tests need for determinism or reference comparison.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .test_reachability import INSTRUMENTS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CALLER_ROOTS = (REPO / "src", REPO / "benchmarks", REPO / "examples")
PLAN = SRC / "core" / "plan.py"
HARNESS = REPO / "benchmarks" / "e2e"
WORKLOADS = HARNESS / "workloads.py"
CONFIG = "P3SConfig"
CONFIGS = (CONFIG, "Profile")  # the dataclasses whose fields are settings
SERVICE_SLOTS = ("ds_class", "rs_class", "pbe_ts_class", "anonymizer_class")
CLIENT_KINDS = ("publisher", "subscriber")

# "Owner.parameter" -> why it stays settable although no program caller
# passes it.
KEPT = {
    # deployment settings
    "main.argv": "cli: the command line; python -m repro passes the process's own",
    "RegistrationAuthority.register_subscriber.cert_not_after": (
        "core/ara: a credential's expiry date (a deployment credential setting)"
    ),
    # paper-defined modes
    "P3SConfig.use_anonymizer": "§4.1: the anonymization service is optional in the paper",
    # injection seams for determinism and reference comparison
    "RepositoryStore.wall_clock": "core/rs: an injected wall clock; a recovery test sets time",
    "open_engine.faults": "store/engine: the crash-point plan of the WAL recovery tests",
    "FaultPlan.hit": "store/faults: which visit of the armed crash point crashes",
    "run_chaos.mutate": "chaos/runner: breaks a run on purpose; mutation tests see invariants fire",
    "run_gate.history": "perf/gate: the committed records a gate test substitutes",
    "run_gate.fresh": "perf/gate: the fresh probes a gate test substitutes",
}
MAX_KEPT = 20


def _python_files(root: Path):
    return sorted(root.rglob("*.py"))


def _trees(roots):
    for root in roots:
        for path in _python_files(root):
            yield path, ast.parse(path.read_text())


def _public(name: str) -> bool:
    return not name.startswith("_")


def _decorators(node) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _optional_parameters(function, method: bool):
    """``(name, positional index or None)`` of each parameter with a
    default; a method's ``self``/``cls`` is not counted."""
    arguments = function.args
    positional = [*arguments.posonlyargs, *arguments.args]
    if method and "staticmethod" not in _decorators(function):
        positional = positional[1:]
    first_default = len(positional) - len(arguments.defaults)
    found = [(arg.arg, index) for index, arg in enumerate(positional) if index >= first_default]
    found += [
        (arg.arg, None)
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    return found


def _config_fields(cls: ast.ClassDef):
    """``(name, index)`` of every defaulted field of a config dataclass."""
    fields = [
        item
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    return [(item.target.id, index) for index, item in enumerate(fields) if item.value]


def options():
    """``(owner, kind, parameter, positional index, where)`` of every
    option: ``kind`` is ``"init"`` (owner = the class), ``"method"``
    (owner = ``Class.method``) or ``"function"``."""
    found = []
    for path, tree in _trees([SRC]):
        rel = path.relative_to(REPO)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name) and node.name not in INSTRUMENTS:
                    for name, index in _optional_parameters(node, method=False):
                        found.append((node.name, "function", name, index, f"{rel}:{node.lineno}"))
                continue
            if not (isinstance(node, ast.ClassDef) and _public(node.name)):
                continue
            if node.name in CONFIGS and "dataclass" in _decorators(node):
                for name, index in _config_fields(node):
                    found.append((node.name, "init", name, index, f"{rel}:{node.lineno}"))
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    owner, kind = node.name, "init"
                elif _public(item.name) and item.name not in INSTRUMENTS:
                    owner, kind = f"{node.name}.{item.name}", "method"
                else:
                    continue
                for name, index in _optional_parameters(item, method=True):
                    found.append((owner, kind, name, index, f"{rel}:{item.lineno}"))
    return found


def _walk(node: ast.AST, classes: tuple = ()):
    """Every node with the names of its enclosing classes."""
    for child in ast.iter_child_nodes(node):
        yield child, classes
        inner = (*classes, child.name) if isinstance(child, ast.ClassDef) else classes
        yield from _walk(child, inner)


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _site(call: ast.Call, skip: int = 0) -> tuple[int, set[str]]:
    """``(positional count, keywords)`` of a call, after ``skip``
    positionals; positions after a ``*sequence`` are unknown."""
    count = 0
    for arg in call.args[skip:]:
        if isinstance(arg, ast.Starred):
            break
        count += 1
    return count, {keyword.arg for keyword in call.keywords if keyword.arg is not None}


def _class_bases() -> dict[str, set[str]]:
    bases: dict[str, set[str]] = {}
    for _path, tree in _trees(CALLER_ROOTS):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                )
    return bases


def _plan_calls():
    """``(class, site)`` of every class ``DeploymentPlan`` builds through
    a variable."""
    services = []  # the services tuples service() may be handed
    for _path, tree in _trees([SRC]):
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_SERVICES")
                and isinstance(node.value, ast.Tuple)
            ):
                services.append([element.id for element in node.value.elts])
    plan = next(
        node
        for node in ast.parse(PLAN.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "DeploymentPlan"
    )
    methods = {item.name: item for item in plan.body if isinstance(item, ast.FunctionDef)}
    found = []
    for node in ast.walk(methods["service"]):
        if isinstance(node, ast.Call) and _callee(node) in SERVICE_SLOTS:
            slot = SERVICE_SLOTS.index(_callee(node))
            found += [(names[slot], _site(node)) for names in services]
    built = {kind: set() for kind in CLIENT_KINDS}  # keywords each client kind gets
    for kind, keywords in built.items():
        for node in ast.walk(methods[kind]):
            if isinstance(node, ast.Call) and _callee(node) == "_client":
                keywords |= _site(node)[1]
    classes = {kind: set() for kind in CLIENT_KINDS}
    for _path, tree in _trees(CALLER_ROOTS):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CLIENT_KINDS
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                classes[node.func.attr].add(node.args[0].id)
                built[node.func.attr] |= _site(node)[1]
    # _client's own call: cls(credentials, connection, group, timings, **options)
    found += [(name, (4, built[kind])) for kind in CLIENT_KINDS for name in classes[kind]]
    return found


def _harness_config_keys() -> set[str]:
    """What the harness's ``P3SConfig(**overrides)`` sets."""
    keys = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if (
            isinstance(node, ast.keyword)
            and node.arg == "config"
            and isinstance(node.value, ast.Dict)
        ):
            keys |= {key.value for key in node.value.keys if isinstance(key, ast.Constant)}
    for _path, tree in _trees([HARNESS]):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _callee(node) == "update"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "overrides"
            ):
                keys |= _site(node)[1]
    return keys


def calls() -> dict[str, list[tuple[int, set[str]]]]:
    """callee name -> the ``(positional count, keywords)`` of every call
    to it outside the tests."""
    bases = _class_bases()
    found: dict[str, list[tuple[int, set[str]]]] = {}
    for _path, tree in _trees(CALLER_ROOTS):
        for node, classes in _walk(tree):
            if not isinstance(node, ast.Call) or _callee(node) is None:
                continue
            name = _callee(node)
            enclosing = classes[-1] if classes else None
            if (
                name == "__init__"
                and isinstance(node.func.value, ast.Call)
                and _callee(node.func.value) == "super"
            ):
                callees = bases.get(enclosing, ())
            elif name == "cls" and isinstance(node.func, ast.Name) and enclosing:
                callees = (enclosing,)
            elif name in ("replace", "with_"):
                callees = (CONFIG,)
            else:
                callees = (name,)
            # replace(config, ...) and partial(f, ...) name their target first
            skip = 1 if name in ("replace", "partial") else 0
            if name == "partial" and node.args:
                target = node.args[0]
                callees = (getattr(target, "id", None) or getattr(target, "attr", ""),)
            for callee in callees:
                found.setdefault(callee, []).append(_site(node, skip))
    for callee, site in _plan_calls():
        found.setdefault(callee, []).append(site)
    found.setdefault(CONFIG, []).append((0, _harness_config_keys()))
    return found


def _descendants(bases: dict[str, set[str]]) -> dict[str, set[str]]:
    """class -> itself and every class that inherits from it."""
    children: dict[str, set[str]] = {}
    for name, parents in bases.items():
        for parent in parents:
            children.setdefault(parent, set()).add(name)
    family = {}
    for name in set(bases) | set(children):
        seen, todo = {name}, [name]
        while todo:
            for child in children.get(todo.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    todo.append(child)
        family[name] = seen
    return family


def unset() -> list[tuple[str, str]]:
    """``("Owner.parameter", where)`` of every option no program call passes."""
    sites = calls()
    family = _descendants(_class_bases())
    missing = []
    for owner, kind, name, index, where in options():
        if kind == "init":
            reaching = [site for cls in family.get(owner, {owner}) for site in sites.get(cls, ())]
        else:
            reaching = sites.get(owner.rsplit(".", 1)[-1], [])
        if not any(
            name in keywords or (index is not None and positional > index)
            for positional, keywords in reaching
        ):
            missing.append((f"{owner}.{name}", where))
    return missing


def test_every_option_is_set_by_a_program_caller():
    orphans = [f"{where} {key}" for key, where in unset() if key not in KEPT]
    assert not orphans, (
        "optional parameters or config fields no call outside tests/ passes "
        "(make each a module constant the code reads when it runs, or list it in "
        "KEPT with a reason):\n  " + "\n  ".join(orphans)
    )


def test_the_allowlist_is_short_and_not_stale():
    assert len(KEPT) <= MAX_KEPT
    assert all(reason.strip() for reason in KEPT.values())
    stale = sorted(set(KEPT) - {key for key, _ in unset()})
    assert not stale, f"KEPT entries that now have a caller or no definition: {stale}"


def test_a_mapping_sets_nothing():
    """``f(**options)`` is no evidence for any keyword: only the explicit
    resolutions above may see through one."""
    call = ast.parse("f(1, *rest, **options)").body[0].value
    assert _site(call) == (1, set())
