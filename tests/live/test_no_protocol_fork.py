"""Gate: the live substrate carries no second copy of a protocol rule.

ROADMAP aim 2 — "one implementation of each protocol rule" — as a test
instead of a sentence.  Every rule lives in :mod:`repro.core` (and
:mod:`repro.mq.broker`) as a generator over substrate ports; a module
under ``src/repro/live/`` that starts importing the registry codec, the
match pool, a ``p3s-kind`` routing constant or a request codec, or that
defines a function by the name of a body the merge deleted, is growing
the fork back.  No sockets here: the scan is pure ``ast``.
"""

from __future__ import annotations

import ast
import pathlib

import repro.live

LIVE_DIR = pathlib.Path(repro.live.__file__).parent

# the protocol bodies deleted from live/services.py and live/clients.py
DELETED_BODIES = {
    "_on_publish", "_fan_out", "_delivery_frame", "_deliver_to", "_rs_targets",
    "_forward_to_rs", "_register_token", "_unregister_token",
    "_recover_registrations", "match_pool", "_delegated_fan_out", "_handle_store",
    "_handle_retrieve", "_handle_token_request", "_handle_forward", "publish",
    "subscribe", "_register_with_ds", "unsubscribe", "_on_deliver", "_retrieve",
    "_anonymized_call",
}  # fmt: skip
FORBIDDEN_MODULES = ("repro.store.codec", "repro.par")
# the frame kinds the DS routes on; the telemetry plane's admin RPC kinds
# (KIND_HEALTH/METRICS/SPANS/PROFILE) are live-only and not protocol rules
ROUTING_KINDS = {"KIND_METADATA", "KIND_PAYLOAD", "KIND_TOKEN_REG", "KIND_TOKEN_UNREG"}


def _absolute(module: str | None, level: int, package: str) -> str:
    if level == 0:
        return module or ""
    parts = package.split(".")
    base = parts[: len(parts) - level + 1]
    return ".".join(base + ([module] if module else []))


def _violations(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in DELETED_BODIES:
                found.append(f"defines protocol body {node.name}()")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(FORBIDDEN_MODULES):
                    found.append(f"imports {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node.module, node.level, "repro.live")
            for alias in node.names:
                full = f"{module}.{alias.name}"
                if full.startswith(FORBIDDEN_MODULES):
                    found.append(f"imports {full}")
                if alias.name in ROUTING_KINDS:
                    found.append(f"imports routing constant {alias.name}")
                # live/wire.py's own encode_frame/decode_frame are the
                # wire format, not a request codec
                if alias.name.startswith(("encode_", "decode_")) and not module.startswith(
                    "repro.live"
                ):
                    found.append(f"imports request codec {alias.name}")
    return [f"{path.name}: {what}" for what in found]


def test_live_modules_define_no_protocol_rule():
    modules = sorted(LIVE_DIR.glob("*.py"))
    assert len(modules) >= 9  # the scan is looking at the real package
    violations = [v for path in modules for v in _violations(path)]
    assert not violations, "\n".join(violations)


def test_the_scan_sees_a_fork(tmp_path):
    forked = tmp_path / "forked.py"
    forked.write_text(
        "from ..store.codec import NS_SUBS\n"
        "from ..par import MatchPool\n"
        "from ..core.messages import KIND_METADATA, KIND_HEALTH\n"
        "from ..core.rs import decode_retrieval_request\n"
        "from .wire import decode_frame\n"
        "class S:\n"
        "    async def _on_publish(self, src, message): ...\n"
    )
    assert _violations(forked) == [
        "forked.py: imports repro.store.codec.NS_SUBS",
        "forked.py: imports repro.par.MatchPool",
        "forked.py: imports routing constant KIND_METADATA",
        "forked.py: imports request codec decode_retrieval_request",
        "forked.py: defines protocol body _on_publish()",
    ]
