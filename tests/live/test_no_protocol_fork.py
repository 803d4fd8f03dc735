"""Gate: the live substrate carries no second copy of a protocol rule.

ROADMAP aim 2 — "one implementation of each protocol rule" — as a test
instead of a sentence.  Every rule lives in :mod:`repro.core` (and
:mod:`repro.mq.broker`) as a generator over substrate ports; a module
under ``src/repro/live/`` that starts importing the registry codec, the
match pool, a ``p3s-kind`` routing constant or a request codec, that
names a JMS frame type (the client rules are :mod:`repro.mq.client`'s,
over the same ports), or that defines a function by the name of a body
the merges deleted, is growing the fork back.  The deployment is derived
once too: ``install_service`` has one calling module.  No sockets here:
the scan is pure ``ast`` and ``re``.
"""

from __future__ import annotations

import ast
import pathlib
import re

import repro.live
from repro.mq import messages as frames

LIVE_DIR = pathlib.Path(repro.live.__file__).parent
SRC_DIR = LIVE_DIR.parent

# the protocol bodies deleted from live/services.py and live/clients.py
DELETED_BODIES = {
    "_on_publish", "_fan_out", "_delivery_frame", "_deliver_to", "_rs_targets",
    "_forward_to_rs", "_register_token", "_unregister_token",
    "_recover_registrations", "match_pool", "_delegated_fan_out", "_handle_store",
    "_handle_retrieve", "_handle_token_request", "_handle_forward", "publish",
    "subscribe", "_register_with_ds", "unsubscribe", "_on_deliver", "_retrieve",
    "_anonymized_call",
    # the live JMS client slice (live/clients.py _LiveJmsClient), now mq/client.py
    "connect", "_send_to_ds", "_on_frame",
}  # fmt: skip
FORBIDDEN_MODULES = ("repro.store.codec", "repro.par")
# the frame kinds the DS routes on; the telemetry plane's one request kind
# (KIND_TELEMETRY) is live-only and not a protocol rule
ROUTING_KINDS = {"KIND_METADATA", "KIND_PAYLOAD", "KIND_TOKEN_REG", "KIND_TOKEN_UNREG"}
# the JMS frame types a client or broker casts, by constant name and by
# wire value; wire.py is the codec and may name anything it encodes
JMS_FRAME_TYPES = {"CONNECT", "SUBSCRIBE", "PUBLISH", "ACK", "PUBACK"}
JMS_WIRE_VALUES = {getattr(frames, name): name for name in JMS_FRAME_TYPES}
CODEC_MODULE = "wire.py"


def _absolute(module: str | None, level: int, package: str) -> str:
    if level == 0:
        return module or ""
    parts = package.split(".")
    base = parts[: len(parts) - level + 1]
    return ".".join(base + ([module] if module else []))


def _jms_frame_types(node: ast.AST) -> list[str]:
    """The JMS frame types ``node`` names: imported, as a bare or dotted
    identifier, or spelled out as the wire string."""
    if isinstance(node, ast.ImportFrom):
        named = [alias.name for alias in node.names]
    elif isinstance(node, ast.Name):
        named = [node.id]
    elif isinstance(node, ast.Attribute):
        named = [node.attr]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        named = [JMS_WIRE_VALUES.get(node.value)]
    else:
        return []
    return [name for name in named if name in JMS_FRAME_TYPES]


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
        if path.name != CODEC_MODULE:
            found.extend(f"names JMS frame type {name}" for name in _jms_frame_types(node))
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
        "from ..core.messages import KIND_METADATA, KIND_TELEMETRY\n"
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


def test_the_scan_sees_a_live_jms_client(tmp_path):
    """The pre-merge ``_LiveJmsClient``, re-introduced, trips the gate."""
    forked = tmp_path / "clients.py"
    forked.write_text(
        "from ..mq import messages as frames\n"
        "from ..mq.messages import ACK, JmsFrame\n"
        "class _LiveJmsClient:\n"
        "    async def connect(self):\n"
        "        await self.endpoint.cast('ds', frames.CONNECT, JmsFrame())\n"
        "    def _send_to_ds(self, body, size, headers, broker):\n"
        "        return self.endpoint.cast(broker, 'jms.publish', body)\n"
    )
    assert sorted(_violations(forked)) == [
        "clients.py: defines protocol body _send_to_ds()",
        "clients.py: defines protocol body connect()",
        "clients.py: names JMS frame type ACK",
        "clients.py: names JMS frame type CONNECT",
        "clients.py: names JMS frame type PUBLISH",
    ]
    # the codec is exempt: it may name whatever it encodes
    codec = tmp_path / "wire.py"
    codec.write_text("from ..mq.messages import PUBLISH\n")
    assert _violations(codec) == []


def test_the_deployment_is_derived_in_one_module():
    """The four ``install_service`` calls (Fig. 1's directory) are typed
    once; simulator, TCP deployment and runner realise that plan."""
    callers = sorted(
        str(path.relative_to(SRC_DIR))
        for path in SRC_DIR.rglob("*.py")
        if re.search(r"\.install_service\(", path.read_text(encoding="utf-8"))
    )
    assert callers == ["core/plan.py"]
