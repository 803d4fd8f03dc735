"""Outside-in tracing: spans around the layers' public callables.

The benchmark may not edit the program, so a traced run replaces each
callable in :data:`TARGETS` with a timing wrapper for the length of the
measured phases and puts the original back afterwards.  Every call
becomes one span ``(id, parent, target, start, end, busy, self, value)``
kept in memory and written to ``trace-<workload>.jsonl`` at exit.

Self time.  Everything runs on one thread, so the wrapped calls that
are executing at any instant form a stack.  A synchronous span is busy
from start to end; an ``async`` one only during the slices between a
resume and the next suspension, which the wrapper times by driving the
coroutine itself — the time it is parked on a socket is *wait*
(``end - start - busy``), not self.  A span's self time is its busy time
minus the busy time of the spans that ran inside it, so self times never
overlap and their sum is the time covered by any traced layer.

``parent`` is the causal parent (a contextvar, so it follows a call into
the task it spawns); the self-time arithmetic uses the execution stack.
Spans of one call tree share ``root``.  Correlating the spans of one
publication across the wire needs spans inside the program and is left
to that later change.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import DecryptionError

from stats import median

__all__ = [
    "TARGETS",
    "Target",
    "Tracer",
    "LAYER_METRICS",
    "write_jsonl",
    "measured_spans",
    "layer_metrics",
    "ledger",
]

_clock = time.perf_counter
_parent: contextvars.ContextVar[int] = contextvars.ContextVar("e2e_span", default=0)


@dataclass(frozen=True)
class Target:
    layer: str  # the per-layer metric prefix this callable reports under
    module: str
    qualname: str  # "function" or "Class.method"
    # (args, result, error) -> a number recorded with the span
    value: Callable | None = None


def _matched(args, result, error):
    return 1 if result is not None else 0


def _denied(args, result, error):
    return 1 if isinstance(error, DecryptionError) else 0


def _arg1_len(args, result, error):
    return len(args[1])


def _arg0_len(args, result, error):
    return len(args[0])


def _result_len(args, result, error):
    return len(result) if result is not None else 0


def _result(args, result, error):
    return result or 0


def _arg2_len(args, result, error):
    return len(args[2])


def _serializers(module: str) -> list[str]:
    names = importlib.import_module(module).__all__
    return [n for n in names if n.startswith(("serialize_", "deserialize_"))]


TARGETS: tuple[Target, ...] = (
    Target("pbe.query", "repro.pbe.hve", "HVE.query", _matched),
    Target("pbe.encrypt", "repro.pbe.hve", "HVE.encrypt"),
    Target("pbe.gen_token", "repro.pbe.hve", "HVE.gen_token"),
    Target("crypto.pairing", "repro.crypto.pairing", "tate_pairing"),
    Target("crypto.pairing", "repro.crypto.pairing", "tate_pairing_precomputed"),
    Target("crypto.pairing", "repro.crypto.pairing", "multi_pairing"),
    Target("crypto.pairing", "repro.crypto.pairing", "multi_pairing_precomputed"),
    Target("crypto.pairing.precompute", "repro.crypto.pairing", "precompute_miller"),
    Target("crypto.curve.scalar_mul", "repro.crypto.curve", "Point.__mul__"),
    Target("crypto.curve.scalar_mul", "repro.crypto.curve", "Point.__rmul__"),
    Target("crypto.curve.hash_to_point", "repro.crypto.curve", "hash_to_point"),
    Target("abe.encrypt", "repro.abe.hybrid", "HybridCPABE.encrypt"),
    Target("abe.decrypt", "repro.abe.hybrid", "HybridCPABE.decrypt", _denied),
    Target("core.pbe_ts.mint", "repro.core.pbe_ts", "TokenIssuer.open_request"),
    Target("core.pbe_ts.mint", "repro.core.pbe_ts", "TokenIssuer.authorize"),
    Target("core.pbe_ts.mint", "repro.core.pbe_ts", "TokenIssuer.mint"),
    Target("crypto.pke", "repro.crypto.pke", "PKEPublicKey.encrypt"),
    Target("crypto.pke", "repro.crypto.pke", "PKEKeyPair.decrypt"),
    Target("crypto.signing", "repro.crypto.signing", "SigningKeyPair.sign"),
    Target("crypto.signing", "repro.crypto.signing", "VerifyKey.verify"),
    Target("crypto.symmetric", "repro.crypto.symmetric", "SecretBox.seal", _arg1_len),
    Target("crypto.symmetric", "repro.crypto.symmetric", "SecretBox.open", _arg1_len),
    Target("live.wire", "repro.live.wire", "encode_frame", _result_len),
    Target("live.wire", "repro.live.wire", "decode_frame", _arg0_len),
    Target("live.channel.send", "repro.live.channel", "SecureChannel.send_record", _result),
    Target("live.rpc.call", "repro.live.rpc", "LiveRpcEndpoint.call"),
    Target("live.rpc.cast", "repro.live.rpc", "LiveRpcEndpoint.cast"),
    *(Target("pbe.serialize", "repro.pbe.serialize", n) for n in _serializers("repro.pbe.serialize")),
    *(Target("abe.serialize", "repro.abe.serialize", n) for n in _serializers("repro.abe.serialize")),
    Target("core.rs.store", "repro.core.rs", "RepositoryStore.store"),
    Target("core.rs.lookup", "repro.core.rs", "RepositoryStore.lookup"),
    Target("core.rs.gc", "repro.core.rs", "RepositoryStore.collect_garbage"),
    Target("store.put", "repro.store.engine", "MemoryEngine.put"),
    Target("store.delete", "repro.store.engine", "MemoryEngine.delete"),
    Target("store.put", "repro.store.wal", "WalEngine.put"),
    Target("store.delete", "repro.store.wal", "WalEngine.delete"),
    Target("store.compact", "repro.store.wal", "WalEngine.compact"),
    Target("par.match", "repro.par.pool", "MatchPool.match", _arg2_len),
)


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        # (id, parent, target index, start, end, busy_s, self_s, value)
        self.spans: list[tuple] = []
        # (phase name, first span position, perf_counter at the mark)
        self.marks: list[tuple[str, int, float]] = []
        self._active = False
        self._next_id = 0
        self._stack: list[list[float]] = []  # busy time of nested spans, per running span
        self._restore: list[tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for index, target in enumerate(self.targets):
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(index, target, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(index, target, original)
            # a module-level function is also bound, by name, in every
            # module that did ``from x import f``
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for bound_as, bound in list(vars(loaded).items()):
                    if bound is original:
                        self._patch(loaded, bound_as, original, wrapper)
        self._active = True

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self._active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def mark(self, phase: str) -> None:
        """Start a named phase: spans recorded from here on belong to it."""
        self.marks.append((phase, len(self.spans), _clock()))

    def span_cost_s(self, calls: int = 20000) -> float:
        """What recording one span costs, measured on a no-op.

        Spans x this cost / busy time is the tracing overhead.  Taking
        the difference between a traced and an untraced segment instead
        cannot resolve it: the machine's own speed drifts by more.
        """

        def nothing():
            pass

        probe = Tracer(self.targets)
        probe._active = True
        wrapped = probe._wrap_sync(0, None, nothing)
        started = _clock()
        for _ in range(calls):
            wrapped()
        traced = _clock() - started
        started = _clock()
        for _ in range(calls):
            nothing()
        return max(0.0, traced - (_clock() - started)) / calls

    # -- the wrappers ----------------------------------------------------------

    def _wrap(self, index: int, target: Target, original):
        if inspect.iscoroutinefunction(original):
            return self._wrap_async(index, target.value, original)
        return self._wrap_sync(index, target.value, original)

    def _wrap_sync(self, index: int, value_of, original):
        tracer, stack, spans = self, self._stack, self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._active:
                return original(*args, **kwargs)
            tracer._next_id = span_id = tracer._next_id + 1
            parent = _parent.get()
            token = _parent.set(span_id)
            nested = [0.0]
            stack.append(nested)
            result = error = None
            start = _clock()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = _clock()
                stack.pop()
                _parent.reset(token)
                busy = end - start
                if stack:
                    stack[-1][0] += busy
                value = value_of(args, result, error) if value_of else 0
                spans.append((span_id, parent, index, start, end, busy, busy - nested[0], value))

        return traced

    def _wrap_async(self, index: int, value_of, original):
        tracer = self

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            if not tracer._active:
                return await original(*args, **kwargs)
            return await _Driven(tracer, index, value_of, args, original(*args, **kwargs))

        return traced


class _Driven:
    """Awaitable that steps a coroutine itself, timing each slice."""

    __slots__ = ("tracer", "index", "value_of", "args", "coro")

    def __init__(self, tracer: Tracer, index: int, value_of, args, coro):
        self.tracer, self.index, self.value_of = tracer, index, value_of
        self.args, self.coro = args, coro

    def __await__(self):
        tracer = self.tracer
        stack = tracer._stack
        tracer._next_id = span_id = tracer._next_id + 1
        parent = _parent.get()
        inner = self.coro.__await__()
        busy = own = 0.0
        result = error = sent = thrown = None
        start = _clock()
        try:
            while True:
                token = _parent.set(span_id)
                nested = [0.0]
                stack.append(nested)
                resumed = _clock()
                try:
                    if thrown is not None:
                        yielded = inner.throw(thrown)
                    else:
                        yielded = inner.send(sent)
                except StopIteration as stop:
                    result = stop.value
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    slice_s = _clock() - resumed
                    stack.pop()
                    _parent.reset(token)
                    busy += slice_s
                    own += slice_s - nested[0]
                    if stack:
                        stack[-1][0] += slice_s
                try:
                    sent, thrown = (yield yielded), None
                except BaseException as exc:  # cancellation, or close()
                    sent, thrown = None, exc
        finally:
            value = self.value_of(self.args, result, error) if self.value_of else 0
            tracer.spans.append(
                (span_id, parent, self.index, start, _clock(), busy, own, value)
            )


# -- output ---------------------------------------------------------------------


def write_jsonl(tracer: Tracer, path: str) -> None:
    """One span per line, phases as ``{"phase": ...}`` marker lines."""
    parents = {span[0]: span[1] for span in tracer.spans}
    roots: dict[int, int] = {0: 0}

    def root_of(span_id: int) -> int:
        chain = []
        while span_id not in roots:
            chain.append(span_id)
            parent = parents.get(span_id, 0)
            if parent == 0:
                roots[span_id] = span_id
                break
            span_id = parent
        root = roots[span_id]
        for link in chain:
            roots[link] = root
        return root

    marks = {position: (phase, at) for phase, position, at in tracer.marks}
    with open(path, "w", encoding="utf-8") as out:
        for position, span in enumerate(tracer.spans):
            if position in marks:
                phase, at = marks[position]
                out.write(json.dumps({"phase": phase, "start": at}) + "\n")
            span_id, parent, index, start, end, busy, own, value = span
            target = tracer.targets[index]
            out.write(
                json.dumps(
                    {
                        "id": span_id,
                        "parent": parent,
                        "root": root_of(span_id),
                        "name": target.qualname,
                        "layer": target.layer,
                        "start": start,
                        "end": end,
                        "busy_ms": busy * 1e3,
                        "self_ms": own * 1e3,
                        "value": value,
                    }
                )
                + "\n"
            )


# -- per-layer metrics ------------------------------------------------------------

# (metric name, layer, statistic).  Statistics, all over the measured
# phases: calls, self_ms, bytes (sum of span values) and wall_ms (sum of
# durations) are per measured publication; share is sum of values /
# calls; per_call is sum of values / calls; p50_ms is the median duration.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("pbe.query.calls", "pbe.query", "calls"),
    ("pbe.query.self_ms", "pbe.query", "self_ms"),
    ("pbe.query.match_share", "pbe.query", "share"),
    ("crypto.pairing.calls", "crypto.pairing", "calls"),
    ("crypto.pairing.self_ms", "crypto.pairing", "self_ms"),
    ("crypto.pairing.precompute_calls", "crypto.pairing.precompute", "calls"),
    ("crypto.pairing.precompute_ms", "crypto.pairing.precompute", "self_ms"),
    ("pbe.encrypt.calls", "pbe.encrypt", "calls"),
    ("pbe.encrypt.self_ms", "pbe.encrypt", "self_ms"),
    ("abe.encrypt.calls", "abe.encrypt", "calls"),
    ("abe.encrypt.self_ms", "abe.encrypt", "self_ms"),
    ("crypto.curve.scalar_mul.calls", "crypto.curve.scalar_mul", "calls"),
    ("crypto.curve.scalar_mul.self_ms", "crypto.curve.scalar_mul", "self_ms"),
    ("crypto.curve.hash_to_point.calls", "crypto.curve.hash_to_point", "calls"),
    ("crypto.curve.hash_to_point.self_ms", "crypto.curve.hash_to_point", "self_ms"),
    ("abe.decrypt.calls", "abe.decrypt", "calls"),
    ("abe.decrypt.self_ms", "abe.decrypt", "self_ms"),
    ("abe.decrypt.denied_share", "abe.decrypt", "share"),
    ("pbe.gen_token.calls", "pbe.gen_token", "calls"),
    ("pbe.gen_token.self_ms", "pbe.gen_token", "self_ms"),
    ("core.pbe_ts.mint.calls", "core.pbe_ts.mint", "calls"),
    ("core.pbe_ts.mint.self_ms", "core.pbe_ts.mint", "self_ms"),
    ("crypto.pke.calls", "crypto.pke", "calls"),
    ("crypto.pke.self_ms", "crypto.pke", "self_ms"),
    ("crypto.signing.calls", "crypto.signing", "calls"),
    ("crypto.signing.self_ms", "crypto.signing", "self_ms"),
    ("crypto.symmetric.calls", "crypto.symmetric", "calls"),
    ("crypto.symmetric.self_ms", "crypto.symmetric", "self_ms"),
    ("crypto.symmetric.bytes", "crypto.symmetric", "bytes"),
    ("live.wire.calls", "live.wire", "calls"),
    ("live.wire.self_ms", "live.wire", "self_ms"),
    ("live.wire.bytes", "live.wire", "bytes"),
    ("live.channel.send.calls", "live.channel.send", "calls"),
    ("live.channel.send.self_ms", "live.channel.send", "self_ms"),
    ("live.channel.send.bytes", "live.channel.send", "bytes"),
    ("live.rpc.calls", "live.rpc.call", "calls"),
    ("live.rpc.casts", "live.rpc.cast", "calls"),
    ("live.rpc.call_ms_p50", "live.rpc.call", "p50_ms"),
    ("pbe.serialize.self_ms", "pbe.serialize", "self_ms"),
    ("abe.serialize.self_ms", "abe.serialize", "self_ms"),
    ("core.rs.store.calls", "core.rs.store", "calls"),
    ("core.rs.store.self_ms", "core.rs.store", "self_ms"),
    ("core.rs.lookup.calls", "core.rs.lookup", "calls"),
    ("core.rs.lookup.self_ms", "core.rs.lookup", "self_ms"),
    ("core.rs.gc.self_ms", "core.rs.gc", "self_ms"),
    ("store.put.calls", "store.put", "calls"),
    ("store.put.self_ms", "store.put", "self_ms"),
    ("store.delete.calls", "store.delete", "calls"),
    ("store.compact.calls", "store.compact", "calls"),
    ("store.compact.self_ms", "store.compact", "self_ms"),
    ("par.match.calls", "par.match", "calls"),
    ("par.match.wall_ms", "par.match", "wall_ms"),
    ("par.match.tokens_per_call", "par.match", "per_call"),
)

UNITS = {
    "calls": "1/pub",
    "self_ms": "ms/pub",
    "bytes": "B/pub",
    "wall_ms": "ms/pub",
    "share": "share",
    "per_call": "1/call",
    "p50_ms": "ms",
}


def measured_spans(tracer: Tracer, phases: tuple[str, ...]) -> list[tuple]:
    """The spans recorded during the named phases."""
    bounds = [position for _, position, _ in tracer.marks] + [len(tracer.spans)]
    chosen = []
    for (phase, first, _), last in zip(tracer.marks, bounds[1:]):
        if phase in phases:
            chosen.extend(tracer.spans[first:last])
    return chosen


def layer_metrics(tracer: Tracer, spans: list[tuple], publications: int, factor: float) -> dict:
    """``{metric name: (value, unit)}`` for every entry of LAYER_METRICS;
    ``factor`` is the machine-speed correction applied to the times."""
    by_layer: dict[str, list[tuple]] = {}
    for span in spans:
        by_layer.setdefault(tracer.targets[span[2]].layer, []).append(span)
    metrics = {}
    for name, layer, statistic in LAYER_METRICS:
        rows = by_layer.get(layer, [])
        if statistic == "calls":
            value = len(rows) / publications
        elif statistic == "self_ms":
            value = sum(r[6] for r in rows) * factor * 1e3 / publications
        elif statistic == "bytes":
            value = sum(r[7] for r in rows) / publications
        elif statistic == "wall_ms":
            value = sum(r[4] - r[3] for r in rows) * factor * 1e3 / publications
        elif statistic in ("share", "per_call"):
            value = sum(r[7] for r in rows) / len(rows) if rows else 0.0
        else:  # p50_ms
            value = median([r[4] - r[3] for r in rows]) * factor * 1e3 if rows else 0.0
        metrics[name] = (value, UNITS[statistic])
    return metrics


def ledger(tracer: Tracer, spans: list[tuple]) -> list[tuple[str, float, int]]:
    """``(layer, self seconds, calls)`` per layer, largest self time first."""
    totals: dict[str, list] = {}
    for span in spans:
        row = totals.setdefault(tracer.targets[span[2]].layer, [0.0, 0])
        row[0] += span[6]
        row[1] += 1
    return sorted(((k, v[0], v[1]) for k, v in totals.items()), key=lambda r: -r[1])
