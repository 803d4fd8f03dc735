"""Exporters: JSONL span dumps and console span trees.

Two consumers, two formats (metrics have theirs in
:mod:`~repro.obs.exposition`, OpenMetrics text):

* ``spans_to_jsonl`` — one JSON object per span, offline tooling's view
  (load with ``[json.loads(l) for l in open(p)]``);
* ``format_span_tree`` / ``format_op_summary`` — the human view: a
  flame-style indented tree per trace with simulated durations, plus a
  per-component crypto-op breakdown table.
"""

from __future__ import annotations

import json
from typing import Iterable

from .metrics import MetricsRegistry
from .tracing import Span, Tracer

__all__ = [
    "spans_to_jsonl",
    "write_spans_jsonl",
    "format_span_tree",
    "format_op_summary",
]


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One compact JSON object per line, in span start order."""
    return "".join(json.dumps(span.to_dict(), default=str) + "\n" for span in spans)


def write_spans_jsonl(path: str, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans_to_jsonl(spans))


def _span_line(span: Span, depth: int, last_end: float) -> str:
    indent = "  " * depth
    marker = "" if depth == 0 else "- "
    timing = (
        f"t={span.start:.3f}s dur={span.duration:.3f}s"
        if span.finished
        else f"t={span.start:.3f}s (open)"
    )
    wall = f" wall={span.wall_duration * 1e3:.2f}ms" if span.wall_duration else ""
    attrs = ""
    interesting = {
        k: v
        for k, v in span.attributes.items()
        if k in ("publication_id", "matched", "attempts", "status", "subscribers", "error")
    }
    if interesting:
        attrs = " " + " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
    return f"{indent}{marker}{span.name} [{span.component}] {timing}{wall}{attrs}"


def format_span_tree(tracer: Tracer, max_traces: int | None = None) -> str:
    """Indented causal tree per trace, with end-to-end trace latency.

    A trace's latency is measured root start → latest finished descendant
    end — for a publication trace this spans submit to last delivery.
    """
    lines: list[str] = []
    roots = tracer.roots()
    if max_traces is not None:
        roots = roots[:max_traces]
    for root in roots:
        members = tracer.trace(root.trace_id)
        ends = [s.end for s in members if s.end is not None]
        latency = (max(ends) - root.start) if ends else 0.0
        lines.append(
            f"trace {root.trace_id}: {root.name} [{root.component}] "
            f"— {len(members)} span(s), {latency:.3f}s end-to-end"
        )
        for span, depth in tracer.walk(root):
            lines.append(_span_line(span, depth + 1, 0.0))
        lines.append("")
    if not lines:
        return "(no traces recorded)"
    return "\n".join(lines).rstrip("\n")


def format_op_summary(registry: MetricsRegistry) -> str:
    """Per-component operation counts: the crypto-profiling breakdown."""
    ops: dict[str, dict[str, float]] = {}
    for (name, label_key), counter in registry.counters.items():
        if not name.startswith("op.") or name.endswith(".wall_s"):
            continue
        op = name[3:]
        component = dict(label_key).get("component", "")
        ops.setdefault(op, {})[component] = (
            ops.setdefault(op, {}).get(component, 0) + counter.value
        )
    if not ops:
        return "(no operations recorded)"
    components = sorted({c for per in ops.values() for c in per})
    name_width = max(len("operation"), max(len(op) for op in ops))
    col_width = max(8, max(len(c) for c in components) + 1)
    header = "operation".ljust(name_width) + "".join(c.rjust(col_width) for c in components)
    lines = [header, "-" * len(header)]
    for op in sorted(ops):
        per = ops[op]
        cells = "".join(
            (f"{per[c]:g}" if c in per else "·").rjust(col_width) for c in components
        )
        lines.append(op.ljust(name_width) + cells)
    return "\n".join(lines)
