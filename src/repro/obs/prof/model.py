"""The :class:`Profile` value type: weighted stacks and their exports.

A profile is a map from *stack* — a root-first tuple of frame names —
to a :class:`StackWeight` (sample count, wall seconds, CPU seconds).
Stacks are component-attributed by construction: the samplers
(:mod:`repro.obs.prof.sampler`) prefix every stack with the component
and span name of the innermost active span, so folding the profile
groups time by protocol role (``ds;ds.delegated_fan_out;…`` vs
``rs;rs.retrieve;…``) rather than by Python module alone.

Export forms:

* **collapsed-stack text** (:meth:`Profile.folded`) — one
  ``frame;frame;frame weight`` line per stack, Brendan Gregg's
  flamegraph input format, sorted so equal profiles render
  byte-identically (the deterministic-replay contract);
* **speedscope JSON** (:meth:`Profile.to_speedscope`) — the
  ``type: "sampled"`` schema https://www.speedscope.app understands;
* **profile dict** (:meth:`Profile.to_dict`) — the JSON wire form the
  telemetry snapshot ships and the aggregator merges.

Merging is origin-aware: every profile carries an ``origin`` token
unique to the sampler instance that produced it, so a single-process
deployment polled via four service endpoints folds to one copy of each
stack (dedup by ``(origin, stack)``), while four real processes sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = [
    "Profile",
    "StackWeight",
    "OVERFLOW_FRAME",
    "diff_profiles",
    "format_diff",
    "format_report",
    "load_profile",
    "parse_folded",
    "parse_speedscope",
]

Stack = tuple[str, ...]

PROFILE_VERSION = 1

# Bucket stacks land in once the bounded stack table is full: aggregate
# weight is preserved (memory stays flat, truncation is never silent).
OVERFLOW_FRAME = "<overflow>"

# Weight keys a caller may fold/diff by.
WEIGHT_KEYS = ("count", "wall_s", "cpu_s")


@dataclass
class StackWeight:
    """Accumulated weight of one stack: samples, wall time, CPU time."""

    count: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def add(self, count: int = 1, wall_s: float = 0.0, cpu_s: float = 0.0) -> None:
        self.count += count
        self.wall_s += wall_s
        self.cpu_s += cpu_s

    def merge(self, other: "StackWeight") -> None:
        self.add(other.count, other.wall_s, other.cpu_s)

    def get(self, key: str) -> float:
        if key not in WEIGHT_KEYS:
            raise ValueError(f"unknown weight key {key!r} (one of {WEIGHT_KEYS})")
        return getattr(self, key)

    def to_dict(self) -> dict[str, Any]:
        return {"count": self.count, "wall_s": self.wall_s, "cpu_s": self.cpu_s}


class Profile:
    """Weighted stacks from one sampler (or a merge of several).

    ``mode`` is ``"wall"`` (hz-driven :class:`StackSampler`) or
    ``"det"`` (op-count :class:`DeterministicSampler`); ``origin`` is
    the producing sampler's identity token used for merge dedup;
    ``meta`` carries sampler knobs (hz, every, seed) and counters
    (ticks, ring evictions, overflowed stacks) for the report footer.
    """

    def __init__(
        self,
        mode: str = "wall",
        origin: str = "local",
        meta: dict[str, Any] | None = None,
    ):
        self.mode = mode
        self.origin = origin
        self.meta: dict[str, Any] = dict(meta or {})
        self.samples: dict[Stack, StackWeight] = {}

    # -- building ---------------------------------------------------------------

    def add(
        self,
        stack: Iterable[str],
        count: int = 1,
        wall_s: float = 0.0,
        cpu_s: float = 0.0,
    ) -> None:
        key = tuple(stack)
        weight = self.samples.get(key)
        if weight is None:
            weight = self.samples[key] = StackWeight()
        weight.add(count, wall_s, cpu_s)

    def merge(self, other: "Profile") -> "Profile":
        """Fold ``other``'s stacks in (summing weights); returns self."""
        for stack, weight in other.samples.items():
            mine = self.samples.get(stack)
            if mine is None:
                mine = self.samples[stack] = StackWeight()
            mine.merge(weight)
        return self

    # -- queries ----------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        return sum(weight.count for weight in self.samples.values())

    def total(self, weight_key: str = "count") -> float:
        return sum(weight.get(weight_key) for weight in self.samples.values())

    def self_times(self, weight_key: str = "count") -> dict[str, float]:
        """Per-frame *self* weight: samples where the frame is the leaf."""
        out: dict[str, float] = {}
        for stack, weight in self.samples.items():
            if not stack:
                continue
            leaf = stack[-1]
            out[leaf] = out.get(leaf, 0.0) + weight.get(weight_key)
        return out

    def total_times(self, weight_key: str = "count") -> dict[str, float]:
        """Per-frame *total* weight: samples where the frame appears
        anywhere on the stack (counted once per stack)."""
        out: dict[str, float] = {}
        for stack, weight in self.samples.items():
            value = weight.get(weight_key)
            for frame in set(stack):
                out[frame] = out.get(frame, 0.0) + value
        return out

    def by_component(self, weight_key: str = "count") -> dict[str, float]:
        """Weight grouped by the stack root — the attributed component."""
        out: dict[str, float] = {}
        for stack, weight in self.samples.items():
            root = stack[0] if stack else "(empty)"
            out[root] = out.get(root, 0.0) + weight.get(weight_key)
        return out

    # -- folded (collapsed-stack) text -------------------------------------------

    def folded(self, weight_key: str = "count") -> str:
        """Collapsed-stack flamegraph input, deterministically ordered.

        Weights are integers (counts directly; seconds as microseconds)
        because the flamegraph toolchain expects integral sample counts
        — and because integral text is what makes the deterministic
        mode's replay comparison *byte*-identical.
        """
        lines = []
        for stack in sorted(self.samples):
            weight = self.samples[stack].get(weight_key)
            if weight_key != "count":
                weight = round(weight * 1e6)  # µs
            value = int(weight)
            if value <= 0 and self.samples[stack].count <= 0:
                continue
            lines.append(";".join(stack) + f" {max(value, 0)}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- speedscope ----------------------------------------------------------------

    def to_speedscope(self, name: str = "p3s") -> dict[str, Any]:
        """The speedscope ``type: "sampled"`` document (JSON-ready).

        Wall mode weighs samples in seconds; deterministic mode in raw
        sample counts (unit ``none``) so the viewer shows exact op
        ticks.
        """
        weight_key = "wall_s" if self.mode == "wall" else "count"
        frame_index: dict[str, int] = {}
        frames: list[dict[str, str]] = []
        samples: list[list[int]] = []
        weights: list[float] = []
        for stack in sorted(self.samples):
            weight = self.samples[stack].get(weight_key)
            if weight <= 0:
                continue
            indexed = []
            for frame in stack:
                if frame not in frame_index:
                    frame_index[frame] = len(frames)
                    frames.append({"name": frame})
                indexed.append(frame_index[frame])
            samples.append(indexed)
            weights.append(weight)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro.obs.prof",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": f"{name} ({self.mode})",
                    "unit": "seconds" if weight_key == "wall_s" else "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            # non-standard but round-trippable: keep the full weights +
            # meta so `prof diff` on two --out files loses nothing
            "x-repro-profile": self.to_dict(),
        }

    # -- dict wire form --------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": PROFILE_VERSION,
            "mode": self.mode,
            "origin": self.origin,
            "meta": dict(self.meta),
            "samples": [
                {"stack": list(stack), **weight.to_dict()}
                for stack, weight in sorted(self.samples.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Profile":
        profile = cls(
            mode=data.get("mode", "wall"),
            origin=data.get("origin", "local"),
            meta=data.get("meta"),
        )
        for entry in data.get("samples", []):
            profile.add(
                tuple(entry["stack"]),
                count=int(entry.get("count", 0)),
                wall_s=float(entry.get("wall_s", 0.0)),
                cpu_s=float(entry.get("cpu_s", 0.0)),
            )
        return profile


# -- parsers -----------------------------------------------------------------------


def parse_folded(text: str, mode: str = "det", origin: str = "folded") -> Profile:
    """Rebuild a profile from collapsed-stack text (counts only)."""
    profile = Profile(mode=mode, origin=origin)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_part, _, weight_part = line.rpartition(" ")
        if not stack_part or not weight_part.isdigit():
            raise ValueError(f"malformed folded line: {line!r}")
        profile.add(tuple(stack_part.split(";")), count=int(weight_part))
    return profile


def parse_speedscope(data: dict[str, Any]) -> Profile:
    """Rebuild a profile from a speedscope document.

    Prefers the embedded ``x-repro-profile`` block (lossless); falls
    back to the standard frames/samples/weights arrays for documents
    produced by other tools.
    """
    embedded = data.get("x-repro-profile")
    if isinstance(embedded, dict):
        return Profile.from_dict(embedded)
    shared_frames = [frame["name"] for frame in data.get("shared", {}).get("frames", [])]
    doc = data["profiles"][data.get("activeProfileIndex", 0)]
    if doc.get("type") != "sampled":
        raise ValueError(f"unsupported speedscope profile type {doc.get('type')!r}")
    seconds = doc.get("unit") == "seconds"
    profile = Profile(mode="wall" if seconds else "det", origin=data.get("name", "speedscope"))
    for indices, weight in zip(doc["samples"], doc["weights"]):
        stack = tuple(shared_frames[index] for index in indices)
        if seconds:
            profile.add(stack, count=1, wall_s=float(weight))
        else:
            profile.add(stack, count=int(weight))
    return profile


def load_profile(path: str) -> Profile:
    """Load a recording: speedscope JSON, profile-dict JSON, or folded text."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if "profiles" in data or "x-repro-profile" in data:
            return parse_speedscope(data)
        return Profile.from_dict(data)
    return parse_folded(text)


# -- reports and diffs ---------------------------------------------------------------


def _weight_key_for(profile: Profile) -> str:
    return "wall_s" if profile.mode == "wall" else "count"


def _format_weight(value: float, weight_key: str) -> str:
    if weight_key == "count":
        return f"{value:.0f}"
    return f"{value * 1000:.1f}ms"


def format_report(
    profile: Profile,
    limit: int = 20,
    weight_key: str | None = None,
) -> str:
    """Hot-frames table: self and total weight per frame, plus the
    component split and sampler accounting footer."""
    from ...perf.report import format_table  # local import: avoid a cycle at module load

    weight_key = weight_key or _weight_key_for(profile)
    self_times = profile.self_times(weight_key)
    total_times = profile.total_times(weight_key)
    grand_total = profile.total(weight_key) or 1.0
    rows = []
    for frame, self_value in sorted(self_times.items(), key=lambda kv: -kv[1])[:limit]:
        rows.append(
            [
                frame,
                _format_weight(self_value, weight_key),
                f"{self_value / grand_total:6.1%}",
                _format_weight(total_times.get(frame, self_value), weight_key),
            ]
        )
    unit = "samples" if weight_key == "count" else "wall"
    out = [
        format_table(
            ["frame", f"self ({unit})", "self %", f"total ({unit})"],
            rows,
            title=f"hot frames — mode {profile.mode}, "
            f"{profile.sample_count} samples, {len(profile.samples)} stacks",
        )
    ]
    split = profile.by_component(weight_key)
    if split:
        parts = ", ".join(
            f"{component}={value / grand_total:.1%}"
            for component, value in sorted(split.items(), key=lambda kv: -kv[1])
        )
        out.append(f"by component: {parts}")
    counters = {
        key: value
        for key, value in profile.meta.items()
        if key in ("ticks", "overflowed", "self_s", "ops_seen")
    }
    if counters:
        out.append(
            "sampler: "
            + ", ".join(f"{key}={value}" for key, value in sorted(counters.items()))
        )
    return "\n".join(out)


@dataclass
class FrameDelta:
    """One frame's self-weight movement between two recordings."""

    frame: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before


def diff_profiles(
    before: Profile,
    after: Profile,
    weight_key: str | None = None,
    normalize: bool = True,
) -> list[FrameDelta]:
    """Rank frames by self-time delta between two recordings.

    With ``normalize`` (the default) each profile's self weights are
    scaled to fractions of its own total first, so a longer second
    recording doesn't read as "everything regressed" — the ranking
    shows *shifts in where time goes*.  Sorted most-regressed first.
    """
    weight_key = weight_key or _weight_key_for(after)
    self_before = before.self_times(weight_key)
    self_after = after.self_times(weight_key)
    scale_before = before.total(weight_key) or 1.0 if normalize else 1.0
    scale_after = after.total(weight_key) or 1.0 if normalize else 1.0
    frames = set(self_before) | set(self_after)
    deltas = [
        FrameDelta(
            frame,
            self_before.get(frame, 0.0) / scale_before,
            self_after.get(frame, 0.0) / scale_after,
        )
        for frame in frames
    ]
    deltas.sort(key=lambda d: (-d.delta, d.frame))
    return deltas


def format_diff(
    deltas: list[FrameDelta],
    limit: int = 20,
    normalized: bool = True,
) -> str:
    from ...perf.report import format_table

    def fmt(value: float) -> str:
        return f"{value:+.2%}" if normalized else f"{value:+.1f}"

    shown = [d for d in deltas if abs(d.delta) > 1e-12][:limit]
    rows = [
        [d.frame, fmt(d.before)[1:], fmt(d.after)[1:], fmt(d.delta)]
        for d in shown
    ]
    if not rows:
        return "no self-time movement between the two recordings"
    return format_table(
        ["frame", "before", "after", "delta"],
        rows,
        title="self-time delta (most regressed first)",
    )
