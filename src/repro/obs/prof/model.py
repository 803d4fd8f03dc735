"""The :class:`Profile` value type: weighted stacks, one format, one export.

A profile is a map from *stack* — a root-first tuple of frame names —
to a :class:`StackWeight` (sample count, wall seconds, CPU seconds).
Stacks are component-attributed by construction: the samplers
(:mod:`repro.obs.prof.sampler`) prefix every stack with the component
and span name of the innermost active span, so folding the profile
groups time by protocol role (``ds;ds.delegated_fan_out;…`` vs
``rs;rs.retrieve;…``) rather than by Python module alone.

One format, one export:

* **profile dict** (:meth:`Profile.to_dict`) — the JSON the telemetry
  snapshot ships, the aggregator merges and ``prof record --out``
  writes; :meth:`Profile.from_dict` (and :func:`load_profile` over a
  file) is the one reader, strict because a profile may come from a
  service the operator does not trust;
* **collapsed-stack text** (:meth:`Profile.folded`) — one
  ``frame;frame;frame weight`` line per stack, Brendan Gregg's
  flamegraph input format (speedscope opens it too), sorted so equal
  profiles render byte-identically (the deterministic-replay contract).
  It drops the mode, origin, meta and seconds, so it is never read back.

Merging is origin-aware: every profile carries an ``origin`` token
unique to the sampler instance that produced it, so a single-process
deployment polled via four service endpoints folds to one copy of each
stack (dedup by ``(origin, stack)``), while four real processes sum.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Iterable

from ...errors import ProfileError
from ...reader import expect_object, parse_json

__all__ = [
    "Profile",
    "StackWeight",
    "OVERFLOW_FRAME",
    "diff_profiles",
    "format_diff",
    "format_report",
    "load_profile",
]

Stack = tuple[str, ...]

PROFILE_VERSION = 1
MODES = ("wall", "det")

# Bucket stacks land in once the bounded stack table is full: aggregate
# weight is preserved (memory stays flat, truncation is never silent).
OVERFLOW_FRAME = "<overflow>"

# The weights a stack accumulates.
WEIGHT_KEYS = ("count", "wall_s", "cpu_s")
_SAMPLE_FIELDS = {"stack": list, "count": int, "wall_s": (int, float), "cpu_s": (int, float)}


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
    # Weighted queries walk the stacks in sorted order, so a sum of float
    # seconds does not depend on the order the stacks arrived in: a
    # recording read back reports exactly what its recorder printed.

    @property
    def sample_count(self) -> int:
        return sum(weight.count for weight in self.samples.values())

    @property
    def weight_key(self) -> str:
        """What a report weighs frames by: wall seconds, or sample counts."""
        return "wall_s" if self.mode == "wall" else "count"

    def total(self, weight_key: str = "count") -> float:
        return sum(weight.get(weight_key) for _, weight in sorted(self.samples.items()))

    def self_times(self, weight_key: str = "count") -> dict[str, float]:
        """Per-frame *self* weight: samples where the frame is the leaf."""
        out: dict[str, float] = {}
        for stack, weight in sorted(self.samples.items()):
            if not stack:
                continue
            leaf = stack[-1]
            out[leaf] = out.get(leaf, 0.0) + weight.get(weight_key)
        return out

    def total_times(self, weight_key: str = "count") -> dict[str, float]:
        """Per-frame *total* weight: samples where the frame appears
        anywhere on the stack (counted once per stack)."""
        out: dict[str, float] = {}
        for stack, weight in sorted(self.samples.items()):
            value = weight.get(weight_key)
            for frame in set(stack):
                out[frame] = out.get(frame, 0.0) + value
        return out

    def by_component(self, weight_key: str = "count") -> dict[str, float]:
        """Weight grouped by the stack root — the attributed component."""
        out: dict[str, float] = {}
        for stack, weight in sorted(self.samples.items()):
            root = stack[0] if stack else "(empty)"
            out[root] = out.get(root, 0.0) + weight.get(weight_key)
        return out

    # -- folded (collapsed-stack) text -------------------------------------------

    def folded(self) -> str:
        """Collapsed-stack flamegraph input, deterministically ordered.

        Weights are sample counts: integral, because the flamegraph
        toolchain expects integral sample counts — and because integral
        text is what makes the deterministic mode's replay comparison
        *byte*-identical.
        """
        lines = []
        for stack in sorted(self.samples):
            value = self.samples[stack].count
            if value <= 0:
                continue
            lines.append(";".join(stack) + f" {value}")
        return "\n".join(lines) + ("\n" if lines else "")

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
    def from_dict(cls, data: Any) -> "Profile":
        """The profile :meth:`to_dict` wrote, or :class:`ProfileError`.

        Nothing is coerced: every key :meth:`to_dict` writes is present
        and no other, the version and mode are known, every stack is a
        list of strings, and every weight a non-negative finite number (a
        count an integer).
        """
        expect_object(
            data,
            {"version": int, "mode": str, "origin": str, "meta": dict, "samples": list},
            "profile",
            ProfileError,
        )
        if data["version"] != PROFILE_VERSION:
            raise ProfileError(f"unknown profile version {data['version']!r}")
        if data["mode"] not in MODES:
            raise ProfileError(f"unknown profile mode {data['mode']!r}")
        profile = cls(data["mode"], data["origin"], data["meta"])
        for entry in data["samples"]:
            expect_object(entry, _SAMPLE_FIELDS, "sample", ProfileError)
            if not all(isinstance(frame, str) for frame in entry["stack"]):
                raise ProfileError("a sample's stack is a list of strings")
            # a NaN fails the comparison; a count past the float range would
            # overflow the reports' float sums
            if not all(0 <= entry[key] <= sys.float_info.max for key in WEIGHT_KEYS):
                raise ProfileError("a sample's weights are finite non-negative numbers")
            profile.add(entry["stack"], entry["count"], entry["wall_s"], entry["cpu_s"])
        return profile


def load_profile(path: str) -> Profile:
    """Read a recording ``prof record --out`` wrote: the profile dict.

    Every failure is one :class:`ProfileError` naming ``path``; a
    ``.folded`` file is refused, as folded text is an export only.
    """
    if path.endswith(".folded"):
        raise ProfileError(
            f"{path}: folded text is an export and cannot be read back; "
            "record the profile to a JSON file instead"
        )
    try:
        with open(path, "rb") as handle:
            return Profile.from_dict(parse_json(handle.read(), ProfileError))
    except OSError as exc:
        raise ProfileError(f"{path}: {exc.strerror}") from None
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None


# -- reports and diffs ---------------------------------------------------------------


def _format_weight(value: float, weight_key: str) -> str:
    if weight_key == "count":
        return f"{value:.0f}"
    return f"{value * 1000:.1f}ms"


def format_report(profile: Profile, limit: int = 20) -> str:
    """Hot-frames table: self and total weight per frame (wall seconds
    for a wall profile, sample counts otherwise), plus the component
    split and sampler accounting footer."""
    from ...perf.report import format_table  # local import: avoid a cycle at module load

    weight_key = profile.weight_key
    self_times = profile.self_times(weight_key)
    total_times = profile.total_times(weight_key)
    grand_total = profile.total(weight_key) or 1.0
    rows = []
    for frame, self_value in sorted(self_times.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]:
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
            for component, value in sorted(split.items(), key=lambda kv: (-kv[1], kv[0]))
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
    normalize: bool = True,
) -> list[FrameDelta]:
    """Rank frames by self-time delta between two recordings, weighed
    as ``after``'s mode weighs them.

    With ``normalize`` (the default) each profile's self weights are
    scaled to fractions of its own total first, so a longer second
    recording doesn't read as "everything regressed" — the ranking
    shows *shifts in where time goes*.  Sorted most-regressed first.
    """
    weight_key = after.weight_key
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
