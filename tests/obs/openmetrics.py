"""The strict OpenMetrics parser the tests read every exposition back with.

:func:`parse_openmetrics` accepts the subset :func:`repro.obs.to_openmetrics`
emits — ``# TYPE`` comments, one sample per line, optional exemplar
annotations, a final ``# EOF`` — and rejects anything else with
``ValueError``, so a test catches format drift.  :meth:`Exposition.render`
re-emits a parsed document byte-identically (exposition → parse →
re-expose is the identity), which is the round trip the exposition tests
lean on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.obs.exposition import _format_labels, _format_value

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*?)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+#\s+\{(?P<exemplar_labels>[^}]*)\}\s+(?P<exemplar_value>[^\s]+))?"
    r"\s*$"
)
_LABEL_PAIR = re.compile(r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)')


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


_LabelsKey = tuple[tuple[str, str], ...]


@dataclass
class Exposition:
    """A parsed exposition: sample values, family types, exemplars.

    ``samples`` and ``types`` preserve document order (insertion-ordered
    dicts), which is what lets :meth:`render` re-emit the exposition
    byte-identically — the round-trip proof the tests lean on.
    """

    types: dict[str, str] = field(default_factory=dict)
    samples: dict[tuple[str, _LabelsKey], float] = field(default_factory=dict)
    # sample key -> (exemplar labels, exemplar value)
    exemplars: dict[tuple[str, _LabelsKey], tuple[_LabelsKey, float]] = field(
        default_factory=dict
    )

    def value(self, name: str, **labels: str) -> float:
        """One sample's value; raises ``KeyError`` when absent."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.samples[key]

    def total(self, name: str) -> float:
        """Sum of every sample of ``name`` across label sets."""
        return sum(v for (n, _), v in self.samples.items() if n == name)

    def _family_of(self, sample_name: str) -> str | None:
        """The family a sample belongs to (for TYPE-line placement)."""
        if sample_name in self.types:
            return sample_name
        for suffix in ("_total", "_count", "_sum"):
            if sample_name.endswith(suffix):
                family = sample_name[: -len(suffix)]
                if family in self.types:
                    return family
        return None

    def render(self) -> str:
        """Re-emit the exposition text, byte-identical to its source.

        Emits each family's ``# TYPE`` line immediately before its first
        sample, samples in parsed order, exemplar annotations included —
        the same layout :func:`to_openmetrics` produces, so
        ``render(parse_openmetrics(text)) == text`` for any text
        :func:`to_openmetrics` generated.
        """
        lines: list[str] = []
        emitted: set[str] = set()
        for (name, labels_key), value in self.samples.items():
            family = self._family_of(name)
            if family is not None and family not in emitted:
                lines.append(f"# TYPE {family} {self.types[family]}")
                emitted.add(family)
            line = f"{name}{_format_labels(dict(labels_key))} {_format_value(value)}"
            annotation = self.exemplars.get((name, labels_key))
            if annotation is not None:
                exemplar_labels, exemplar_value = annotation
                line += (
                    f" # {_format_labels(dict(exemplar_labels)) or '{}'}"
                    f" {_format_value(exemplar_value)}"
                )
            lines.append(line)
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _parse_labels(raw: str) -> _LabelsKey:
    labels: list[tuple[str, str]] = []
    position = 0
    while position < len(raw):
        match = _LABEL_PAIR.match(raw, position)
        if match is None:
            raise ValueError(f"malformed label block at {raw[position:]!r}")
        labels.append((match.group("key"), _unescape_label_value(match.group("value"))))
        position = match.end()
    return tuple(sorted(labels))


def parse_openmetrics(text: str) -> Exposition:
    """Parse an exposition produced by :func:`to_openmetrics`.

    Strict about what it accepts (one metric per line, ``# TYPE``
    comments, a final ``# EOF``) so tests catch format drift.
    """
    exposition = Exposition()
    saw_eof = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {line_number}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "TYPE":
                exposition.types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample {line!r}")
        labels = _parse_labels(match.group("labels") or "")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {line_number}: bad value {match.group('value')!r}") from exc
        key = (match.group("name"), labels)
        exposition.samples[key] = value
        if match.group("exemplar_value") is not None:
            try:
                exemplar_value = float(match.group("exemplar_value"))
            except ValueError as exc:
                raise ValueError(
                    f"line {line_number}: bad exemplar value "
                    f"{match.group('exemplar_value')!r}"
                ) from exc
            exposition.exemplars[key] = (
                _parse_labels(match.group("exemplar_labels") or ""),
                exemplar_value,
            )
    if not saw_eof:
        raise ValueError("exposition missing terminating # EOF")
    return exposition
