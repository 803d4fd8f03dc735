"""Knowledge closure over gadgets.

"Analysis using the PBE gadget ... involves tracing the execution steps of
the P3S system over time focusing on the behavior of individual
participants and information they become privy to during execution.  We
then test whether private information ... becomes visible to undesired
participants" (§6.1).

:func:`closure` does the mechanical half: given what a participant starts
out knowing, saturate over the gadget's AND gates (an output becomes known
once *all* of a gate's inputs are known).  :func:`derivation` reconstructs
*how* something became known — the evidence the analysis reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gadget import Gadget

__all__ = ["closure", "derivation", "Derivation"]


@dataclass(frozen=True)
class Derivation:
    """One derivation step: ``output`` obtained via ``gate_label`` from ``inputs``."""

    output: str
    gate_label: str
    inputs: tuple[str, ...]
    attack: bool


def closure(gadget: Gadget, known: set[str]) -> tuple[set[str], list[Derivation]]:
    """Saturate ``known`` over the gadget's gates.

    Returns the closed knowledge set and the ordered derivation log.  The
    orange attack edges fire too (what a participant *could* compute);
    each step says whether it was one.
    """
    known = set(known)
    log: list[Derivation] = []
    gates = gadget.gates()
    changed = True
    while changed:
        changed = False
        for gate in gates:
            if gate.output in known:
                continue
            if all(node in known for node in gate.inputs):
                known.add(gate.output)
                log.append(Derivation(gate.output, gate.label, gate.inputs, gate.attack))
                changed = True
    return known, log


def derivation(gadget: Gadget, known: set[str], target: str) -> list[Derivation] | None:
    """The minimal suffix of the derivation log that produces ``target``.

    Returns ``None`` when ``target`` is not derivable.  If ``target`` was
    known initially, returns the empty list.
    """
    if target in known:
        return []
    closed, log = closure(gadget, known)
    if target not in closed:
        return None
    # Walk backwards keeping only steps that feed the target.
    needed = {target}
    kept: list[Derivation] = []
    for step in reversed(log):
        if step.output in needed:
            kept.append(step)
            needed.update(step.inputs)
    kept.reverse()
    return kept
