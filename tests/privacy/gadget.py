"""Gadgets: information-dependency graphs underneath encryption schemes.

Paper §6.1: "A gadget is a simple mechanism we developed to capture
information dependency underneath an encryption scheme. ... a gadget is a
directed graph G = (V, E) where each node in V is either an information
element or an AND gate. ... a directed edge from node u to node v means
that information element v depends on u.  When u is the & gate, then v
depends on all information elements that are incident to u."

This module provides the graph structure plus builders for the four
gadgets P3S uses (PBE — Fig. 5 —, CP-ABE, public-key, symmetric-key),
including the *extended* nodes the paper draws with broken edges
(publisher/subscriber identity associations) and the orange *attack*
edges (token probing; token accumulation).

Node names are plain strings.  Conventions from the paper: lower-case for
single elements (``x``, ``y``, ``t_y``), upper-case for "the set of all
possible" elements (``X``, ``Y``, ``T_Y``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import networkx as nx

from repro.errors import ReproError

__all__ = ["Gadget", "pbe_gadget", "cpabe_gadget", "pke_gadget", "symmetric_gadget"]


class GadgetError(ReproError):
    """Malformed gadget construction."""


@dataclass(frozen=True)
class _GateRecord:
    gate_id: str
    inputs: tuple[str, ...]
    output: str
    label: str
    attack: bool


class Gadget:
    """One information-dependency graph with AND gates."""

    def __init__(self, name: str):
        self.name = name
        self.graph = nx.DiGraph()
        self._gate_counter = itertools.count(1)

    # -- construction -------------------------------------------------------

    def add_element(self, name: str, sensitive: bool = False, description: str = "") -> None:
        """An information element; ``sensitive`` marks the paper's dark-border
        nodes (information subject to privacy requirements)."""
        if self.graph.has_node(name) and self.graph.nodes[name].get("kind") == "and":
            raise GadgetError(f"{name!r} already exists as a gate")
        self.graph.add_node(name, kind="info", sensitive=sensitive, description=description)

    def add_gate(
        self, inputs: list[str], output: str, label: str, attack: bool = False
    ) -> str:
        """An AND gate: ``output`` is derivable from *all* ``inputs`` together.

        ``attack=True`` marks the paper's orange edges — derivations that
        represent an attack rather than intended protocol operation.
        """
        if not inputs:
            raise GadgetError("a gate needs at least one input")
        for node in list(inputs) + [output]:
            if not self.graph.has_node(node):
                self.add_element(node)
        gate_id = f"&{next(self._gate_counter)}:{label}"
        self.graph.add_node(gate_id, kind="and", label=label, attack=attack)
        for node in inputs:
            self.graph.add_edge(node, gate_id)
        self.graph.add_edge(gate_id, output)
        return gate_id

    def add_dependency(self, source: str, target: str) -> None:
        """A single-input dependency (target derivable from source alone)."""
        self.add_gate([source], target, label=f"{source}->{target}")

    # -- introspection ----------------------------------------------------------

    def elements(self) -> list[str]:
        return [n for n, data in self.graph.nodes(data=True) if data.get("kind") == "info"]

    def sensitive_elements(self) -> list[str]:
        return [
            n
            for n, data in self.graph.nodes(data=True)
            if data.get("kind") == "info" and data.get("sensitive")
        ]

    def gates(self) -> list[_GateRecord]:
        records = []
        for node, data in self.graph.nodes(data=True):
            if data.get("kind") != "and":
                continue
            inputs = tuple(sorted(self.graph.predecessors(node)))
            outputs = list(self.graph.successors(node))
            if len(outputs) != 1:
                raise GadgetError(f"gate {node} must have exactly one output")
            records.append(
                _GateRecord(node, inputs, outputs[0], data.get("label", ""), bool(data.get("attack")))
            )
        return records

    def merge(self, other: "Gadget", rename: dict[str, str] | None = None) -> None:
        """Graft another gadget into this one (shared names fuse).

        ``rename`` maps the other gadget's node names onto this one's —
        e.g. the PBE gadget's plaintext ``m`` is the P3S ``guid``.
        """
        rename = rename or {}
        for element in other.elements():
            target = rename.get(element, element)
            sensitive = other.graph.nodes[element].get("sensitive", False)
            if not self.graph.has_node(target):
                self.add_element(target, sensitive=sensitive)
            elif sensitive:
                self.graph.nodes[target]["sensitive"] = True
        for gate in other.gates():
            self.add_gate(
                [rename.get(i, i) for i in gate.inputs],
                rename.get(gate.output, gate.output),
                label=f"{other.name}:{gate.label}",
                attack=gate.attack,
            )


# ---------------------------------------------------------------------------
# The four scheme gadgets (paper §6.1)
# ---------------------------------------------------------------------------

def pbe_gadget() -> Gadget:
    """The PBE gadget of Fig. 5, with extensions and attack edges.

    Elements: message ``m`` (the GUID in P3S), attribute vector ``x``
    (metadata), interest vector ``y``, keys, ciphertext ``ct_pbe``, token
    ``t_y``; plus the associations ``a_pid_x`` (publisher↔metadata) and
    ``a_sid_y`` (subscriber↔interest) drawn with broken edges.
    """
    g = Gadget("pbe")
    g.add_element("m", sensitive=True, description="plaintext message (GUID in P3S)")
    g.add_element("x", sensitive=True, description="attribute vector / metadata")
    g.add_element("y", sensitive=True, description="interest vector")
    g.add_element("pk_pbe", description="PBE master public key")
    g.add_element("sk_pbe", description="PBE master secret key")
    g.add_element("ct_pbe", description="PBE ciphertext")
    g.add_element("t_y", description="PBE token for interest y")
    g.add_element("X", description="set of all attribute vectors (encrypt capability)")
    g.add_element("Y", description="set of all interest vectors")
    g.add_element("T_Y", description="set of accumulated tokens")
    g.add_element("pid", description="publisher identity")
    g.add_element("sid", description="subscriber identity")
    g.add_element("a_pid_x", sensitive=True, description="association publisher↔metadata")
    g.add_element("a_sid_y", sensitive=True, description="association subscriber↔interest")

    # main operations (Fig. 5 solid structure)
    g.add_gate(["m", "x", "pk_pbe"], "ct_pbe", "Encrypt")
    g.add_gate(["y", "sk_pbe"], "t_y", "GenToken")
    g.add_gate(["ct_pbe", "t_y"], "m", "Query")

    # extended (broken-edge) dependencies
    g.add_gate(["pid", "x"], "a_pid_x", "associate")
    g.add_gate(["sid", "y"], "a_sid_y", "associate")

    # attack edges (orange): no token security —
    # (1) token + ability to encrypt all X reveals y
    g.add_gate(["t_y", "X", "pk_pbe"], "y", "token-probing", attack=True)
    # (2) tokens accumulated across the interest space reveal x from a
    # ciphertext (T_Y stands for holding tokens spanning much of Y)
    g.add_gate(["ct_pbe", "T_Y"], "x", "token-accumulation", attack=True)
    return g


def cpabe_gadget() -> Gadget:
    """CP-ABE: the policy travels in the clear; decryption needs satisfying
    attributes."""
    g = Gadget("cpabe")
    g.add_element("payload", sensitive=True)
    g.add_element("policy", description="access policy — NOT hidden")
    g.add_element("pp_abe", description="CP-ABE public parameters")
    g.add_element("msk_abe", description="CP-ABE master key")
    g.add_element("attrs", description="a participant's attribute set")
    g.add_element("sk_attrs", description="CP-ABE secret key for attrs")
    g.add_element("ct_abe", description="CP-ABE ciphertext")
    g.add_gate(["payload", "policy", "pp_abe"], "ct_abe", "Encrypt")
    g.add_gate(["msk_abe", "attrs"], "sk_attrs", "KeyGen")
    g.add_gate(["ct_abe", "sk_attrs"], "payload", "Decrypt")
    # the policy is readable straight off the ciphertext
    g.add_dependency("ct_abe", "policy")
    return g


def pke_gadget() -> Gadget:
    """Public-key encryption (requests to RS / PBE-TS)."""
    g = Gadget("pke")
    g.add_element("pke_plain", sensitive=True)
    g.add_element("pke_pk")
    g.add_element("pke_sk")
    g.add_element("pke_ct")
    g.add_gate(["pke_plain", "pke_pk"], "pke_ct", "Encrypt")
    g.add_gate(["pke_ct", "pke_sk"], "pke_plain", "Decrypt")
    return g


def symmetric_gadget() -> Gadget:
    """Symmetric encryption under a session key K_s."""
    g = Gadget("symmetric")
    g.add_element("sym_plain", sensitive=True)
    g.add_element("k_s", description="session key")
    g.add_element("sym_ct")
    g.add_gate(["sym_plain", "k_s"], "sym_ct", "Seal")
    g.add_gate(["sym_ct", "k_s"], "sym_plain", "Open")
    return g
