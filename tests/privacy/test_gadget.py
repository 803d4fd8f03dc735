"""Gadget graph structure and knowledge closure."""

import pytest

from repro.privacy.gadget import Gadget, GadgetError, cpabe_gadget, pbe_gadget
from repro.privacy.knowledge import closure, derivation


class TestGadgetConstruction:
    def test_add_element_and_gate(self):
        g = Gadget("test")
        g.add_gate(["a", "b"], "c", "combine")
        assert set(g.elements()) == {"a", "b", "c"}
        assert len(g.gates()) == 1

    def test_sensitive_marking(self):
        g = Gadget("test")
        g.add_element("secret", sensitive=True)
        g.add_element("public")
        assert g.sensitive_elements() == ["secret"]

    def test_empty_gate_rejected(self):
        with pytest.raises(GadgetError):
            Gadget("test").add_gate([], "out", "bad")

    def test_attack_gates_flagged(self):
        g = Gadget("test")
        g.add_gate(["a"], "b", "normal")
        g.add_gate(["c"], "d", "attack", attack=True)
        assert sorted(gate.attack for gate in g.gates()) == [False, True]

    def test_merge_with_rename(self):
        g1 = Gadget("one")
        g1.add_gate(["m", "k"], "ct", "enc")
        g2 = Gadget("two")
        g2.add_element("m", sensitive=True)
        g2.add_gate(["ct2", "k2"], "m", "dec")
        g1.merge(g2, rename={"m": "guid"})
        assert "guid" in g1.elements()
        # the fused element inherits sensitivity
        assert "guid" in g1.sensitive_elements() or not g2.graph.nodes["m"]["sensitive"]


class TestClosure:
    def test_simple_chain(self):
        g = Gadget("test")
        g.add_gate(["a"], "b", "1")
        g.add_gate(["b"], "c", "2")
        closed, log = closure(g, {"a"})
        assert closed == {"a", "b", "c"}
        assert [step.output for step in log] == ["b", "c"]

    def test_and_gate_needs_all_inputs(self):
        g = Gadget("test")
        g.add_gate(["a", "b"], "c", "and")
        closed, _ = closure(g, {"a"})
        assert "c" not in closed
        closed, _ = closure(g, {"a", "b"})
        assert "c" in closed

    def test_attack_gates_fire(self):
        g = Gadget("test")
        g.add_gate(["a"], "secret", "leak", attack=True)
        closed, log = closure(g, {"a"})
        assert "secret" in closed
        assert [step.attack for step in log] == [True]

    def test_derivation_path(self):
        g = Gadget("test")
        g.add_gate(["a", "b"], "c", "mix")
        g.add_gate(["c"], "d", "step")
        g.add_gate(["a"], "unrelated", "noise")
        path = derivation(g, {"a", "b"}, "d")
        assert [step.output for step in path] == ["c", "d"]

    def test_derivation_none_when_unreachable(self):
        g = Gadget("test")
        g.add_gate(["a", "b"], "c", "and")
        assert derivation(g, {"a"}, "c") is None

    def test_derivation_empty_for_initial_knowledge(self):
        g = Gadget("test")
        g.add_element("a")
        assert derivation(g, {"a"}, "a") == []


class TestSchemeGadgets:
    def test_pbe_gadget_query_semantics(self):
        """ct + token yields m; either alone does not."""
        g = pbe_gadget()
        closed, _ = closure(g, {"ct_pbe", "t_y"})
        assert "m" in closed
        closed, _ = closure(g, {"ct_pbe"})
        assert "m" not in closed
        closed, _ = closure(g, {"t_y"})
        assert "m" not in closed

    def test_pbe_gadget_token_does_not_reveal_y_without_encrypt(self):
        g = pbe_gadget()
        closed, _ = closure(g, {"t_y"})
        assert "y" not in closed
        closed, _ = closure(g, {"t_y", "X", "pk_pbe"})
        assert "y" in closed  # the token-probing attack

    def test_cpabe_policy_in_the_clear(self):
        """Anyone holding the ciphertext reads the policy (paper §3.2)."""
        g = cpabe_gadget()
        closed, _ = closure(g, {"ct_abe"})
        assert "policy" in closed
        assert "payload" not in closed

    def test_cpabe_decryption_needs_key(self):
        g = cpabe_gadget()
        closed, _ = closure(g, {"ct_abe", "sk_attrs"})
        assert "payload" in closed
