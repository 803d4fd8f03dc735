"""Policy language parser and tree semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.abe.policy import PolicyNode, parse_policy, policy_to_string
from repro.errors import PolicyError


class TestParser:
    def test_single_attribute(self):
        node = parse_policy("org:acme")
        assert node.is_leaf
        assert node.attribute == "org:acme"

    def test_and(self):
        node = parse_policy("a and b")
        assert node.threshold == 2
        assert len(node.children) == 2

    def test_or(self):
        node = parse_policy("a or b or c")
        assert node.threshold == 1
        assert len(node.children) == 3

    def test_threshold_gate(self):
        node = parse_policy("2 of (a, b, c)")
        assert node.threshold == 2
        assert len(node.children) == 3

    def test_nested(self):
        node = parse_policy("a and (b or 2 of (c, d, e))")
        assert node.threshold == 2
        inner_or = node.children[1]
        assert inner_or.threshold == 1
        inner_threshold = inner_or.children[1]
        assert inner_threshold.threshold == 2

    def test_keywords_case_insensitive(self):
        assert parse_policy("a AND b").threshold == 2
        assert parse_policy("a Or b").threshold == 1

    def test_idempotent_on_trees(self):
        node = parse_policy("a and b")
        assert parse_policy(node) is node

    def test_leaves_order(self):
        leaves = parse_policy("a and (b or c) and d").leaves()
        assert [leaf.attribute for leaf in leaves] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a and",
            "and a",
            "a b",
            "(a",
            "a)",
            "2 of (a)",
            "0 of (a, b)",
            "5 of (a, b)",
            "2 off (a, b)",
            "a & b",
            "a and or b",
            ",",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(PolicyError):
            parse_policy(bad)

    def test_rejects_mixed_and_or_without_parens(self):
        with pytest.raises(PolicyError):
            parse_policy("a and b or c")

    def test_parenthesized_mixing_ok(self):
        node = parse_policy("(a and b) or c")
        assert node.threshold == 1


class TestSatisfaction:
    def test_and_semantics(self):
        node = parse_policy("a and b")
        assert node.satisfied_by({"a", "b"})
        assert not node.satisfied_by({"a"})
        assert not node.satisfied_by(set())

    def test_or_semantics(self):
        node = parse_policy("a or b")
        assert node.satisfied_by({"b"})
        assert not node.satisfied_by({"c"})

    def test_threshold_semantics(self):
        node = parse_policy("2 of (a, b, c)")
        assert node.satisfied_by({"a", "c"})
        assert not node.satisfied_by({"b"})

    def test_satisfying_children_count(self):
        node = parse_policy("2 of (a, b, c)")
        picked = node.satisfying_children({"a", "b", "c"})
        assert len(picked) == 2

    def test_satisfying_children_unsatisfied_raises(self):
        node = parse_policy("a and b")
        with pytest.raises(PolicyError):
            node.satisfying_children({"a"})

    def test_satisfying_children_on_leaf_raises(self):
        with pytest.raises(PolicyError):
            parse_policy("a").satisfying_children({"a"})

    def test_extra_attributes_ignored(self):
        assert parse_policy("a").satisfied_by({"a", "b", "z"})


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "a and b",
            "a or b or c",
            "2 of (a, b, c)",
            "a and (b or 2 of (c, d, e))",
            "(a and b) or (c and d)",
        ],
    )
    def test_to_string_reparses_equal(self, text):
        tree = parse_policy(text)
        assert parse_policy(policy_to_string(tree)) == tree


class TestNodeValidation:
    def test_leaf_with_children_rejected(self):
        with pytest.raises(PolicyError):
            PolicyNode(attribute="a", threshold=1, children=(PolicyNode.leaf("b"),))

    def test_gate_without_children_rejected(self):
        with pytest.raises(PolicyError):
            PolicyNode(attribute=None, threshold=1, children=())

    def test_gate_bad_threshold_rejected(self):
        with pytest.raises(PolicyError):
            PolicyNode.gate(3, [PolicyNode.leaf("a")])


attribute_names = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def policy_trees(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return PolicyNode.leaf(draw(attribute_names))
    num_children = draw(st.integers(min_value=1, max_value=3))
    children = [draw(policy_trees(depth=depth - 1)) for _ in range(num_children)]
    threshold = draw(st.integers(min_value=1, max_value=num_children))
    return PolicyNode.gate(threshold, children)


class TestPolicyProperties:
    @settings(max_examples=60)
    @given(policy_trees(), st.sets(attribute_names))
    def test_satisfying_children_consistent(self, tree, attributes):
        # satisfied_by and satisfying_children must agree at every gate
        if tree.is_leaf:
            return
        if tree.satisfied_by(attributes):
            picked = tree.satisfying_children(attributes)
            assert len(picked) == tree.threshold
        else:
            with pytest.raises(PolicyError):
                tree.satisfying_children(attributes)

    @settings(max_examples=60)
    @given(policy_trees())
    def test_string_roundtrip(self, tree):
        reparsed = parse_policy(policy_to_string(tree))
        assert [leaf.attribute for leaf in reparsed.leaves()] == [
            leaf.attribute for leaf in tree.leaves()
        ]

    @settings(max_examples=60)
    @given(policy_trees(), st.sets(attribute_names))
    def test_roundtrip_preserves_satisfaction(self, tree, attributes):
        reparsed = parse_policy(policy_to_string(tree))
        assert reparsed.satisfied_by(attributes) == tree.satisfied_by(attributes)
