"""Property tests over randomized metadata-space shapes, under both encodings.

The schema → HVE-vector → HVE pipeline must agree with plaintext
predicate evaluation for *any* space shape, not just the fixtures used
elsewhere.  Schemas here vary attribute counts and domain sizes 2–17
(non-power-of-two domains exercise the unused codes of the bit encoding,
17 crosses into a fifth bit), and every drawn case runs through the one
:class:`HVE` twice: one symbol a position, and one bit a position.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto.group import PairingGroup
from repro.pbe import ENCODINGS, HVE, AttributeSpec, Interest, MetadataSchema

GROUP = PairingGroup("TOY")
HVE_SCHEME = HVE(GROUP)
GUID = b"guid"


@st.composite
def schema_and_query(draw):
    """``(attributes, metadata, interest)``: 1–4 attributes of 2–17 values,
    full metadata, and an interest constraining 1–3 of them, each to the
    published value or to a random one."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=17), min_size=1, max_size=4))
    specs = [
        AttributeSpec(f"a{index}", tuple(f"v{j}" for j in range(size)))
        for index, size in enumerate(sizes)
    ]
    metadata = {spec.name: draw(st.sampled_from(spec.values)) for spec in specs}
    constrained = draw(
        st.lists(st.sampled_from(specs), min_size=1, max_size=min(3, len(specs)), unique=True)
    )
    constraints = {
        spec.name: (
            metadata[spec.name] if draw(st.booleans()) else draw(st.sampled_from(spec.values))
        )
        for spec in constrained
    }
    return specs, metadata, Interest(constraints)


class TestRandomizedSchemas:
    @settings(max_examples=15, deadline=None)
    @given(schema_and_query())
    def test_hve_agrees_with_plaintext_matching(self, case):
        specs, metadata, interest = case
        for encoding in ENCODINGS:
            schema = MetadataSchema(specs, encoding)
            public, master = HVE_SCHEME.setup(schema.alphabet_sizes)
            ciphertext = HVE_SCHEME.encrypt(public, schema.encode_metadata(metadata), GUID)
            token = HVE_SCHEME.gen_token(master, schema.encode_interest(interest))
            assert (HVE_SCHEME.query(token, ciphertext) == GUID) == interest.matches(metadata)

    @settings(max_examples=30)
    @given(schema_and_query())
    def test_encoding_roundtrip_shape(self, case):
        specs, metadata, interest = case
        for encoding in ENCODINGS:
            schema = MetadataSchema(specs, encoding)
            sizes = schema.alphabet_sizes
            x = schema.encode_metadata(metadata)
            y = schema.encode_interest(interest)
            assert len(x) == len(y) == schema.vector_length == len(sizes)
            assert all(0 <= symbol < size for symbol, size in zip(x, sizes))
            assert all(symbol is None or 0 <= symbol < size for symbol, size in zip(y, sizes))
            # vector-level match must equal plaintext match
            vector_match = all(b is None or b == a for a, b in zip(x, y))
            assert vector_match == interest.matches(metadata)
        assert MetadataSchema(specs).vector_length == len(specs)
