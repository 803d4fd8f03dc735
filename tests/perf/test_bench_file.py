"""``load_bench_file`` under the hostile-bytes property (ROADMAP item 1):
a BENCH document either loads to records that re-encode to themselves
and gate without failing, or is refused with a ``ReproError``."""

from __future__ import annotations

import copy
import glob
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BenchFileError, ReproError
from repro.perf.bench import BenchRecord, load_bench_file
from repro.perf.gate import format_gate, run_gate

from ..hostile import hostile

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
COMMITTED = sorted(glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))


def _document(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


DOCUMENTS = [_document(path) for path in COMMITTED[:3]]
# the escaping shapes, inside an otherwise whole document
WHOLE = (
    b'{"bench_schema": 1, "suite": "s", "workload": {}, "seed": null, "env": {}, '
    b'"records": %s}'
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def grafted(draw) -> bytes:
    """A committed document with one value — a top-level field or a
    record field — replaced by any JSON value."""
    document = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    record = draw(st.sampled_from(document["records"]))
    target, key = draw(st.sampled_from([(document, k) for k in document] + [(record, k) for k in record]))
    target[key] = draw(JSON_VALUES)
    return json.dumps(document).encode()


@pytest.fixture(scope="module")
def bench_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench") / "BENCH_x.json")


@settings(max_examples=300, deadline=None)
@given(blob=hostile([json.dumps(d).encode() for d in DOCUMENTS], lambda blob: []) | grafted())
@example(blob=b"[]")
@example(blob=WHOLE % b"5")
@example(blob=WHOLE % b'[{"value": 1, "unit": "ms", "direction": "lower"}]')
@example(blob=WHOLE % b'[{"name": "a", "value": null, "unit": "ms", "direction": "lower"}]')
@example(blob=WHOLE % b'[{"name": "a", "value": 1, "unit": "ms", "direction": "lower", "ceiling": "2"}]')
@example(blob=WHOLE % b'[{"name": "a", "value": 1, "unit": "ms", "direction": "sideways"}]')
@example(blob=WHOLE % b'[{"name": "", "value": 1, "unit": "ms", "direction": "lower"}]')
@example(blob=WHOLE % b'[{"name": "a", "value": NaN, "unit": "ms", "direction": "lower"}]')
@example(blob=WHOLE % b'[{"name": "a", "value": 1e999, "unit": "ms", "direction": "lower"}]')
@example(blob=WHOLE % (b'[{"name": "a", "value": 1%s, "unit": "ms", "direction": "lower"}]' % (b"0" * 400)))
def test_hostile_bench_documents_load_or_are_rejected(bench_path, blob):
    with open(bench_path, "wb") as handle:
        handle.write(blob)
    try:
        records = load_bench_file(bench_path)
    except ReproError:
        return
    for record in records:
        assert BenchRecord.from_dict(record.to_dict(), record.source) == record
    format_gate(run_gate(smoke=True, history={record.name: record for record in records}))


def test_a_refusal_is_a_value_error_naming_the_file(bench_path):
    with open(bench_path, "w") as handle:
        handle.write(WHOLE.decode() % '[{"name": "a", "value": 1, "unit": "ms", "direction": "up"}]')
    with pytest.raises(BenchFileError, match=r"BENCH_x\.json: a: unknown direction 'up'"):
        load_bench_file(bench_path)
    assert issubclass(BenchFileError, ValueError)
