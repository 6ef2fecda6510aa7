"""The report writers against the standard library paths they replace.

`canonical_json` must give the bytes of `json.dumps(value, indent=2,
sort_keys=True) + "\n"`, and `_rows_to_csv` those of a `csv.DictWriter`
with a fresh `json.dumps(params, sort_keys=True)` per row.  Both old
implementations live here only, as references.
"""

import csv
import io
import json
import math

import pytest

from ghkernel.cli import CSV_COLUMNS, _rows_to_csv, canonical_json

AWKWARD_TEXT = (
    "",
    'quote " and backslash \\ and slash /',
    "control \x00\x01\x1f\x7f\b\f\n\r\t",
    "non-ASCII é ß 𝔤   \ud800",
    "comma, and ;semicolon",
    "\r\nline\nbreaks\r",
)

EDGE_VALUE = {
    "floats": [-0.0, 0.0, 1e300, -1e-300, 5e-324, 1.5, math.nan, math.inf, -math.inf],
    "ints": [0, -1, 2**80, True, False],
    "none": None,
    "empty": [[], {}, (), ""],
    "text": list(AWKWARD_TEXT),
    "nested": {"b": {"d": [1, {"x": ()}], "c": "2"}, "a": ("t", 1.0)},
    **{text: text for text in AWKWARD_TEXT},
}


def reference_json(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def reference_csv(rows):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        flat = dict(row)
        flat["params"] = json.dumps(row["params"], sort_keys=True)
        writer.writerow(flat)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "value",
    [EDGE_VALUE, [], {}, (), "x", 1, -0.0, math.nan, None, True, {2: "b", 10: "a"},
     {1.5: 0, -2.0: 1}, {True: 1, False: 0}],
)
def test_canonical_json_matches_json_dumps_on_edge_values(value):
    assert canonical_json(value) == reference_json(value)


def test_canonical_json_rejects_what_json_rejects():
    for value in ({"a": object()}, [1, {2}], {(1, 2): 3}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            reference_json(value)
        with pytest.raises(TypeError):
            canonical_json(value)


def test_canonical_json_matches_json_dumps_on_random_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    text = st.text(st.characters(blacklist_categories=()), max_size=8)
    leaves = st.none() | st.booleans() | st.integers() | st.floats() | text
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(text, inner, max_size=4),
        max_leaves=24,
    )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(value=values)
    def check(value):
        assert canonical_json(value) == reference_json(value)

    check()


def test_rows_to_csv_matches_dict_writer():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    text = st.text(st.characters(blacklist_categories=()), max_size=8) | st.sampled_from(
        AWKWARD_TEXT
    )
    params = st.dictionaries(
        text, text | st.integers() | st.floats() | st.dictionaries(text, st.integers()), max_size=4
    )
    row = st.fixed_dictionaries({c: params if c == "params" else text for c in CSV_COLUMNS})

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(rows=st.lists(row, max_size=5))
    def check(rows):
        assert _rows_to_csv(rows) == reference_csv(rows)

    check()
    awkward = [
        {c: {t: t for t in AWKWARD_TEXT} if c == "params" else t for c in CSV_COLUMNS}
        for t in AWKWARD_TEXT
    ]
    assert _rows_to_csv(awkward) == reference_csv(awkward)
