"""write_json against json.dump(indent=1) and write_csv against per-row
formatting: the same bytes for any document."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from confdyn.jsonio import write_csv, write_json

# texts that look like the separators write_json rewrites, escapes and
# non-ASCII, next to arbitrary ones
_TEXT = st.one_of(st.text(max_size=6),
                  st.sampled_from([", ", "], [", "[1, 2]", '"\\', "\n\t\x00",
                                   "é \U0001f600", ""]))
_FLOAT = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, np.nan, np.inf,
                                                  -np.inf, 1e300, 5e-324]))
_NUMBER = st.one_of(_FLOAT, _FLOAT.map(np.float64), st.integers(),
                    st.booleans())
_ROW = st.lists(_NUMBER, max_size=5)
_LEAF = st.one_of(_NUMBER, st.none(), _TEXT, _ROW,
                  st.lists(_ROW, max_size=4),                            # ragged, empty rows
                  st.lists(st.lists(st.one_of(_NUMBER, _TEXT), max_size=3), max_size=3),
                  st.tuples(_NUMBER, _NUMBER))
_DOC = st.recursive(
    _LEAF,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4),
                            st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=25)


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_DOC, sort_keys=st.booleans())
def test_write_json_writes_json_dumps_bytes(tmp_path, doc, sort_keys):
    ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
    write_json(ours, doc, sort_keys=sort_keys)
    with open(ref, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=sort_keys)
    assert ours.read_bytes() == ref.read_bytes()


def test_write_json_on_a_trajectory_shaped_document(tmp_path):
    # the layout of the files the commands write: a sample table, number
    # lists under keys, nested dicts with ints and floats
    rng = np.random.default_rng(7)
    table = rng.standard_normal((30, 7))
    table[3, 2], table[4, 0], table[5, 5] = -0.0, np.nan, -np.inf
    doc = {"form": "front", "columns": ["xplus", "xminus", "x1"],
           "samples": table.tolist(),
           "quantities": {"C-": table[:, 1].tolist(), "P1": [0.0] * 30},
           "events": [["xplus=L", 1.0]], "stats": {"nfev": 812, "segments": 2},
           "drifts": {}}
    for sort_keys in (False, True):
        write_json(tmp_path / "a.json", doc, sort_keys=sort_keys)
        assert (tmp_path / "a.json").read_text() == json.dumps(
            doc, indent=1, sort_keys=sort_keys)


def test_write_csv_writes_the_per_row_bytes(tmp_path):
    # one % over the whole body gives each row's own "%.17g,...\n" line: a
    # 400 x 21 float block with signed zeros and non-finite values, and rows
    # that mix an int index with floats (the kg convergence table)
    rng = np.random.default_rng(8)
    block = rng.standard_normal((400, 21)) * 10.0 ** rng.integers(-300, 300, (400, 21))
    block[0, :4] = -0.0, np.nan, np.inf, -np.inf
    mixed = [(i, 0.01, *rng.standard_normal(3).tolist()) for i in range(7)]
    for header, rows in ((list("abcdefghijklmnopqrstu"), block.tolist()),
                         (("point", "h", "r1", "r2", "ratio"), mixed),
                         (("t", "x"), [])):
        write_csv(tmp_path / "a.csv", header, rows)
        row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
        assert (tmp_path / "a.csv").read_text() == (
            ",".join(header) + "\n" + "".join(row_fmt % tuple(r) for r in rows))
