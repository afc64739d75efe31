"""write_json against json.dump(indent=1) of the document with its
non-finite floats as None, and write_csv against per-row formatting and
against the writer that formats every number: the same bytes for any
document."""

import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from confdyn.jsonio import write_csv, write_json
from oracles import write_csv_per_number

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
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25)


def _strict(doc):
    """doc with each non-finite float as None, the null strict JSON writes."""
    if isinstance(doc, dict):
        return {k: _strict(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(v) for v in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def _no_constant(name):
    raise ValueError(f"{name} is no JSON")


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_DOC, sort_keys=st.booleans())
def test_write_json_writes_json_dumps_bytes(tmp_path, doc, sort_keys):
    ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
    write_json(ours, doc, sort_keys=sort_keys)
    with open(ref, "w") as fh:
        json.dump(_strict(doc), fh, indent=1, sort_keys=sort_keys)
    assert ours.read_bytes() == ref.read_bytes()
    json.loads(ours.read_text(), parse_constant=_no_constant)


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
        text = (tmp_path / "a.json").read_text()
        assert text == json.dumps(_strict(doc), indent=1, sort_keys=sort_keys)
        assert json.loads(text, parse_constant=_no_constant)["samples"][4][0] is None


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


# a column's kinds: constant at one of the special values (both zeros, NaN,
# both infinities, the smallest subnormal), constant at a drawn float, 0.0
# but for one -0.0, NaN in two payloads, the row index (kg's point column)
# and drawn floats
_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
_OTHER_NAN = np.array([0x7FF8000000000001]).view(np.float64)[0]
_COLUMN = st.one_of(st.sampled_from(_SPECIAL).map(lambda v: ("constant", v)),
                    st.floats().map(lambda v: ("constant", v)),
                    st.just(("one -0.0", None)), st.just(("nans", None)),
                    st.just(("point", None)), st.just(("drawn", None)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 12), kinds=st.lists(_COLUMN, min_size=1, max_size=7),
       data=st.data())
def test_write_csv_writes_the_bytes_of_every_number_formatted(tmp_path, n, kinds, data):
    table = np.empty((n, len(kinds)))
    for j, (kind, v) in enumerate(kinds):
        if kind == "constant":
            table[:, j] = v
        elif kind == "one -0.0":
            table[:, j] = 0.0
            table[data.draw(st.integers(0, n - 1)), j] = -0.0
        elif kind == "nans":
            table[:, j] = np.nan
            table[data.draw(st.integers(0, n - 1)), j] = _OTHER_NAN
        elif kind == "point":
            table[:, j] = np.arange(n)
        else:
            table[:, j] = data.draw(st.lists(st.floats(), min_size=n, max_size=n))
    header = [f"c{j}" for j in range(len(kinds))]
    # the rows as kgverify passes them: a point column holds ints
    rows = [[i if kind == "point" else v for v, (kind, _) in zip(row, kinds)]
            for i, row in enumerate(table.tolist())]
    write_csv_per_number(tmp_path / "ref.csv", header, rows)
    for table_or_rows in (table, rows):
        write_csv(tmp_path / "ours.csv", header, table_or_rows)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
