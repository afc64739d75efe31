"""The package's output writers: write_json, the bytes of json.dump(doc, fh,
indent=1, sort_keys=sort_keys) with every non-finite float written as null
(strict JSON has no NaN or Infinity) and number lists formatted by json's C
encoder, and write_csv, one line of %.17g numbers per row, each column
that holds one value in every row formatted once.

json.dump with an indent runs json's pure-Python encoder, about 1.8 us per
float against 1.0 us in the C encoder (4 200 floats, Python 3.11), and the
trajectory and orbit files are mostly floats.  write_json walks dicts and
lists itself and hands each list of numbers, or list of non-empty number
lists, to the C encoder in one call.  That encoder writes "[a, b]" and
"[[a, b], [c, d]]": each ", " and "], [" then becomes the newline and
indent json.dump writes there.  No number, bool or null contains either
text, so the replacement touches only separators; nor does a finite number
contain NaN or Infinity, so the encoder's -Infinity, Infinity and NaN become
null by replacement too.  A scalar or an empty container is the same text
from either encoder.  Every key is a string.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

_encode = json.JSONEncoder().encode     # the C encoder: ", " between items
_NUMBER = (int, float)                  # bool and np.float64 among them
_LIST = (list, tuple)


def _all_types(items, kinds) -> bool:
    """Whether every item is an instance of kinds, checked once per type."""
    return all(issubclass(t, kinds) for t in set(map(type, items)))


def _numbers(v) -> str:
    """A list of numbers, or of number lists, as the C encoder writes it,
    with null for each non-finite float."""
    return (_encode(v).replace("-Infinity", "null").replace("Infinity", "null")
            .replace("NaN", "null"))


def _dumps(v, ind: str, sort_keys: bool) -> str:
    """v as json.dump(indent=1) writes it at the nesting whose indent is ind."""
    inner = ind + " "
    if isinstance(v, dict) and v:
        items = sorted(v.items()) if sort_keys else v.items()
        return ("{\n" + ",\n".join(inner + _encode(k) + ": "
                                   + _dumps(x, inner, sort_keys) for k, x in items)
                + "\n" + ind + "}")
    if isinstance(v, _LIST) and v:
        if _all_types(v, _NUMBER):
            return ("[\n" + inner + _numbers(v)[1:-1].replace(", ", ",\n" + inner)
                    + "\n" + ind + "]")
        if _all_types(v, _LIST) and all(v) and _all_types(chain(*v), _NUMBER):
            row = inner + " "
            body = (_numbers(v)[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{row}")
                    .replace(", ", ",\n" + row))
            return f"[\n{inner}[\n{row}{body}\n{inner}]\n{ind}]"
        return ("[\n" + ",\n".join(inner + _dumps(x, inner, sort_keys) for x in v)
                + "\n" + ind + "]")
    if isinstance(v, float) and not math.isfinite(v):
        return "null"
    return _encode(v)       # a scalar or an empty container, as json writes it


def write_json(path, doc, sort_keys: bool) -> None:
    """Write doc to path as json.dump(doc, fh, indent=1, sort_keys=sort_keys)
    does, byte for byte, once each non-finite float of doc is None: strict
    JSON, which any parser reads."""
    with open(path, "w") as fh:
        fh.write(_dumps(doc, "", sort_keys))


def write_csv(path, header, table) -> None:
    """Write the header line, then one line of %.17g numbers per row of
    table, N rows of len(header) numbers (an array or a list of rows; an
    int prints as its float does).  A column whose rows all hold one bit
    pattern (compared as int64, so -0.0 is not 0.0 and NaNs with other
    payloads differ) is formatted once, into the row template; the other
    columns' numbers are formatted by one % over one tuple.  The body is
    ASCII, formatted and written as bytes: a text file encodes a second
    copy of it, and with that copy glibc's heap crept ~1 MB higher over
    150 flow benchmark jobs."""
    a = np.ascontiguousarray(table, dtype=float).reshape(-1, len(header))
    bits = a.view(np.int64)
    vary = (bits != bits[:1]).any(axis=0)
    # no rows: no cells, and the body is empty
    cells = ["%.17g" if v else "%.17g" % x
             for v, x in zip(vary.tolist(), a[:1].ravel().tolist())]
    row = (",".join(cells) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write(row * len(a) % tuple(a[:, vary].ravel().tolist()))
