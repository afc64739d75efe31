"""The package's output writers: write_json, the bytes of json.dump(doc, fh,
indent=1, sort_keys=sort_keys) with number lists formatted by json's C
encoder, and write_csv, one line of %.17g numbers per row.

json.dump with an indent runs json's pure-Python encoder, about 1.8 us per
float against 1.0 us in the C encoder (4 200 floats, Python 3.11), and the
trajectory and orbit files are mostly floats.  write_json walks dicts and
lists itself and hands each list of numbers, or list of non-empty number
lists, to the C encoder in one call.  That encoder writes "[a, b]" and
"[[a, b], [c, d]]": each ", " and "], [" then becomes the newline and
indent json.dump writes there.  No number, bool or null contains either
text, so the replacement touches only separators.  A scalar or an empty
container is the same text from either encoder.  A dict whose keys are not
all strings is left to json.dumps, whose indented output holds newlines
only between items, so that it is re-indented by replacing "\\n".
"""

from __future__ import annotations

import json
from itertools import chain

_encode = json.JSONEncoder().encode     # the C encoder: ", " between items
_NUMBER = (int, float)                  # bool and np.float64 among them
_LIST = (list, tuple)


def _all_types(items, kinds) -> bool:
    """Whether every item is an instance of kinds, checked once per type."""
    return all(issubclass(t, kinds) for t in set(map(type, items)))


def _dumps(v, ind: str, sort_keys: bool) -> str:
    """v as json.dump(indent=1) writes it at the nesting whose indent is ind."""
    inner = ind + " "
    if isinstance(v, dict) and v:
        if not all(isinstance(k, str) for k in v):    # json converts such keys
            return json.dumps(v, indent=1, sort_keys=sort_keys).replace("\n", "\n" + ind)
        items = sorted(v.items()) if sort_keys else v.items()
        return ("{\n" + ",\n".join(inner + _encode(k) + ": "
                                   + _dumps(x, inner, sort_keys) for k, x in items)
                + "\n" + ind + "}")
    if isinstance(v, _LIST) and v:
        if _all_types(v, _NUMBER):
            return ("[\n" + inner + _encode(v)[1:-1].replace(", ", ",\n" + inner)
                    + "\n" + ind + "]")
        if _all_types(v, _LIST) and all(v) and _all_types(chain(*v), _NUMBER):
            row = inner + " "
            body = (_encode(v)[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{row}")
                    .replace(", ", ",\n" + row))
            return f"[\n{inner}[\n{row}{body}\n{inner}]\n{ind}]"
        return ("[\n" + ",\n".join(inner + _dumps(x, inner, sort_keys) for x in v)
                + "\n" + ind + "]")
    return _encode(v)       # a scalar or an empty container, as json writes it


def write_json(path, doc, sort_keys: bool) -> None:
    """Write doc to path as json.dump(doc, fh, indent=1, sort_keys=sort_keys)
    does, byte for byte."""
    with open(path, "w") as fh:
        fh.write(_dumps(doc, "", sort_keys))


def write_csv(path, header, rows) -> None:
    """Write the header line, then one line of %.17g numbers per row, the
    whole body formatted by one % over the rows' numbers in one tuple."""
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row_fmt * len(rows) % tuple(chain.from_iterable(rows)))
