"""The one cell rule, and the writers that every report goes through.

A report is a tuple of column names plus ``rows()``, one tuple of raw
values per row.  A float prints with 10 significant digits; a non-finite
one is ``inf`` in CSV and ``Infinity`` in JSON.  A bool is ``true`` or
``false``.  A tuple or list is ``;``-joined in CSV and a list in JSON.  A
numpy array (a vector state) spreads into one CSV column per element,
named after its column plus the index (``y0``, ``y1``, ...), and is a list
in JSON.  ``record`` keeps Python's ``True``/``False`` in text and CSV:
that is how ``analyze`` has always spelled them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

_DIGITS = ".10g"  # the one number format: 10 significant digits
_format = float.__format__


def fmt(x: float) -> str:
    return _format(float(x), _DIGITS)


def _text(v) -> str:
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ";".join(map(_text, v))
    return str(v)


def _json(v):
    if isinstance(v, float):
        return float(fmt(v)) if math.isfinite(v) else v
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (tuple, list)):
        return [_json(x) for x in v]
    return v


def _cells(row) -> list[str]:
    # fmt inlined for plain floats, most cells: a call costs as much as the format.
    return [_format(v, _DIGITS) if type(v) is float else _text(v) for v in row]


def _spread(row) -> list:
    flat = []
    for v in row:
        if isinstance(v, np.ndarray):
            flat.extend(v.tolist())
        else:
            flat.append(v)
    return flat


def csv_table(columns: Sequence[str], rows: Iterable[tuple]) -> str:
    """A header line plus one CSV line per row."""
    rows = iter(rows)
    first = next(rows, None)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if first is None or not any(isinstance(v, np.ndarray) for v in first):
        writer.writerow(columns)
        writer.writerows(map(_cells, chain([] if first is None else [first], rows)))
        return buf.getvalue()
    header = []
    for name, v in zip(columns, first):
        if isinstance(v, np.ndarray):
            header.extend(f"{name}{i}" for i in range(v.size))
        else:
            header.append(name)
    writer.writerow(header)
    writer.writerows(_cells(_spread(row)) for row in chain([first], rows))
    return buf.getvalue()


def json_table(columns: Sequence[str], rows: Iterable[tuple]) -> str:
    """A JSON list with one object per row, keyed by column name."""
    objects = [dict(zip(columns, map(_json, row))) for row in rows]
    return json.dumps(objects, indent=2) + "\n"


def record(keys: Sequence[str], values: Sequence, form: str) -> str:
    """One row as ``key=value`` lines ("text"), a ``key,value`` CSV ("csv")
    or a JSON object ("json")."""
    if form == "json":
        return json.dumps(dict(zip(keys, map(_json, values))), indent=2) + "\n"
    texts = [str(v) if isinstance(v, bool) else _text(v) for v in values]
    if form == "csv":
        return "key,value\n" + "".join(f"{k},{t}\n" for k, t in zip(keys, texts))
    return "".join(f"{k}={t}\n" for k, t in zip(keys, texts))
