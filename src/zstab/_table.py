"""The one cell rule, and the writers that every report goes through.

A report is a tuple of column names plus ``columns()``: one sequence of
values per name, all of one length, the number of rows.  CSV and JSON
follow one cell rule:

- a float prints with 10 significant digits, ``float.__format__(v, ".10g")``;
  JSON writes the float that this text denotes, as ``json.dumps`` would:
  a text without an exponent is kept, gaining ``.0`` if integral, and
  ``inf``, ``-inf`` and ``nan`` become ``Infinity``, ``-Infinity`` and
  ``NaN``; a text with one is parsed and written as its float's ``repr``,
  save that a finite float whose text overflows (``1.797693135e+308``) is
  the largest finite float;
- a bool is ``true`` or ``false``, and an int prints as itself;
- a tuple or list is ``;``-joined in CSV and a list in JSON;
- a string is quoted in CSV as ``csv.writer`` quotes it, and is a JSON string;
- a 2-D array holds one vector per row (a state): it spreads into one CSV
  column per element, named after its column plus the index (``y0``,
  ``y1``, ...), and is a list per row in JSON.

A list or tuple column is formatted value by value; any other column is a
numpy array, formatted a column at a time.  The test is the column's type,
so a table without arrays loads no numpy.  The rows go through in runs of
``_CHUNK``, so a writer holds the cells of one run, not of the whole table.

Both writers format each run of rows with one ``%``, on a template that
repeats a row unit, from the conversions and values that ``_cells`` gives
for each column: ``%.10g`` for a float array (which is
``format(v, ".10g")``, bit pattern for bit pattern), ``%d`` for an int
array (which is ``str``), and ``%s`` for the bool words and for the cells
of a list or tuple column, made beforehand by the writer, so that text
holding ``%`` passes through literally.  The run's values are interleaved
row by row into the one tuple that the template takes.

A CSV row unit is the conversions joined by commas.  A JSON row unit is
the object that ``json.dumps(..., indent=2)`` lays out, its keys (each
``%`` doubled) and layout literal text around one conversion per cell, a
vector column's being a nested list.  A float cell whose ``.10g`` text is
not already JSON takes ``%s`` and ``_number``'s text instead, made once
per distinct value: a value of size at least 1e-4 that lies more than
1e-9 of its size from every integer prints with a point and no exponent,
already JSON, and every other float cell is rewritten.  Each row's
rewritten cells make a bitmask, and each distinct mask one variant unit,
so the rows with none rewritten share one unit, as do the rows of a
column whose every cell is.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from itertools import islice
from typing import Callable, Sequence

from ._lazy import np

_DIGITS = ".10g"  # the one number format: 10 significant digits
_format = float.__format__
_BOOLS = ("false", "true")
_WORDS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_QUOTABLE = frozenset(',"\r\n')  # csv.writer quotes no field without one of these
_CHUNK = 1 << 14  # rows formatted at a time
_LISTS = (list, tuple)  # the column types formatted value by value
# The ``%`` conversion of a numpy column, by dtype kind: ``"%.10g" % v`` is
# ``format(v, ".10g")``, and ``"%d" % n`` is ``str(n)``.
_CONVERSIONS = {"f": "%" + _DIGITS, "i": "%d", "u": "%d", "b": "%s"}


def fmt(x: float) -> str:
    return _format(float(x), _DIGITS)


def _number(text: str) -> str:
    """The JSON text of the float that a ``.10g`` text denotes."""
    if "e" not in text:
        return text if "." in text else _WORDS.get(text, text + ".0")
    value = float(text)
    if math.isinf(value):  # a finite float rounded up past the largest
        value = math.copysign(sys.float_info.max, value)
    return repr(value)


def _text(v) -> str:
    """One value's CSV text, before quoting."""
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, bool):
        return _BOOLS[v]
    if isinstance(v, (tuple, list)):
        return ";".join(map(_text, v))
    return str(v)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields."""
    if _QUOTABLE.isdisjoint(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _layout(items: Sequence[str], level: int, brackets: str = "[]") -> str:
    """A JSON list (or, with brackets "{}", object) whose items sit ``level``
    deep, indented as ``json.dumps(..., indent=2)`` indents them."""
    if not items:
        return brackets
    pad = "\n" + "  " * level
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _json_value(v, level: int) -> str:
    """One value's JSON text, the value sitting ``level`` deep."""
    if isinstance(v, float):
        return _number(fmt(v))
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (tuple, list)):
        return _layout([_json_value(x, level + 1) for x in v], level + 1)
    return _text(v)


def _cells(values, cell: Callable) -> tuple[list[str], list[list]]:
    """A column's ``%`` conversions and values, for either writer: one
    conversion and one list of values per element of its rows, so one of
    each for a 1-D column and one per vector element for a 2-D array.
    ``cell`` makes the text of one value of a list or tuple column."""
    if isinstance(values, _LISTS):
        return ["%s"], [list(map(cell, values))]
    kind = values.dtype.kind
    if kind not in _CONVERSIONS:
        raise TypeError(f"no cell rule for a numpy {values.dtype} column")
    parts = [part.tolist() for part in (values.T if values.ndim == 2 else [values])]
    if kind == "b":
        parts = [list(map(_BOOLS.__getitem__, part)) for part in parts]
    return [_CONVERSIONS[kind]] * len(parts), parts


def _rewritten(v: np.ndarray) -> np.ndarray:
    """Which cells of a float64 array may need ``_number`` to be JSON."""
    # A value with |v| >= 1e-4 that lies more than 1e-9 |v| from every
    # integer has a .10g text with a point and no exponent, already JSON: it
    # is below 5e8 in size, since no value is more than 0.5 from an integer,
    # and the rounding to 10 digits moves it by at most 5e-10 |v|, so the
    # rounded value lies in [1e-4, 5e8] and is no integer.
    size = np.abs(v)
    with np.errstate(invalid="ignore"):  # inf - inf
        kept = (size >= 1e-4) & (np.abs(v - np.rint(v)) > 1e-9 * size)
    return np.logical_not(kept, out=kept)


def _rows(template: str, cells: list[list], rows: int) -> str:
    """``template``, one unit per row, filled with the cells interleaved
    row by row into the one tuple that it takes."""
    width = len(cells)
    flat = [None] * (rows * width)
    for j, part in enumerate(cells):
        flat[j::width] = part
    return template % tuple(flat)


def _unit(keys: Sequence[str], widths: Sequence, conversions: list[str], mask: int) -> str:
    """One row's JSON object as a ``%`` template: a key and a conversion per
    column, a list of them for a vector column (``widths`` holds its
    length, None for any other), and ``%s`` for each conversion ``j`` that
    has bit ``j`` of ``mask`` set."""
    texts = iter(["%s" if mask >> j & 1 else c for j, c in enumerate(conversions)])
    items = [key + (next(texts) if width is None else _layout(list(islice(texts, width)), 3))
             for key, width in zip(keys, widths)]
    return "\n  " + _layout(items, 2, "{}")


def _chunks(columns: Sequence):
    """The columns cut into runs of at most ``_CHUNK`` rows."""
    rows = len(columns[0]) if columns else 0
    for start in range(0, rows, _CHUNK):
        yield [values[start : start + _CHUNK] for values in columns]


def csv_table(names: Sequence[str], columns: Sequence) -> str:
    """A header line plus one CSV line per row."""
    header = []
    for name, values in zip(names, columns):
        if not isinstance(values, _LISTS) and values.ndim == 2 and len(values):
            header.extend(f"{name}{i}" for i in range(values.shape[1]))
        else:
            header.append(name)
    # csv.writer quotes a row whose one field is empty, so that it is no blank line.
    lines = [(",".join(map(_csv_field, header)) or ('""' if header else "")) + "\n"]
    for chunk in _chunks(columns):
        conversions, cells = [], []
        for values in chunk:
            column_conversions, column_cells = _cells(values, lambda v: _csv_field(_text(v)))
            conversions += column_conversions
            cells += column_cells
        if conversions == ["%s"]:  # a lone empty field, quoted as in the header
            cells[0] = [text or '""' for text in cells[0]]
        rows = len(chunk[0])
        lines.append(_rows((",".join(conversions) + "\n") * rows, cells, rows))
    return "".join(lines)


def json_table(names: Sequence[str], columns: Sequence) -> str:
    """A JSON list with one object per row, keyed by column name."""
    keys = [json.dumps(name).replace("%", "%%") + ": " for name in names]
    runs = []
    for chunk in _chunks(columns):
        conversions, cells, widths, floats = [], [], [], []
        for values in chunk:
            column_conversions, column_cells = _cells(values, lambda v: _json_value(v, 2))
            array = not isinstance(values, _LISTS)
            vector = array and values.ndim == 2
            widths.append(len(column_cells) if vector else None)
            if array and values.dtype.kind == "f":
                v = (values.T if vector else values[None]).astype(np.float64, copy=False)
                floats += zip(range(len(cells), len(cells) + len(v)), v, _rewritten(v))
            conversions += column_conversions
            cells += column_cells
        # Each row's bitmask of the conversions whose cells take _number's
        # text, and one unit per distinct mask: the rows with none, or a
        # column with every cell rewritten, share one.  Each distinct value
        # (bit pattern) is rewritten once.
        rows = len(chunk[0])
        masks = np.zeros(rows, dtype=np.int64 if len(cells) < 64 else object)
        for j, v, rewrite in floats:
            masks[rewrite] |= 1 << j
            index = np.flatnonzero(rewrite)
            distinct, inverse = np.unique(v[index].view(np.int64), return_inverse=True)
            texts = [_number(_format(x, _DIGITS)) for x in distinct.view(np.float64).tolist()]
            part = cells[j]
            for i, k in zip(index.tolist(), inverse.tolist()):
                part[i] = texts[k]
        masks = masks.tolist()
        units = {mask: _unit(keys, widths, conversions, mask) for mask in set(masks)}
        template = ",".join(map(units.__getitem__, masks))
        del masks
        runs += ["," if runs else "[", _rows(template, cells, rows)]
    return "".join(runs + ["\n]\n"]) if runs else "[]\n"


def record(keys: Sequence[str], values: Sequence, form: str) -> str:
    """One row as ``key=value`` lines ("text"), a ``key,value`` CSV ("csv")
    or a JSON object ("json")."""
    if form == "json":
        items = [f"{json.dumps(k)}: {_json_value(v, 1)}" for k, v in zip(keys, values)]
        return _layout(items, 1, "{}") + "\n"
    if form == "csv":
        return csv_table(("key", "value"), (keys, values))
    return "".join(f"{k}={t}\n" for k, t in zip(keys, map(_text, values)))
