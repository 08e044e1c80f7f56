import json
import math
import sys
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zstab import _table
from zstab._table import _number, csv_table, fmt, json_table, record

import reference

NAMES = ("n", "x", "ok", "coeffs", "y")
COLUMNS = (
    np.array([0, 1]),
    np.array([1 / 3, math.inf]),
    np.array([True, False]),
    [(1.0, -0.5), (2.0,)],
    np.array([[0.1, 2.0], [-math.inf, 1e-300]]),
)


def test_fmt_is_ten_significant_digits():
    assert fmt(1 / 3) == "0.3333333333"
    assert fmt(math.inf) == "inf"
    assert fmt(12345678901.0) == "1.23456789e+10"


def test_csv_cell_rule_and_array_spread():
    assert csv_table(NAMES, COLUMNS) == (
        "n,x,ok,coeffs,y0,y1\n"
        "0,0.3333333333,true,1;-0.5,0.1,2\n"
        "1,inf,false,2,-inf,1e-300\n"
    )


def test_csv_without_rows_is_the_header():
    empty = (np.array([], dtype=int), np.array([]), np.array([], dtype=bool), [],
             np.empty((0, 2)))
    assert csv_table(NAMES, empty) == "n,x,ok,coeffs,y\n"
    assert json_table(NAMES, empty) == "[]\n"


def test_json_cell_rule():
    text = json_table(NAMES, COLUMNS)
    assert "Infinity" in text
    assert json.loads(text) == [
        {"n": 0, "x": 0.3333333333, "ok": True, "coeffs": [1.0, -0.5], "y": [0.1, 2.0]},
        {"n": 1, "x": math.inf, "ok": False, "coeffs": [2.0], "y": [-math.inf, 1e-300]},
    ]


def test_numpy_floats_format_like_floats():
    for columns in ([np.array([1 / 3]), np.array([math.inf])],
                    [[np.float64(1 / 3)], [np.float64(math.inf)]]):
        assert csv_table(("a", "b"), columns) == "a,b\n0.3333333333,inf\n"
        assert json_table(("a", "b"), columns) == (
            '[\n  {\n    "a": 0.3333333333,\n    "b": Infinity\n  }\n]\n'
        )


def test_record_spells_booleans_like_the_tables():
    keys, values = ("ok", "x", "items"), (True, 2.0, ("a", "b"))
    assert record(keys, values, "text") == "ok=true\nx=2\nitems=a;b\n"
    assert record(keys, values, "csv") == "key,value\nok,true\nx,2\nitems,a;b\n"
    assert json.loads(record(keys, values, "json")) == {
        "ok": True, "x": 2.0, "items": ["a", "b"],
    }


def test_csv_quotes_strings_as_csv_writer_does():
    words = ["plain", "a,b", 'say "hi"', "two\nlines", "", "semi;colon"]
    assert csv_table(("w", "n"), (words, np.arange(6))) == (
        'w,n\nplain,0\n"a,b",1\n"say ""hi""",2\n"two\nlines",3\n,4\nsemi;colon,5\n'
    )
    # A row whose one field is empty is written "" rather than as a blank line.
    assert csv_table(("",), [["", "x"]]) == '""\n""\nx\n'


# Floats at every layout boundary of the .10g -> JSON mapping.
_EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1e-307, 1.7976931348623157e308,
    -1.7976931348623157e308, 1.7976931345e308, -1.797693134e308, 1e-4, 9.99999999995e-5,
    1e-5, 0.5, 2.0, -3.0,
    999999999.9, 9999999999.0, 9999999999.5, 1e10, -1.5e10, 123456789012345.0,
    999999999999999.9, 9.9999999995e15, 1e16, 1.5e16, 1e100, 12345678901.0,
    # Beside the cutoffs of the value rule in _table._rewritten, 1e-9 |v|
    # from an integer and 1e-4 in size, and below 1e9, where 10 digits keep
    # one decimal.
    2.00000000004, -7.99999999996, 999999999.95, 999999999.4, 0.00009999999999,
]

_floats = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.floats(1e9, 1e17),
    st.floats(-1e17, -1e9),
    st.floats(-1e-300, 1e-300),
    st.integers(-10**6, 10**6).map(float),
)


def _rounded_json(v: float) -> str:
    """json.dumps of the float that ``v``'s .10g text denotes; a finite
    ``v`` whose text overflows, 1.797693135e+308, gives the largest float."""
    rounded = float(format(v, ".10g"))
    if math.isfinite(v) and math.isinf(rounded):
        rounded = math.copysign(sys.float_info.max, v)
    return json.dumps(rounded)


@given(_floats)
@settings(max_examples=2000)
def test_json_number_is_json_dumps_of_the_rounded_float(v):
    assert _number(format(v, ".10g")) == _rounded_json(v)


def test_json_number_edges():
    for v in _EDGE_FLOATS:
        text = format(v, ".10g")
        want = json.dumps(float(text))
        if abs(v) >= 1.7976931345e308 and math.isfinite(v):
            assert text.lstrip("-") == "1.797693135e+308"
            want = json.dumps(math.copysign(1.7976931348623157e308, v))
        assert _number(text) == want, v


_text = st.text(alphabet=st.sampled_from(list('ab ,";%\n\r\té\\')), max_size=6)
_scalars = st.one_of(_floats, st.integers(-10**20, 10**20), _text)


def _column(kind: str, n: int):
    """A strategy for one column of ``n`` values of one kind."""
    if kind == "float_array":
        return st.lists(_floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    if kind == "float32_array":
        return st.lists(st.floats(width=32), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float32))
    if kind == "float_list":
        return st.lists(_floats, min_size=n, max_size=n)
    if kind == "bool_array":
        return st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=bool))
    if kind == "bool_list":
        return st.lists(st.booleans(), min_size=n, max_size=n)
    if kind == "int_array":
        return st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64))
    if kind == "int_list":
        return st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n)
    if kind == "tuple_list":
        return st.lists(st.lists(_scalars, max_size=3).map(tuple), min_size=n, max_size=n)
    if kind == "str_list":
        return st.lists(_text, min_size=n, max_size=n)
    dim = int(kind[-1])  # "vector0" .. "vector3": a (n, dim) array
    return st.lists(_floats, min_size=n * dim, max_size=n * dim).map(
        lambda v: np.array(v, dtype=float).reshape(n, dim))


_KINDS = ("float_array", "float32_array", "float_list", "bool_array", "bool_list", "int_array",
          "int_list", "tuple_list", "str_list", "vector0", "vector1", "vector2", "vector3")


@st.composite
def tables(draw):
    n = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5))
    names = draw(st.lists(_text, min_size=len(kinds), max_size=len(kinds), unique=True))
    return names, [draw(_column(kind, n)) for kind in kinds]


@given(tables(), st.integers(1, 4))
@example((["x"], [[(), (1.0,)]]), 1)
@example((["s", "y"], [["a,b", ""], np.array([[1e10], [-0.0]])]), 4)
# CSV rows come from one %-template per chunk: text holding % or %s, in a
# cell or in a name, passes through literally.
@example((["a%s", "%d%", "n"], [["%s", "50%"], [("%", "%%s"), ()], np.array([1, 2])]), 1)
@example((["-nan", "-0"], [np.array([-math.nan, -0.0, 5e-324, 1.797693135e308]),
                           [-math.nan, -0.0, 5e-324, 1.797693135e308]]), 3)
# One column of empty strings, each row written "", across chunk boundaries.
@example((["e"], [["", "", "", "", ""]]), 2)
# JSON rows come from one %-template per chunk, with a variant unit for the
# rows whose float cells are rewritten: text holding a conversion stays
# literal in the keys and cells of every variant.
@example((["%.10g%%s", "x"],
          [["%.10g", "%%", "%s", "100%"], np.array([0.5, 1.0, 1 / 3, 1e-5])]), 4)
# A column of rewritten cells only: one variant for every row.
@example((["x"], [np.array([0.0, -0.0, 3.0, 1e-5, 1.5e10, math.inf, -math.inf, math.nan])]), 1)
@example((["x"], [np.array([0.0, -0.0, 3.0, 1e-5, 1.5e10, math.inf, -math.inf, math.nan])]), 2)
@example((["x"], [np.array([0.0, -0.0, 3.0, 1e-5, 1.5e10, math.inf, -math.inf, math.nan])]), 3)
# A vector column rewritten in its second element only.
@example((["y"], [np.array([[0.5, 2.0], [1 / 3, 0.25], [-0.75, -0.0], [0.125, 1e-7]])]), 3)
# Rows of 64 cells, the last rewritten in two rows: a bitmask past int64.
@example((["y", "x"], [np.full((3, 63), 0.5), np.array([1 / 3, 2.0, 1e-9])]), 2)
@settings(max_examples=600, deadline=None)
def test_columnar_writers_match_row_writers(table, chunk):
    names, columns = table
    rows = reference.rows(columns)
    with mock.patch.object(_table, "_CHUNK", chunk):  # tables of several chunks
        assert csv_table(names, columns) == reference.csv_table(names, rows)
        assert json_table(names, columns) == reference.json_table(names, rows)


@given(st.lists(st.tuples(_text, st.one_of(_scalars, st.booleans(),
                                           st.lists(_scalars, max_size=3).map(tuple))),
                max_size=6, unique_by=lambda kv: kv[0]))
@settings(max_examples=300, deadline=None)
def test_json_record_matches_json_dumps(items):
    keys = [k for k, _ in items]
    values = [v for _, v in items]
    assert record(keys, values, "json") == reference.json_record(keys, values)


def _walk(center: float, dtype, steps: int = 300) -> np.ndarray:
    """The ``steps`` floats of ``dtype`` on each side of ``center``, and it."""
    up, down = [dtype(center)], [dtype(center)]
    for _ in range(steps):
        up.append(np.nextafter(up[-1], dtype(math.inf)))
        down.append(np.nextafter(down[-1], dtype(-math.inf)))
    return np.array(down[:0:-1] + up, dtype=dtype)


def test_json_column_picks_the_cells_that_need_rewriting():
    # Around the sizes 1e-4 and 1e9, around integers, around the points
    # 1e-9 |n| from them (the value rule's cutoff) and around the points
    # where .10g rounds to them, a column's JSON cells are those of the
    # per-cell rule, as one float column and as an (n, 2) vector column.
    centers = [0.0, 1e-4, -1e-4, 1e9, -1e9, 999999999.5]
    for n in (1.0, 2.0, -8.0, 12345.0, 999999999.0):
        half = 0.5 * 10.0 ** (math.floor(math.log10(abs(n))) - 9)  # half a last digit
        centers += [n + k * 1e-9 * abs(n) for k in (-2, -1, 0, 1, 2)]
        centers += [n + k * half for k in (-3, -1, 1, 3)]
    for dtype in (np.float64, np.float32):
        values = np.concatenate([_walk(c, dtype) for c in centers])
        want = [_number(fmt(v)) for v in values.tolist()]
        lines = json_table(("x",), (values,)).splitlines()
        assert [line[9:] for line in lines if line.startswith('    "x": ')] == want, dtype
        odd = len(values) % 2  # the vectors end with the first value again
        vectors = np.concatenate([values, values[:odd]]).reshape(-1, 2)
        lines = json_table(("x",), (vectors,)).splitlines()
        cells = [line.strip().rstrip(",") for line in lines if line.startswith(" " * 6)]
        assert cells == want + want[:odd], dtype
