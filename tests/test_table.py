import json
import math

import numpy as np

from zstab._table import csv_table, fmt, json_table, record

COLUMNS = ("n", "x", "ok", "coeffs", "y")
ROWS = [
    (0, 1 / 3, True, (1.0, -0.5), np.array([0.1, 2.0])),
    (1, math.inf, False, (2.0,), np.array([-math.inf, 1e-300])),
]


def test_fmt_is_ten_significant_digits():
    assert fmt(1 / 3) == "0.3333333333"
    assert fmt(math.inf) == "inf"
    assert fmt(12345678901.0) == "1.23456789e+10"


def test_csv_cell_rule_and_array_spread():
    assert csv_table(COLUMNS, ROWS) == (
        "n,x,ok,coeffs,y0,y1\n"
        "0,0.3333333333,true,1;-0.5,0.1,2\n"
        "1,inf,false,2,-inf,1e-300\n"
    )


def test_csv_without_rows_is_the_header():
    assert csv_table(COLUMNS, []) == "n,x,ok,coeffs,y\n"


def test_json_cell_rule():
    text = json_table(COLUMNS, ROWS)
    assert "Infinity" in text
    assert json.loads(text) == [
        {"n": 0, "x": 0.3333333333, "ok": True, "coeffs": [1.0, -0.5], "y": [0.1, 2.0]},
        {"n": 1, "x": math.inf, "ok": False, "coeffs": [2.0], "y": [-math.inf, 1e-300]},
    ]


def test_numpy_floats_format_like_floats():
    row = (np.float64(1 / 3), np.float64(math.inf))
    assert csv_table(("a", "b"), [row]) == "a,b\n0.3333333333,inf\n"
    assert json_table(("a", "b"), [row]) == (
        '[\n  {\n    "a": 0.3333333333,\n    "b": Infinity\n  }\n]\n'
    )


def test_record_keeps_python_bool_spelling_outside_json():
    keys, values = ("ok", "x", "items"), (True, 2.0, ("a", "b"))
    assert record(keys, values, "text") == "ok=True\nx=2\nitems=a;b\n"
    assert record(keys, values, "csv") == "key,value\nok,True\nx,2\nitems,a;b\n"
    assert json.loads(record(keys, values, "json")) == {
        "ok": True, "x": 2.0, "items": ["a", "b"],
    }
