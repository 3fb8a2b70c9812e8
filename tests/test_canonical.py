import json
import math

import numpy as np
import pytest

from entpaths.canonical import (canonical_json, csv_cell, format_float,
                                write_canonical_json, write_csv)


@pytest.mark.parametrize("value", [
    0.0, -0.0, 1.0, 1.0 / 3.0, 0.1, 2.0**-52, 1e300, -1e-300,
    math.pi, 0.9182958340544896, 5.0 / 9.0,
])
def test_format_float_round_trips_exactly(value):
    text = format_float(value)
    assert float(text) == value
    # JSON and CSV print a float as one text: Python's shortest round trip
    assert text == repr(value)
    assert csv_cell(value) == text
    assert f'"v": {text}\n' in canonical_json({"v": value})


def test_format_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(bad)


def test_canonical_json_sorts_keys_and_terminates_with_newline():
    text = canonical_json({"b": 1, "a": {"z": 2, "y": 3}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"y"') < text.index('"z"')
    assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}


def test_canonical_json_handles_numpy_scalars():
    doc = {"i": np.int64(3), "x": np.float64(0.25), "flag": np.True_}
    assert json.loads(canonical_json(doc)) == {"i": 3, "x": 0.25, "flag": True}


def test_canonical_json_distinguishes_bool_from_int():
    assert '"a": true' in canonical_json({"a": True})
    assert '"a": 1' in canonical_json({"a": 1})


def test_canonical_json_float_precision_survives_parse():
    value = 0.1 + 0.2  # not representable as a short decimal
    parsed = json.loads(canonical_json({"v": value}))
    assert parsed["v"] == value


def test_csv_cell_formats():
    assert csv_cell(3) == "3"
    assert csv_cell(True) == "true"
    assert csv_cell(False) == "false"
    assert csv_cell("plain") == "plain"
    assert float(csv_cell(1.0 / 3.0)) == 1.0 / 3.0


def test_csv_cell_rejects_cells_that_would_need_quoting():
    for bad in ("a,b", 'say "hi"', "two\nlines"):
        with pytest.raises(ValueError):
            csv_cell(bad)


def test_write_csv_uses_unix_newlines(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, ["a", "b"], [(1, 2.5), (3, 4.0)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines() == ["a,b", "1,2.5", "3,4.0"]


def test_write_canonical_json_bytes_stable(tmp_path):
    doc = {"x": 1.0 / 3.0, "items": [1, 2, 3]}
    write_canonical_json(tmp_path / "a.json", doc)
    write_canonical_json(tmp_path / "b.json", doc)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert b"\r" not in (tmp_path / "a.json").read_bytes()
