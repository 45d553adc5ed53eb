"""Deterministic table output."""

import json
import math

import numpy as np
import pytest

from spinscape.writers import (
    _json_cell,
    format_cell,
    gnuplot_lines_script,
    gnuplot_map_script,
    gnuplot_separatrix_script,
    write_csv,
    write_json,
    write_table,
)


def test_json_refuses_an_unsupported_cell_before_writing(tmp_path):
    out = tmp_path / "t.json"
    with pytest.raises(TypeError, match="object"):
        write_json(out, [("tool", "demo")], ["a"], [[1.0], [object()]])
    assert not out.exists()


def test_format_cell():
    assert format_cell(1.5) == "1.5"
    assert format_cell(0.1) == "0.1"  # repr round-trips, no padding
    assert format_cell(1e-17) == "1e-17"
    assert format_cell(3) == "3"
    assert format_cell(True) == "true"
    assert format_cell("label") == "label"
    with pytest.raises(TypeError):
        format_cell(object())


def _format_cell_reference(value):
    """format_cell as it was before the plain-float fast path."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    raise TypeError(f"unsupported cell type {type(value).__name__}")


_CELLS = [
    0.1, -0.0, 1e-300, 699.123456789012, float("inf"), float("nan"),
    np.float64(0.1), np.float64(-2.5e-17), np.float32(0.1), np.float32(3.0),
    7, -3, np.int64(42), np.int32(-1),
    True, False, np.bool_(True), np.bool_(False),
    "label", "",
]


def test_format_cell_every_cell_type_as_before():
    for value in _CELLS:
        assert format_cell(value) == _format_cell_reference(value), repr(value)
    assert format_cell(np.float32(0.1)) == "0.10000000149011612"
    assert format_cell(np.bool_(True)) == "true"
    assert format_cell(np.int64(42)) == "42"


def _json_cell_reference(value):
    """_json_cell as it was when it had its own cell-type ladder."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else None
    raise TypeError(f"unsupported cell type {type(value).__name__}")


def test_json_cell_every_cell_type_as_before():
    for value in _CELLS + [np.float64("-inf"), np.float32("nan")]:
        got, want = _json_cell(value), _json_cell_reference(value)
        assert type(got) is type(want) and json.dumps(got) == json.dumps(want), repr(value)
    assert _json_cell(np.float32(0.1)) == 0.10000000149011612
    with pytest.raises(TypeError, match="object"):
        _json_cell(object())


def test_csv_layout(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, [("tool", "demo"), ("n", 2)], ["a", "b"], [[1.0, "x"], [2.5, "y"]])
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "# tool: demo"
    assert lines[1] == "# n: 2"
    assert lines[2] == "a,b"
    assert lines[3] == "1.0,x"
    assert lines[4] == "2.5,y"
    assert text.endswith("\n")


def test_csv_byte_stable(tmp_path):
    rows = [[0.1 * i, i] for i in range(20)]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, [("k", "v")], ["x", "n"], rows)
    write_csv(p2, [("k", "v")], ["x", "n"], rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_json_layout(tmp_path):
    out = tmp_path / "t.json"
    write_json(out, [("tool", "demo")], ["a", "b"], [[1.0, True], [float("nan"), "s"]])
    doc = json.loads(out.read_text())
    assert doc["meta"] == {"tool": "demo"}
    assert doc["columns"] == ["a", "b"]
    assert doc["rows"][0] == [1.0, True]
    assert doc["rows"][1][0] is None  # NaN has no JSON literal
    assert out.read_text().endswith("\n")


def test_write_table_dispatch(tmp_path):
    write_table(tmp_path / "x.csv", "csv", [], ["c"], [[1]])
    write_table(tmp_path / "x.json", "json", [], ["c"], [[1]])
    with pytest.raises(ValueError):
        write_table(tmp_path / "x.tsv", "tsv", [], ["c"], [[1]])


def test_gnuplot_snippets():
    s = gnuplot_lines_script("data.csv", 3, "levels")
    assert "data.csv" in s
    assert "for [i=2:4]" in s
    assert "using 1:i" in s
    m = gnuplot_map_script("map.csv", "fidelity")
    assert "using 1:2:3" in m
    # the kind names are the caller's; writers knows none of its own
    sep = gnuplot_separatrix_script("sep.csv", "curves", ["fold", "cusp"]).splitlines()
    assert sep[1] == "set title 'curves'"
    assert sep[2].startswith("plot 'sep.csv'") and sep[2].endswith("title 'fold', \\")
    assert sep[3].endswith("title 'cusp'") and sep[4] == "pause -1"
    for script in (s, m):
        assert script.startswith("set datafile separator ','\n") and script.endswith("\npause -1\n")
