"""Deterministic table output with provenance headers.

Every file this package emits starts with `#`-prefixed header lines
recording the tool version and the full run configuration, followed by
a column-name row and the data. Floats are rendered with Python's
shortest round-trip repr, so identical configurations produce byte
identical files; nothing time- or host-dependent is ever written.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

Cell = Any
Row = Sequence[Cell]


def _plain(value: Cell) -> str | bool | int | float:
    """The str, bool, int or float that a table cell holds."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise TypeError(f"unsupported cell type {type(value).__name__}")


def format_cell(value: Cell) -> str:
    # Rows come from ndarray.tolist(), so nearly every cell is a plain float.
    if type(value) is float:
        return repr(value)
    value = _plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _json_cell(value: Cell) -> Any:
    value = _plain(value)
    # strict JSON has no NaN/Infinity literal; represent them as null
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_csv(
    path: str | Path,
    header: Sequence[tuple[str, str]],
    columns: Sequence[str],
    rows: Iterable[Row],
) -> None:
    """Write a CSV table with `# key: value` provenance lines on top."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in header:
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(cell) for cell in row) + "\n")


def write_json(
    path: str | Path,
    header: Sequence[tuple[str, str]],
    columns: Sequence[str],
    rows: Iterable[Row],
) -> None:
    """Write the same table as JSON, header mirrored into a meta object."""
    payload = {
        "meta": {key: value for key, value in header},
        "columns": list(columns),
        "rows": [[_json_cell(cell) for cell in row] for row in rows],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_table(
    path: str | Path,
    fmt: str,
    header: Sequence[tuple[str, str]],
    columns: Sequence[str],
    rows: Iterable[Row],
) -> None:
    if fmt == "csv":
        write_csv(path, header, columns, rows)
    elif fmt == "json":
        write_json(path, header, columns, rows)
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def _gnuplot(title: str, *body: str) -> str:
    """A gnuplot script that reads csv: the title, the body lines, then a pause."""
    lines = ("set datafile separator ','", f"set title '{title}'", *body, "pause -1")
    return "".join(line + "\n" for line in lines)


def gnuplot_lines_script(data_path: str, n_value_columns: int, title: str) -> str:
    """Plot script for a table whose columns 2..n are curves over column 1."""
    plot = f"plot for [i=2:{n_value_columns + 1}] '{data_path}' using 1:i with lines title columnheader(i)"
    return _gnuplot(title, "set key outside", plot)


def gnuplot_map_script(data_path: str, title: str) -> str:
    """Plot script for (x, y, value) scatter tables."""
    plot = f"plot '{data_path}' using 1:2:3 with points pt 5 ps 0.6 palette notitle"
    return _gnuplot(title, "set palette rgbformulae 22,13,-31", plot)


def gnuplot_separatrix_script(data_path: str, title: str, kinds: Sequence[str]) -> str:
    """Plot script for the kind-tagged polyline tables, one point set per kind."""
    parts = [
        f"'{data_path}' using (strcol(1) eq '{kind}' ? $4 : NaN):5 with points pt 7 ps 0.4 title '{kind}'"
        for kind in kinds
    ]
    return _gnuplot(title, "plot " + ", \\\n     ".join(parts))
