"""Smoke test of the demo scripts: each runs, and every CSV it names parses."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_level_spectrum.py": ("spectrum.csv", "spectrum_marks.csv"),
    "02_landscape_and_separatrix.py": ("potential_curves.csv", "separatrix.csv"),
    "03_fidelity_map.py": ("fidelity_map.csv",),
    "04_heat_capacity.py": ("heat_capacity.csv",),
}

#: Columns that hold labels; every other cell must parse as a float.
LABEL_COLUMNS = {"kind"}


def _check_table(path):
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    columns, *rows = list(csv.reader(lines))
    assert rows, f"{path.name} has no data rows"
    for row in rows:
        assert len(row) == len(columns), f"{path.name}: {row}"
        for name, cell in zip(columns, row):
            if name not in LABEL_COLUMNS:
                float(cell)


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs_and_writes_its_tables(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MPLBACKEND="Agg")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    named = [
        Path(line.split()[1])
        for line in proc.stdout.splitlines()
        if line.startswith("wrote ") and line.split()[1].endswith(".csv")
    ]
    assert sorted(p.name for p in named) == sorted(DEMOS[script])
    for path in named:
        assert path.parent == tmp_path
        _check_table(path)
