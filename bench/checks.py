"""Output checks: each job's files must obey an exact symmetry of the model.

A check reads the CSV files a CLI job wrote and returns the largest
symmetry violation it found, together with that violation as a share
of the check's tolerance; a share above 1, a malformed file or a value
outside its physical range raises :class:`CheckError`. The tolerances
follow from the library's documented accuracy, not from measured
errors, so a faster method of equal accuracy still passes.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Edge refinement of ``classify_cell_edges`` stops within this share of
#: the axis range; two mirrored points may each be off by that much.
PLANE_REFINE = 1e-6

#: The ``spectrum`` crossings sidecar refines to this many kelvin
#: (``sweep_crossings`` default ``refine_to``).
SWEEP_REFINE = 1e-4

#: Relative tolerance on mirrored energy levels, far above the ~1e-15
#: that LAPACK loses on 61 x 61 matrices.
LEVEL_RTOL = 1e-9

#: Absolute tolerance on mirrored fidelity and heat-capacity values.
MAP_ATOL = 1e-9


class CheckError(Exception):
    """An output file is malformed or violates its symmetry."""


#: What a check raises on a file it cannot read, parse or accept.
FAILURES = (CheckError, KeyError, ValueError, IndexError)


@dataclass(frozen=True)
class Symmetry:
    """Largest violation found (in the workload's unit) and its share of tolerance."""

    err: float
    share: float


def read_table(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split a CSV written by ``spinscape.writers`` into header, columns, rows."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from None
    meta: dict[str, str] = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line.split(","))
    if not body:
        raise CheckError(f"{path.name}: no column row")
    return meta, body[0], body[1:]


def _floats(path: Path, rows: list[list[str]], start: int) -> np.ndarray:
    try:
        values = np.array([[float(x) for x in row[start:]] for row in rows], dtype=float)
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if values.size and not np.all(np.isfinite(values)):
        raise CheckError(f"{path.name}: non-finite value")
    return values


def _window(meta: dict[str, str], key: str) -> tuple[float, float]:
    lo, hi = (float(x) for x in meta[key].split(":"))
    if lo != -hi:
        raise CheckError(f"{key} {meta[key]} is not centred on 0")
    return lo, hi


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_plane(path: Path) -> Symmetry:
    """Separatrix points must map onto themselves under (bz, bx) -> (-bz, -bx)."""
    meta, columns, rows = read_table(path)
    _require(meta.get("command") == "separatrix", f"{path.name}: not a separatrix table")
    _require(columns == ["kind", "polyline", "vertex", "bz", "bx"], f"{path.name}: columns {columns}")
    _require(len(rows) > 0, f"{path.name}: no separatrix points")
    n1, n2 = (int(x) for x in meta["grid"].split("x"))
    lo1, hi1 = _window(meta, "range1")
    lo2, hi2 = _window(meta, "range2")
    cells = np.array([(hi1 - lo1) / (n1 - 1), (hi2 - lo2) / (n2 - 1)])
    tol = 2.0 * PLANE_REFINE * (max(n1, n2) - 1)
    points = _floats(path, rows, 3) / cells
    kinds = np.array([row[0] for row in rows])
    _require(bool(np.all(np.abs(points) <= np.array([n1 - 1, n2 - 1]) / 2 + tol)),
             f"{path.name}: point outside the window")
    err = 0.0
    for kind in np.unique(kinds):
        pts = points[kinds == kind]
        dist = np.sqrt(((pts[:, None, :] + pts[None, :, :]) ** 2).sum(axis=2))
        err = max(err, float(dist.min(axis=1).max()))
    _require(err <= tol, f"{path.name}: mirror mismatch {err:.3e} cells > {tol:.3e}")
    return Symmetry(err, err / tol)


def check_spectrum(path: Path, sidecar: Path) -> Symmetry:
    """Levels at +-bz coincide, and the crossings sit symmetrically about bz = 0."""
    meta, columns, rows = read_table(path)
    _require(meta.get("command") == "spectrum", f"{path.name}: not a spectrum table")
    dim = int(meta["two_s"]) + 1
    _require(columns == ["bz"] + [f"e{i}" for i in range(dim)], f"{path.name}: columns")
    _require(len(rows) == int(meta["grid"]), f"{path.name}: {len(rows)} rows, grid {meta['grid']}")
    _window(meta, "bz_range")
    _require(float(meta["b43"]) == 0.0, f"{path.name}: b43 != 0 breaks the bz mirror")
    table = _floats(path, rows, 0)
    bz, levels = table[:, 0], table[:, 1:]
    _require(bool(np.all(np.diff(levels, axis=1) >= 0.0)), f"{path.name}: levels not ascending")
    _require(bool(np.all(np.abs(bz + bz[::-1]) <= 1e-12 * np.max(np.abs(bz)))),
             f"{path.name}: bz grid not symmetric")
    level_tol = LEVEL_RTOL * (1.0 + float(np.max(np.abs(levels))))
    level_err = float(np.max(np.abs(levels - levels[::-1])))
    _require(level_err <= level_tol, f"{path.name}: mirrored levels differ by {level_err:.3e} K")

    meta, columns, rows = read_table(sidecar)
    _require(meta.get("command") == "spectrum.crossings", f"{sidecar.name}: not a crossings table")
    _require(columns == ["kind", "bz"], f"{sidecar.name}: columns {columns}")
    _require(len(rows) > 0, f"{sidecar.name}: no crossings in the window")
    cross_tol = 2.0 * SWEEP_REFINE
    cross_err = 0.0
    for kind in sorted({row[0] for row in rows}):
        values = np.sort(_floats(sidecar, [r for r in rows if r[0] == kind], 1)[:, 0])
        cross_err = max(cross_err, float(np.max(np.abs(values + values[::-1]))))
    _require(cross_err <= cross_tol, f"{sidecar.name}: crossings asymmetric by {cross_err:.3e} K")
    return Symmetry(max(level_err, cross_err), max(level_err / level_tol, cross_err / cross_tol))


def check_map(path: Path, column: str, lower: float, upper: float) -> Symmetry:
    """values[i, j] == values[-1-i, -1-j] on an origin-centred (bz, bx) grid."""
    meta, columns, rows = read_table(path)
    _require(columns == ["bz", "bx", column], f"{path.name}: columns {columns}")
    n_z, n_x = (int(x) for x in meta["grid"].split("x"))
    _require(len(rows) == n_z * n_x, f"{path.name}: {len(rows)} rows for grid {meta['grid']}")
    _window(meta, "bz_range")
    _window(meta, "bx_range")
    table = _floats(path, rows, 0)
    values = table[:, 2].reshape(n_x, n_z).T
    _require(bool(np.all((values >= lower) & (values <= upper))),
             f"{path.name}: {column} outside [{lower}, {upper}]")
    err = float(np.max(np.abs(values - values[::-1, ::-1])))
    _require(err <= MAP_ATOL, f"{path.name}: mirrored {column} differs by {err:.3e}")
    return Symmetry(err, err / MAP_ATOL)


def corrupt(path: Path) -> None:
    """Shift the last value of the first data row, as a damaged file would."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.startswith("#") and i + 1 < len(lines) and not lines[i + 1].startswith("#"):
            row = lines[i + 1].rstrip("\n").split(",")
            value = float(row[-1])
            row[-1] = repr(value + 0.37 * (1.0 + abs(value)))
            lines[i + 1] = ",".join(row) + "\n"
            break
    path.write_text("".join(lines), encoding="utf-8", newline="\n")
