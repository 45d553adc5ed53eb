"""Bifurcation and Maxwell sets of the reduced potential.

A point in a two-parameter plane belongs to the bifurcation set when
the number of stationary points of the landscape changes there, and to
the Maxwell set when two minima (or two maxima) exchange which one is
lower while both persist. The ground-state structure changes character
on these curves, so together they form the separatrix that organizes
the phase diagram.

Everything here is numerical: grid scan, edge classification, and
edge refinement. One bracketed secant (Illinois regula falsi) refines
every edge event. A Maxwell edge feeds it the energy gap of the
tracked pair; a change in the number of stationary points, or a lost
well, has no such gap and feeds a constant that stops at the event,
which makes the secant a bisection. No closed-form discriminants are
used, which keeps the machinery correct for the full five-parameter
potential.

A plane is a grid of two swept r-columns and a sweep a grid of one;
``_grid_events`` is the one path from a grid's nodes to its refined
events, and ``landscape._column`` reads every axis name (r1..r5, or bx
and bz for r1 and r2). The grid's nodes are one (n, 5) array of r1..r5,
summarized with one ``landscape._summaries`` call, and every edge is
classified by array comparisons of the summaries at its two ends. The
events are refined as arrays too: one entry per event holds its
bracket, the gaps at the bracket's ends and the angles of the pair it
tracks, so the events of a whole grid advance in lockstep rounds. Each
round writes the next probe of every event still refining as one
array, summarizes it with one call, and matches every probe's pair at
once. Each event sees exactly the probes it would see if it were
refined alone.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from .landscape import (
    ReducedParams,
    SpinSystem,
    _column,
    _r_row,
    _Summary,
    _summaries,
    parameter_scale,
)

#: A tracked well may move at most this far in theta between two
#: adjacent evaluations and still count as the same well.
MATCH_TOL = math.pi / 4.0

#: Bifurcation events are bisected to this fraction of their grid edge.
BIFURCATION_REFINE = 1e-6

#: Maxwell events are refined to this fraction of their grid edge
#: (tighter, so degeneracy location tests have headroom).
MAXWELL_REFINE = 1e-8

#: Linking radius for chaining refined points into polylines, in cells.
LINK_RADIUS = 2.0

#: Separatrix kinds, in the order of the fields of SeparatrixSet and
#: SweepResult.
KINDS = ("bifurcation", "maxwell_minima", "maxwell_maxima")


def _checked_range(rng: tuple[float, float]) -> tuple[float, float]:
    """rng as floats (lo, hi), which must be finite with lo < hi."""
    lo, hi = float(rng[0]), float(rng[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"a range needs finite bounds LO < HI, got {lo!r}:{hi!r}")
    return lo, hi


@dataclass(frozen=True)
class PlaneSpec:
    """A rectangular scan window in two reduced parameters.

    axis1/axis2 name the swept parameters (r1..r5, or the aliases bz
    and bx); fixed supplies every parameter not being swept.
    """

    axis1: str
    axis2: str
    range1: tuple[float, float]
    range2: tuple[float, float]
    resolution: int | tuple[int, int]
    fixed: ReducedParams

    def __post_init__(self) -> None:
        if _column(self.axis1) == _column(self.axis2):
            raise ValueError(f"plane axes must differ, got {self.axis1!r} and {self.axis2!r}")
        _checked_range(self.range1)
        _checked_range(self.range2)
        n1, n2 = self.shape
        if n1 < 16 or n2 < 16:
            raise ValueError(f"plane resolution must be at least 16 per axis, got {n1}x{n2}")

    @property
    def shape(self) -> tuple[int, int]:
        if isinstance(self.resolution, tuple):
            return int(self.resolution[0]), int(self.resolution[1])
        return int(self.resolution), int(self.resolution)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        n1, n2 = self.shape
        return (
            np.linspace(self.range1[0], self.range1[1], n1),
            np.linspace(self.range2[0], self.range2[1], n2),
        )


@dataclass(frozen=True)
class SeparatrixSet:
    """Refined separatrix curves, one list of (n, 2) polylines per kind."""

    bifurcation: list[np.ndarray]
    maxwell_minima: list[np.ndarray]
    maxwell_maxima: list[np.ndarray]

    def points(self, kind: str) -> np.ndarray:
        """All refined vertices of one kind as a single (n, 2) array."""
        lines = getattr(self, kind)
        if not lines:
            return np.empty((0, 2))
        return np.vstack(lines)


@dataclass(frozen=True)
class SweepResult:
    """Separatrix crossings found along a one-parameter sweep."""

    bifurcation_values: tuple[float, ...]
    maxwell_values: tuple[float, ...]
    maxwell_maxima_values: tuple[float, ...]


class _Events(NamedTuple):
    """The edge events of a plane or a sweep, entry k for event k.

    Event k lies on the edge from the r-row line[k] to the row that
    differs from it in the r-column axis[k] only, where it is v_hi[k],
    and refines the sign change of a gap from d_lo[k] at the lower node
    (t = 0) to d_hi[k] at the upper one (t = 1). A Maxwell event's gap
    is that of its tracked pair (0 minima, 1 maxima), matched from the
    reference angles theta[k] it has at t = 0. A bifurcation has no
    gap: it tracks the counts of t = 0 (pair -1) or a pair that is lost
    by t = 1, with the constant gap d_lo = 1 and an unknown d_hi = nan.
    An event with d_lo = 0 sits at t = 0 and needs no probe.
    """

    kind: npt.NDArray[np.intp]  # (m,) index into KINDS
    line: npt.NDArray[np.float64]  # (m, 5)
    axis: npt.NDArray[np.intp]  # (m,)
    v_hi: npt.NDArray[np.float64]  # (m,)
    pair: npt.NDArray[np.intp]  # (m,)
    counts: npt.NDArray[np.intp]  # (m, 2) stationary counts at t = 0
    theta: npt.NDArray[np.float64]  # (m, 2)
    d_lo: npt.NDArray[np.float64]  # (m,)
    d_hi: npt.NDArray[np.float64]  # (m,)
    tol_t: npt.NDArray[np.float64]  # (m,) bracket width that ends a refinement
    tol_dv: npt.NDArray[np.float64]  # (m,) |gap| that ends a refinement


def _match(ref: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Align the pair angles cand onto ref by angular proximity.

    Pairs run along the last axis. Returns whether cand aligns swapped,
    and whether it aligns at all: tracking breaks where neither order
    keeps both points within MATCH_TOL.
    """
    # d[..., a, b] is the circular distance from ref[a] to cand[b]
    d = np.abs(ref[..., :, None] - cand[..., None, :]) % (2.0 * math.pi)
    d = np.minimum(d, 2.0 * math.pi - d)
    keep = np.maximum(d[..., 0, 0], d[..., 1, 1])
    swap = np.maximum(d[..., 0, 1], d[..., 1, 0])
    return swap < keep, np.minimum(keep, swap) <= MATCH_TOL


def _delta(value: np.ndarray) -> np.ndarray:
    """The gap value[..., 0] - value[..., 1] of pairs along the last axis."""
    return value[..., 0] - value[..., 1]


def _classify_edges(
    r: np.ndarray, s: _Summary, lo: np.ndarray, hi: np.ndarray, axis: np.ndarray,
    scale: float, tol_bif: float, tol_mx: float,
) -> _Events:
    """Every event on the edges from row lo[j] to row hi[j] of the r-array
    r, not yet refined. Edge j runs along the r-column axis[j], and s
    summarizes the rows of r.

    An edge between nodes whose stationary counts differ carries a
    bifurcation. Between equal counts, each pair of lowest minima or
    highest maxima that both nodes have is matched across the edge: a
    pair that cannot be tracked is a bifurcation too, and a sign change
    of its gap is a Maxwell event. Events come edge by edge, count
    changes first, then the minima and the maxima.
    """
    live = ~(s.degenerate[lo] | s.degenerate[hi])
    changed = live & (s.counts[lo] != s.counts[hi]).any(axis=1)
    j = np.flatnonzero(changed)
    n = len(j)
    blocks = [
        (j, np.zeros(n, np.intp), np.full(n, -1), np.zeros((n, 2)), np.ones(n), np.full(n, np.nan))
    ]
    for pair in (0, 1):
        both = live & ~changed & ~s.absent[lo, pair] & ~s.absent[hi, pair]
        theta, value = s.theta[lo, pair], s.value[lo, pair]
        swapped, aligned = _match(theta, s.theta[hi, pair])
        far = s.value[hi, pair]
        d_lo, d_hi = _delta(value), np.where(swapped, _delta(far[:, ::-1]), _delta(far))
        # a pair that cannot be tracked is the birth or death of a well
        # with unchanged totals: still a change of landscape character,
        # filed as bifurcation
        lost = both & ~aligned
        # d_lo == 0 is exactly on the degeneracy locus at the lower
        # endpoint. Report it here (the neighboring edge that entered the
        # locus sees d_hi == 0 and stays silent), but only if the
        # degeneracy is isolated: when the whole edge lies on the locus,
        # as happens for an easy-plane ring whose two in-plane slices are
        # one connected physical well, an event per edge would flood the
        # output.
        on_locus = both & aligned & (d_lo == 0.0) & (d_hi != 0.0)
        crossed = both & aligned & (d_lo != 0.0) & (d_hi != 0.0) & ((d_lo > 0.0) != (d_hi > 0.0))
        j = np.flatnonzero(lost | on_locus | crossed)
        gapless = lost[j]
        blocks.append((
            j, np.where(gapless, 0, pair + 1), np.full(len(j), pair), theta[j],
            np.where(gapless, 1.0, d_lo[j]), np.where(gapless, np.nan, d_hi[j]),
        ))
    j, kind, pair, theta, d_lo, d_hi = (np.concatenate(x) for x in zip(*blocks))
    bif = kind == 0
    return _Events(
        kind, r[lo[j]], axis[j], r[hi[j], axis[j]], pair, s.counts[lo[j]], theta, d_lo, d_hi,
        np.where(bif, tol_bif, tol_mx), np.where(bif, 0.0, 1e-10 * scale),
    )


def _gaps(s: _Summary, events: _Events, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The gap of event k[i] at probe i of the summary s, for every i.

    nan where the probe loses what the event tracks from t = 0: it is
    degenerate, its counts differ, or the tracked pair is absent or no
    longer matches the reference angles theta[k[i]]. Those move to the
    probe's pair only where its gap keeps the sign of t = 0's, so they
    stay on the near side of the event.
    """
    i = np.arange(len(k))
    pair = events.pair[k]
    tracked = pair >= 0
    # a count change (pair -1) reads the columns of pair 1, which only
    # tracked events use
    cand, value = s.theta[i, pair], s.value[i, pair]
    swapped, aligned = _match(theta[k], cand)
    kept = ~s.degenerate & (s.counts == events.counts[k]).all(axis=1)
    kept &= ~tracked | (~s.absent[i, pair] & aligned)
    flip = swapped[:, None]
    gap = np.where(events.kind[k] == 0, 1.0, _delta(np.where(flip, value[:, ::-1], value)))
    gap = np.where(kept, gap, np.nan)
    move = tracked & kept & ((gap > 0.0) == (events.d_lo[k] > 0.0))
    theta[k[move]] = np.where(flip, cand[:, ::-1], cand)[move]
    return gap


def _refine_all(events: _Events, system: SpinSystem, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """The axis value and the kind of every event, all refined in lockstep.

    Each event locates the sign change of its gap on its edge by Illinois
    regula falsi: each probe is the secant zero of the current bracket,
    or its midpoint when that zero is not strictly inside, and an end
    kept twice in a row has its gap halved. A probe whose gap is nan
    becomes the far end with an unknown gap, as t = 1 is for a
    bifurcation, so the probes bisect until a probe beyond the zero
    supplies a gap again. An event stops at a probe with |gap| <= tol_dv
    or once its bracket, a fraction of its edge, is no wider than tol_t.
    A Maxwell event that stops there with a lost probe as its upper end
    saw its pair lost, not its gap cross zero: it becomes a bifurcation.

    Every event's line shares system and offset. Each round evaluates
    the probe of every event still refining as one r-array with one
    ``_summaries`` call, so the calls number the probes of the longest
    refinement, not the probes of all of them.
    """
    m = len(events.kind)
    v_lo = events.line[np.arange(m), events.axis]
    span = events.v_hi - v_lo
    lo, hi = np.zeros(m), np.ones(m)
    f_lo, f_hi = events.d_lo.copy(), events.d_hi.copy()
    # +1 where lo moved last, -1 where hi did, 0 after none or a lost probe
    last = np.zeros(m, dtype=np.int8)
    theta = events.theta.copy()
    t = np.where(events.d_lo == 0.0, 0.0, np.nan)
    k = np.flatnonzero(events.d_lo != 0.0)
    while (k := k[hi[k] - lo[k] > events.tol_t[k]]).size:
        a, b, fa, fb, moved = lo[k], hi[k], f_lo[k], f_hi[k], last[k]
        secant = a + (b - a) * fa / (fa - fb)
        probe = np.where((a < secant) & (secant < b), secant, 0.5 * (a + b))
        r = events.line[k]
        r[np.arange(len(k)), events.axis[k]] = v_lo[k] + probe * span[k]
        gap = _gaps(_summaries(r, system, offset), events, k, theta)
        known = ~np.isnan(gap)
        up = known & ((gap > 0.0) == (fa > 0.0))
        down = known & ~up
        lo[k], hi[k] = np.where(up, probe, a), np.where(up, b, probe)
        f_lo[k] = np.where(up, gap, np.where(down & (moved == -1), fa * 0.5, fa))
        f_hi[k] = np.where(up, np.where(moved == 1, fb * 0.5, fb), gap)
        last[k] = up.astype(np.int8) - down
        settled = np.abs(gap) <= events.tol_dv[k]
        t[k[settled]] = probe[settled]
        k = k[~settled]
    kind = np.where(np.isnan(t) & np.isnan(f_hi), 0, events.kind)
    t = np.where(np.isnan(t), 0.5 * (lo + hi), t)
    return v_lo + t * span, kind


def _link_polylines(points: np.ndarray, cell1: float, cell2: float) -> list[np.ndarray]:
    """Chain the (n, 2) refined points into polylines by nearest-neighbor growth.

    Points are sorted lexicographically first so the chaining (and the
    output) is deterministic; a chain extends from its tail while the
    nearest unused point lies within LINK_RADIUS cells, then from its
    head the same way.
    """
    coords = points[np.lexsort((points[:, 1], points[:, 0]))]
    units = coords / np.array([cell1, cell2])
    used = np.zeros(len(coords), dtype=bool)
    lines: list[np.ndarray] = []
    for seed in range(len(coords)):
        if used[seed]:
            continue
        used[seed] = True
        chain = deque([seed])
        for end, grow in ((-1, chain.append), (0, chain.appendleft)):
            while True:
                du = units - units[chain[end]]
                dist2 = du[:, 0] ** 2 + du[:, 1] ** 2
                dist2[used] = np.inf
                j = int(np.argmin(dist2))
                if dist2[j] > LINK_RADIUS**2:
                    break
                used[j] = True
                grow(j)
        lines.append(coords[list(chain)])
    return lines


def _grid_events(
    fixed: ReducedParams, columns: Sequence[int], values: Sequence[np.ndarray],
    tol_bif: float, tol_mx: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The kind code and r-row of every refined event of the grid on which
    r-column columns[d] takes values[d] (two columns for a plane, one for
    a sweep) and the rest are fixed's. One kernel call summarizes the
    nodes; events refine in lockstep to tol_bif (bifurcations) or tol_mx
    (Maxwell events) of their edge, and the row's swept column holds the
    refined value.
    """
    mesh = np.meshgrid(*values, indexing="ij")
    r = np.tile(_r_row(fixed), (mesh[0].size, 1))
    for column, m in zip(columns, mesh):
        r[:, column] = m.ravel()
    # node i is row i of r; the edges along each swept column come in
    # turn, each run ordered by the other column
    grid = np.arange(len(r)).reshape(mesh[0].shape)
    runs = [np.moveaxis(grid, d, -1) for d in range(len(columns))]
    lo = np.concatenate([run[..., :-1].ravel() for run in runs])
    hi = np.concatenate([run[..., 1:].ravel() for run in runs])
    axis = np.concatenate([np.full(run[..., 1:].size, c) for run, c in zip(runs, columns)])
    s = _summaries(r, fixed.system, fixed.offset)
    events = _classify_edges(r, s, lo, hi, axis, parameter_scale(fixed), tol_bif, tol_mx)
    value, kind = _refine_all(events, fixed.system, fixed.offset)
    at = events.line.copy()
    at[np.arange(len(at)), events.axis] = value
    return kind, at


def classify_cell_edges(plane: PlaneSpec) -> SeparatrixSet:
    """Scan a parameter plane and refine every separatrix crossing.

    Each grid node's landscape is summarized once, all nodes in one
    kernel call; each edge between adjacent nodes is classified by
    comparing the two summaries, and edges carrying an event are
    refined by one bracketed secant: stationary-count changes and lost
    wells bisect to BIFURCATION_REFINE (1e-6) of their grid edge,
    Maxwell degeneracies take secant steps on the energy gap to
    MAXWELL_REFINE (1e-8) of it, or to a gap within 1e-10 of the energy
    scale. All events of the plane refine in lockstep, one kernel call
    per round of probes. Refined points are chained into polylines.
    Cells with a degenerate (flat) landscape are excluded.
    """
    columns = [_column(plane.axis1), _column(plane.axis2)]
    kind, at = _grid_events(plane.fixed, columns, plane.axes(), BIFURCATION_REFINE, MAXWELL_REFINE)
    cells = [(hi - lo) / (n - 1) for (lo, hi), n in zip((plane.range1, plane.range2), plane.shape)]
    return SeparatrixSet(**{
        name: _link_polylines(at[kind == c][:, columns], *cells) for c, name in enumerate(KINDS)
    })


def sweep_crossings(
    fixed: ReducedParams,
    axis: str,
    sweep_range: tuple[float, float],
    *,
    samples: int = 401,
    refine_to: float = 1e-4,
) -> SweepResult:
    """Crossing values of the separatrix along a single parameter axis.

    The one-dimensional grid of ``classify_cell_edges``: sample the
    landscape along the axis (one kernel call), classify consecutive
    segments, and refine every event in lockstep with the same refiner
    (secant steps for Maxwell points, bisection for count changes and
    lost wells) down to refine_to (in the axis's own kelvin units).

    Raises:
        ValueError: if refine_to is not finite or is below 2**-52 of the
            sample step, where float64 can no longer split a bracket.
    """
    column = _column(axis)
    lo, hi = _checked_range(sweep_range)
    if samples < 2:
        raise ValueError("sweep needs at least 2 samples")
    values = np.linspace(lo, hi, samples)
    step = values[1] - values[0]
    if not (math.isfinite(refine_to) and refine_to / step >= 2.0**-52):
        raise ValueError(
            f"refine_to must be finite and at least 2**-52 of the sample step, got {refine_to!r}"
        )
    tol_t = min(0.5, refine_to / step)
    kind, at = _grid_events(fixed, [column], [values], tol_t, tol_t)
    return SweepResult(*(tuple(sorted(at[kind == c, column].tolist())) for c in range(len(KINDS))))
