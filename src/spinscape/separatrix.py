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

Landscapes are evaluated in batches. A plane or a sweep writes its
grid nodes as one (n, 5) array of r1..r5 and summarizes them all with
one ``landscape._summaries`` call, and every edge is classified by
array comparisons of the summaries at its two ends. Each event's
refinement is a generator that yields the edge fraction it wants to
probe and is sent the landscape summary there, so the events of a
whole plane advance in lockstep rounds: each round writes the next
probe of every event still refining as one array and summarizes it
with one call. Each event sees exactly the probes it would see if it
were refined alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple

import numpy as np

from .landscape import (
    _R_NAMES,
    ReducedParams,
    SpinSystem,
    _r_row,
    _Summary,
    _summaries,
    parameter_scale,
)

#: Selectors naming a plane axis. bz and bx are aliases for the field
#: components r2 and r1.
_ALIASES = {"bz": "r2", "bx": "r1"}

#: A tracked well may move at most this far in theta between two
#: adjacent evaluations and still count as the same well.
MATCH_TOL = math.pi / 4.0

#: Bifurcation edges are bisected to this fraction of the axis range.
BIFURCATION_REFINE = 1e-6

#: Maxwell edges are refined to this fraction of the axis range
#: (tighter, so degeneracy location tests have headroom).
MAXWELL_REFINE = 1e-8

#: Linking radius for chaining refined points into polylines, in cells.
LINK_RADIUS = 2.0

#: Separatrix kinds, in the order of the fields of SeparatrixSet and
#: SweepResult.
KINDS = ("bifurcation", "maxwell_minima", "maxwell_maxima")


def _canonical_axis(name: str) -> str:
    axis = _ALIASES.get(name, name)
    if axis not in _R_NAMES:
        raise ValueError(
            f"unknown axis selector {name!r}; expected one of {_R_NAMES + tuple(_ALIASES)}"
        )
    return axis


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
        a1 = _canonical_axis(self.axis1)
        a2 = _canonical_axis(self.axis2)
        if a1 == a2:
            raise ValueError(f"plane axes must differ, got {self.axis1!r} and {self.axis2!r}")
        for rng in (self.range1, self.range2):
            lo, hi = float(rng[0]), float(rng[1])
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid axis range {rng!r}")
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


#: A probe's landscape summary: the summaries of one batch of nodes and
#: the probe's row among them.
Probe = tuple[_Summary, int]

#: The signed indicator of one edge event in the landscape summary of a
#: probe, or None where the structure tracked from t = 0 is lost.
GapOf = Callable[[Probe], float | None]

#: An edge event being refined: it yields each edge fraction t in
#: [0, 1] it probes, is sent the landscape summary at t, and returns the
#: event's edge fraction.
Refinement = Generator[float, Probe, float]


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


def _refine(gap_of: GapOf, d_lo: float, d_hi: float | None, tol_t: float, tol_dv: float) -> Refinement:
    """Locate the sign change of the gap, which is d_lo at t = 0 and d_hi at t = 1.

    A generator: it yields each probe t and is sent the landscape
    summary there, whose gap is gap_of(summary); it returns the event's
    edge fraction. Illinois regula falsi: each probe is the secant zero
    of the current bracket, or its midpoint when that zero is not
    strictly inside, and an end kept twice in a row has its gap halved.
    A probe whose gap is None becomes the far end with an unknown gap,
    as t = 1 is when d_hi is None, so the probes bisect until a probe
    beyond the zero supplies a gap again. Stops at a probe with
    |gap| <= tol_dv or once the bracket is no wider than tol_t.
    """
    lo, hi = 0.0, 1.0
    f_lo, f_hi = d_lo, d_hi
    last_moved = ""
    while hi - lo > tol_t:
        t = 0.5 * (lo + hi)
        if f_hi is not None:
            secant = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            if lo < secant < hi:
                t = secant
        gap = gap_of((yield t))
        if gap is None:
            # the structure shifted under us; close in from the far side
            hi, f_hi, last_moved = t, None, ""
            continue
        if abs(gap) <= tol_dv:
            return t
        if (gap > 0.0) == (f_lo > 0.0):
            lo, f_lo = t, gap
            if last_moved == "lo" and f_hi is not None:
                f_hi *= 0.5
            last_moved = "lo"
        else:
            hi, f_hi = t, gap
            if last_moved == "hi":
                f_lo *= 0.5
            last_moved = "hi"
    return 0.5 * (lo + hi)


def _settled(t: float) -> Refinement:
    """An event that needs no probe: it sits at edge fraction t."""
    yield from ()
    return t


def _same_counts(counts: np.ndarray) -> GapOf:
    """1.0 where a probe keeps the stationary counts of t = 0, else None."""

    def gap_of(probe: Probe) -> float | None:
        s, i = probe
        return 1.0 if not s.degenerate[i] and (s.counts[i] == counts).all() else None

    return gap_of


def _tracked_gap(
    counts: np.ndarray, theta: np.ndarray, value: np.ndarray, pair: int,
    gap: Callable[[np.ndarray], float],
) -> GapOf:
    """gap(values) of pair ``pair`` (0 minima, 1 maxima), tracked from
    the angles theta and values value it has at t = 0.

    None where the counts change or the pair no longer matches the
    reference angles. Those move only on probes whose gap keeps the
    sign of t = 0's, so they stay on the near side of the event.
    """
    positive = gap(value) > 0.0

    def gap_of(probe: Probe) -> float | None:
        nonlocal theta
        s, i = probe
        if s.degenerate[i] or s.absent[i, pair] or not (s.counts[i] == counts).all():
            return None
        swapped, aligned = _match(theta, s.theta[i, pair])
        if not aligned:
            return None
        step = -1 if swapped else 1
        found = float(gap(s.value[i, pair, ::step]))
        if (found > 0.0) == positive:
            theta = s.theta[i, pair, ::step]
        return found

    return gap_of


def _classify_edges(
    s: _Summary, lo: np.ndarray, hi: np.ndarray, scale: float, tol_bif: float, tol_mx: float,
) -> list[tuple[int, str, Refinement]]:
    """Classify the edges from node lo[j] to node hi[j] of s at once.

    Returns (j, kind, refinement) for every event. An edge between
    nodes whose stationary counts differ carries a bifurcation. Between
    equal counts, each pair of lowest minima or highest maxima that
    both nodes have is matched across the edge: a pair that cannot be
    tracked is a bifurcation too, and a sign change of its gap is a
    Maxwell event.
    """
    live = ~(s.degenerate[lo] | s.degenerate[hi])
    changed = live & (s.counts[lo] != s.counts[hi]).any(axis=1)
    events = [
        (j, "bifurcation", _refine(_same_counts(s.counts[lo[j]]), 1.0, None, tol_bif, 0.0))
        for j in np.flatnonzero(changed).tolist()
    ]
    tol_dv = 1e-10 * scale
    for pair, kind in enumerate(KINDS[1:]):
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
        for j in np.flatnonzero(lost | on_locus | crossed).tolist():
            counts = s.counts[lo[j]]
            if lost[j]:
                tracking = _tracked_gap(counts, theta[j], value[j], pair, lambda v: 1.0)
                events.append((j, "bifurcation", _refine(tracking, 1.0, None, tol_bif, 0.0)))
            elif on_locus[j]:
                events.append((j, kind, _settled(0.0)))
            else:
                gap_of = _tracked_gap(counts, theta[j], value[j], pair, _delta)
                steps = _refine(gap_of, float(d_lo[j]), float(d_hi[j]), tol_mx, tol_dv)
                events.append((j, kind, steps))
    return events


class _Event(NamedTuple):
    """One event on the edge from v_lo to v_hi along the r-column axis,
    every other parameter taken from the r-row line, with its refinement
    pending."""

    kind: str
    line: np.ndarray
    axis: int
    v_lo: float
    v_hi: float
    steps: Refinement

    def at(self, t: float) -> float:
        """The axis value at edge fraction t."""
        return self.v_lo + t * (self.v_hi - self.v_lo)


def _events(
    r: np.ndarray, s: _Summary, lo: np.ndarray, hi: np.ndarray, axis: np.ndarray,
    scale: float, tol_bif: float, tol_mx: float,
) -> list[_Event]:
    """Every event on the edges from row lo[j] to row hi[j] of the r-array
    r, not yet refined. Edge j runs along the r-column axis[j], and s
    summarizes the rows of r."""
    events = []
    for j, kind, steps in _classify_edges(s, lo, hi, scale, tol_bif, tol_mx):
        a = int(axis[j])
        events.append(_Event(kind, r[lo[j]], a, float(r[lo[j], a]), float(r[hi[j], a]), steps))
    return events


def _refine_all(events: list[_Event], system: SpinSystem, offset: float) -> list[float]:
    """The axis value of every event, all refined in lockstep.

    Every event's line shares system and offset. Each round evaluates
    the pending probe of every event still refining as one r-array with
    one ``_summaries`` call and sends each event its summary, so the
    calls number the probes of the longest refinement, not the probes
    of all of them.
    """
    values = [0.0] * len(events)
    pending: list[tuple[int, float]] = []

    def advance(k: int, probe: Probe | None) -> None:
        event = events[k]
        try:
            pending.append((k, event.steps.send(probe)))
        except StopIteration as stop:
            values[k] = event.at(stop.value)

    for k in range(len(events)):
        advance(k, None)
    while pending:
        probes, pending = pending, []
        rows = np.array([events[k].line for k, _ in probes])
        rows[np.arange(len(probes)), [events[k].axis for k, _ in probes]] = [
            events[k].at(t) for k, t in probes
        ]
        summary = _summaries(rows, system, offset)
        for i, (k, _) in enumerate(probes):
            advance(k, (summary, i))
    return values


def _link_polylines(points: list[tuple[float, float]], cell1: float, cell2: float) -> list[np.ndarray]:
    """Chain refined points into polylines by nearest-neighbor growth.

    Points are sorted lexicographically first so the chaining (and the
    output) is deterministic; a chain extends while the nearest unused
    point lies within LINK_RADIUS cells, then grows from its head.
    """
    if not points:
        return []
    pts = sorted(points)
    coords = np.asarray(pts)
    units = coords / np.array([cell1, cell2])
    n = len(pts)
    used = np.zeros(n, dtype=bool)
    limit2 = LINK_RADIUS**2

    def nearest(idx: int) -> int | None:
        du = units - units[idx]
        dist2 = du[:, 0] ** 2 + du[:, 1] ** 2
        dist2[used] = np.inf
        dist2[idx] = np.inf
        j = int(np.argmin(dist2))
        if dist2[j] <= limit2:
            return j
        return None

    lines: list[np.ndarray] = []
    for seed in range(n):
        if used[seed]:
            continue
        used[seed] = True
        chain = [seed]
        while True:
            nxt = nearest(chain[-1])
            if nxt is None:
                break
            used[nxt] = True
            chain.append(nxt)
        while True:
            prv = nearest(chain[0])
            if prv is None:
                break
            used[prv] = True
            chain.insert(0, prv)
        lines.append(coords[chain])
    return lines


def classify_cell_edges(plane: PlaneSpec) -> SeparatrixSet:
    """Scan a parameter plane and refine every separatrix crossing.

    Each grid node's landscape is summarized once, all nodes in one
    kernel call; each edge between adjacent nodes is classified by
    comparing the two summaries, and edges carrying an event are
    refined by one bracketed secant: stationary-count changes and lost
    wells bisect to 1e-6 of the axis range, Maxwell degeneracies take
    secant steps on the energy gap to 1e-8 of it (or to a gap within
    1e-10 of the energy scale). All events of the plane refine in
    lockstep, one kernel call per round of probes. Refined points are
    chained into polylines. Cells with a degenerate (flat) landscape
    are excluded.
    """
    a1 = _R_NAMES.index(_canonical_axis(plane.axis1))
    a2 = _R_NAMES.index(_canonical_axis(plane.axis2))
    vals1, vals2 = plane.axes()
    n1, n2 = plane.shape
    fixed = plane.fixed

    # node (i1, i2) is row i1 * n2 + i2; the edges along axis 1 come
    # first, then those along axis 2
    r = np.tile(_r_row(fixed), (n1 * n2, 1))
    r[:, a1] = np.repeat(vals1, n2)
    r[:, a2] = np.tile(vals2, n1)
    grid = np.arange(n1 * n2).reshape(n1, n2)
    lo = np.concatenate([grid[:-1].T.ravel(), grid[:, :-1].ravel()])
    hi = np.concatenate([grid[1:].T.ravel(), grid[:, 1:].ravel()])
    axis = np.repeat([a1, a2], [(n1 - 1) * n2, n1 * (n2 - 1)])
    s = _summaries(r, fixed.system, fixed.offset)
    events = _events(
        r, s, lo, hi, axis, parameter_scale(fixed), BIFURCATION_REFINE, MAXWELL_REFINE
    )

    collected: dict[str, list[tuple[float, float]]] = {kind: [] for kind in KINDS}
    for event, value in zip(events, _refine_all(events, fixed.system, fixed.offset)):
        at = event.line.copy()
        at[event.axis] = value
        collected[event.kind].append((float(at[a1]), float(at[a2])))

    cell1 = (plane.range1[1] - plane.range1[0]) / (n1 - 1)
    cell2 = (plane.range2[1] - plane.range2[0]) / (n2 - 1)
    return SeparatrixSet(**{kind: _link_polylines(collected[kind], cell1, cell2) for kind in KINDS})


def sweep_crossings(
    fixed: ReducedParams,
    axis: str,
    sweep_range: tuple[float, float],
    *,
    samples: int = 401,
    refine_to: float = 1e-4,
) -> SweepResult:
    """Crossing values of the separatrix along a single parameter axis.

    The one-dimensional analogue of ``classify_cell_edges``: sample the
    landscape along the axis (one kernel call), classify
    consecutive segments, and refine every event in lockstep with the
    same refiner (secant steps for Maxwell points, bisection for count
    changes and lost wells) down to refine_to (in the axis's own kelvin
    units).

    Raises:
        ValueError: if refine_to is not finite or is below 2**-52 of the
            sample step, where float64 can no longer split a bracket.
    """
    column = _R_NAMES.index(_canonical_axis(axis))
    lo, hi = float(sweep_range[0]), float(sweep_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid sweep range {sweep_range!r}")
    if samples < 2:
        raise ValueError("sweep needs at least 2 samples")
    values = np.linspace(lo, hi, samples)
    scale = parameter_scale(fixed)
    step = values[1] - values[0]
    if not (math.isfinite(refine_to) and refine_to / step >= 2.0**-52):
        raise ValueError(
            f"refine_to must be finite and at least 2**-52 of the sample step, got {refine_to!r}"
        )
    tol_t = min(0.5, refine_to / step)

    r = np.tile(_r_row(fixed), (samples, 1))
    r[:, column] = values
    s = _summaries(r, fixed.system, fixed.offset)
    nodes = np.arange(samples)
    events = _events(
        r, s, nodes[:-1], nodes[1:], np.full(samples - 1, column), scale, tol_t, tol_t
    )
    found: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for event, value in zip(events, _refine_all(events, fixed.system, fixed.offset)):
        found[event.kind].append(value)
    return SweepResult(*(tuple(sorted(found[kind])) for kind in KINDS))
