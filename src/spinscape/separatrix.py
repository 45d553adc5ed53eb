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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .landscape import (
    CriticalPoint,
    ReducedParams,
    landscape,
    parameter_scale,
)

#: Selectors naming a plane axis. bz and bx are aliases for the field
#: components r2 and r1.
_ALIASES = {"bz": "r2", "bx": "r1"}
_R_NAMES = ("r1", "r2", "r3", "r4", "r5")

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


def _with_value(rp: ReducedParams, axis: str, value: float) -> ReducedParams:
    return replace(rp, **{axis: float(value)})


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


Pair = tuple[CriticalPoint, CriticalPoint]


@dataclass(frozen=True)
class _Feature:
    """What edge classification needs to know about one landscape."""

    degenerate: bool
    counts: tuple[int, int]
    min_pair: Pair | None
    max_pair: Pair | None


#: The landscape summary at a fraction t in [0, 1] along one edge.
FeatureAt = Callable[[float], _Feature]

#: The signed indicator of one edge event at a fraction t in [0, 1], or
#: None where the structure tracked from t = 0 is lost.
GapAt = Callable[[float], float | None]


def _theta_ordered(a: CriticalPoint, b: CriticalPoint) -> Pair:
    return (a, b) if a.theta <= b.theta else (b, a)


def _feature(rp: ReducedParams) -> _Feature:
    rep = landscape(rp)
    if rep.degenerate:
        return _Feature(True, (0, 0), None, None)
    minima = sorted(rep.minima(), key=lambda p: p.value)
    maxima = sorted(rep.maxima(), key=lambda p: -p.value)
    min_pair = _theta_ordered(minima[0], minima[1]) if len(minima) >= 2 else None
    max_pair = _theta_ordered(maxima[0], maxima[1]) if len(maxima) >= 2 else None
    return _Feature(False, (rep.n_minima, rep.n_maxima), min_pair, max_pair)


def _circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _match(ref: Pair, cand: Pair) -> Pair | None:
    """Align cand onto ref by angular proximity, or None if tracking breaks."""
    keep = max(_circ_dist(ref[0].theta, cand[0].theta), _circ_dist(ref[1].theta, cand[1].theta))
    swap = max(_circ_dist(ref[0].theta, cand[1].theta), _circ_dist(ref[1].theta, cand[0].theta))
    if keep <= swap:
        return cand if keep <= MATCH_TOL else None
    return (cand[1], cand[0]) if swap <= MATCH_TOL else None


def _delta(pair: Pair) -> float:
    return pair[0].value - pair[1].value


def _refine(gap_at: GapAt, d_lo: float, d_hi: float | None, tol_t: float, tol_dv: float) -> float:
    """Locate the sign change of gap_at, which is d_lo at t = 0 and d_hi at t = 1.

    Illinois regula falsi: each probe is the secant zero of the current
    bracket, or its midpoint when that zero is not strictly inside, and
    an end kept twice in a row has its gap halved. A probe where gap_at
    is None becomes the far end with an unknown gap, as t = 1 is when
    d_hi is None, so the probes bisect until a probe beyond the zero
    supplies a gap again. Stops at a probe with |gap| <= tol_dv or once
    the bracket is no wider than tol_t.
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
        gap = gap_at(t)
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


def _tracked_gap(
    feature_at: FeatureAt, counts: tuple[int, int], ref: Pair, which: str, gap: Callable[[Pair], float]
) -> GapAt:
    """gap(pair) of the pair which, tracked from ref at t = 0.

    None where the counts change or the pair no longer matches ref. ref
    moves only on probes whose gap keeps the sign of t = 0's, so it
    stays on the near side of the event.
    """
    positive = gap(ref) > 0.0

    def gap_at(t: float) -> float | None:
        nonlocal ref
        fm = feature_at(t)
        pair = getattr(fm, which)
        if fm.degenerate or fm.counts != counts or pair is None:
            return None
        matched = _match(ref, pair)
        if matched is None:
            return None
        value = gap(matched)
        if (value > 0.0) == positive:
            ref = matched
        return value

    return gap_at


def _classify_edge(
    feature_at: FeatureAt,
    fa: _Feature,
    fb: _Feature,
    scale: float,
    tol_bif: float,
    tol_mx: float,
) -> list[tuple[str, float]]:
    """Classify one grid edge; returns (category, edge fraction) events."""
    if fa.degenerate or fb.degenerate:
        return []
    if fa.counts != fb.counts:

        def same_counts(t: float) -> float | None:
            fm = feature_at(t)
            return 1.0 if not fm.degenerate and fm.counts == fa.counts else None

        return [("bifurcation", _refine(same_counts, 1.0, None, tol_bif, 0.0))]

    events: list[tuple[str, float]] = []
    tol_dv = 1e-10 * scale
    for category, which in (("maxwell_minima", "min_pair"), ("maxwell_maxima", "max_pair")):
        pa = getattr(fa, which)
        pb = getattr(fb, which)
        if pa is None or pb is None:
            continue
        matched = _match(pa, pb)
        if matched is None:
            # birth or death of a tracked well with unchanged totals:
            # still a change of landscape character, filed as bifurcation
            tracking = _tracked_gap(feature_at, fa.counts, pa, which, lambda pair: 1.0)
            events.append(("bifurcation", _refine(tracking, 1.0, None, tol_bif, 0.0)))
            continue
        d_lo = _delta(pa)
        d_hi = _delta(matched)
        if d_lo == 0.0:
            # exactly on the degeneracy locus at the lower endpoint.
            # Report it here (the neighboring edge that entered the
            # locus sees d_hi == 0 and stays silent), but only if the
            # degeneracy is isolated: when the whole edge lies on the
            # locus, as happens for an easy-plane ring whose two
            # in-plane slices are one connected physical well, an
            # event per edge would flood the output.
            if d_hi != 0.0:
                events.append((category, 0.0))
        elif d_hi != 0.0 and (d_lo > 0.0) != (d_hi > 0.0):
            gap_at = _tracked_gap(feature_at, fa.counts, pa, which, _delta)
            events.append((category, _refine(gap_at, d_lo, d_hi, tol_mx, tol_dv)))
    return events


def _line_events(
    fixed: ReducedParams, axis: str, values: np.ndarray, feats: list[_Feature],
    scale: float, tol_bif: float, tol_mx: float,
) -> list[tuple[str, float]]:
    """(kind, axis value) of every event on the edges of one line of nodes.

    The line runs along axis through values, with every other
    parameter taken from fixed; feats[i] summarizes node i.
    """
    events: list[tuple[str, float]] = []
    for i in range(len(values) - 1):
        v_lo, v_hi = float(values[i]), float(values[i + 1])

        def feature_at(t: float) -> _Feature:
            return _feature(_with_value(fixed, axis, v_lo + t * (v_hi - v_lo)))

        for kind, t in _classify_edge(feature_at, feats[i], feats[i + 1], scale, tol_bif, tol_mx):
            events.append((kind, v_lo + t * (v_hi - v_lo)))
    return events


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

    Each grid node's landscape is summarized once; each edge between
    adjacent nodes is classified by comparing the two summaries, and
    edges carrying an event are refined by one bracketed secant:
    stationary-count changes and lost wells bisect to 1e-6 of the axis
    range, Maxwell degeneracies take secant steps on the energy gap to
    1e-8 of it (or to a gap within 1e-10 of the energy scale). Refined
    points are chained into polylines. Cells with a degenerate (flat)
    landscape are excluded.
    """
    axis1 = _canonical_axis(plane.axis1)
    axis2 = _canonical_axis(plane.axis2)
    vals1, vals2 = plane.axes()
    n1, n2 = plane.shape
    scale = parameter_scale(plane.fixed)

    features: list[list[_Feature]] = []
    for v1 in vals1:
        base = _with_value(plane.fixed, axis1, v1)
        features.append([_feature(_with_value(base, axis2, v2)) for v2 in vals2])

    collected: dict[str, list[tuple[float, float]]] = {kind: [] for kind in KINDS}
    tols = (BIFURCATION_REFINE, MAXWELL_REFINE)
    for i2, v2 in enumerate(vals2):
        line = _with_value(plane.fixed, axis2, v2)
        feats = [row[i2] for row in features]
        for kind, v1 in _line_events(line, axis1, vals1, feats, scale, *tols):
            collected[kind].append((v1, float(v2)))
    for i1, v1 in enumerate(vals1):
        line = _with_value(plane.fixed, axis1, v1)
        for kind, v2 in _line_events(line, axis2, vals2, features[i1], scale, *tols):
            collected[kind].append((float(v1), v2))

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
    landscape along the axis, classify consecutive segments, and refine
    each event with the same refiner (secant steps for Maxwell points,
    bisection for count changes and lost wells) down to refine_to (in
    the axis's own kelvin units).

    Raises:
        ValueError: if refine_to is not finite or is below 2**-52 of the
            sample step, where float64 can no longer split a bracket.
    """
    axis_name = _canonical_axis(axis)
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

    feats = [_feature(_with_value(fixed, axis_name, v)) for v in values]
    found: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for kind, value in _line_events(fixed, axis_name, values, feats, scale, tol_t, tol_t):
        found[kind].append(value)
    return SweepResult(*(tuple(sorted(found[kind])) for kind in KINDS))
