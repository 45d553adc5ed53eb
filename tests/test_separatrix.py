"""Bifurcation and degeneracy curve detection in parameter planes."""

import importlib
import math

import numpy as np
import pytest

from spinscape import (
    CriticalPoint,
    PlaneSpec,
    ReducedParams,
    SpinSystem,
    classify_cell_edges,
    landscape,
    parameter_scale,
    sweep_crossings,
)
from spinscape.separatrix import BIFURCATION_REFINE, MAXWELL_REFINE

S5 = SpinSystem(10)


def _rp(r1=0.0, r2=0.0, r3=-0.679, r4=0.00076, r5=0.01):
    return ReducedParams(r1=r1, r2=r2, r3=r3, r4=r4, r5=r5, system=S5)


def test_longitudinal_sweep_reference_values():
    """Zero transverse field: wells die at -/+3.136 and swap at 0."""
    res = sweep_crossings(_rp(r1=0.0), "bz", (-4.0, 4.0))
    assert len(res.bifurcation_values) == 2
    lo, hi = res.bifurcation_values
    assert abs(lo + 3.136) < 0.02
    assert abs(hi - 3.136) < 0.02
    assert abs(lo + hi) < 5e-3  # symmetric pair
    assert len(res.maxwell_values) == 1
    assert abs(res.maxwell_values[0]) < 0.02


def test_transverse_field_shifts_degeneracy_point():
    res = sweep_crossings(_rp(r1=2.0), "bz", (-1.0, 1.0))
    assert len(res.maxwell_values) == 1
    assert abs(res.maxwell_values[0] - 0.09) < 0.02
    assert len(res.bifurcation_values) == 2
    assert abs(res.bifurcation_values[0] - (-0.455)) < 0.02
    assert abs(res.bifurcation_values[1] - 0.493) < 0.02


def test_sweep_deterministic():
    a = sweep_crossings(_rp(r1=2.0), "bz", (-1.0, 1.0))
    b = sweep_crossings(_rp(r1=2.0), "bz", (-1.0, 1.0))
    assert a.bifurcation_values == b.bifurcation_values
    assert a.maxwell_values == b.maxwell_values


def test_sweep_refinement_tolerance():
    coarse = sweep_crossings(_rp(r1=0.0), "bz", (-4.0, 4.0), refine_to=1e-2)
    fine = sweep_crossings(_rp(r1=0.0), "bz", (-4.0, 4.0), refine_to=1e-5)
    for c, f in zip(coarse.bifurcation_values, fine.bifurcation_values):
        assert abs(c - f) < 2e-2


def test_easy_plane_regime_stays_quiet():
    # r3 > 0 puts the minimum on an equatorial ring. Its two in-plane
    # slices are exactly degenerate for every bz, which must not be
    # reported as a wall of degeneracy crossings; the only real event
    # is the polar maxima swapping at bz = 0.
    rp = ReducedParams(r1=0.0, r2=0.0, r3=0.5, r4=0.0, r5=0.0, system=S5)
    res = sweep_crossings(rp, "bz", (-1.0, 1.0), samples=101)
    assert res.bifurcation_values == ()
    assert res.maxwell_values == ()
    assert res.maxwell_maxima_values == (0.0,)


def test_sweep_mirror_symmetry_without_trigonal_term():
    # with r5 = 0 the potential is even in bz, so the two bifurcation
    # values are opposite and the degeneracy sits at bz = 0 exactly
    rp = _rp(r1=2.0, r5=0.0)
    res = sweep_crossings(rp, "bz", (-1.0, 1.0), refine_to=1e-5)
    assert len(res.bifurcation_values) == 2
    assert abs(res.bifurcation_values[0] + res.bifurcation_values[1]) < 2e-5
    assert len(res.maxwell_values) == 1
    assert abs(res.maxwell_values[0]) < 1e-5


def test_sweep_other_axes():
    # sweeping the quadratic coefficient through its sign change from a
    # double well (negative) to a single well (positive) crosses one
    # bifurcation
    rp = ReducedParams(r1=0.5, r2=0.0, r3=0.0, r4=0.0, r5=0.0, system=S5)
    res = sweep_crossings(rp, "r3", (-1.0, 1.0), samples=201)
    assert len(res.bifurcation_values) >= 1


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep_crossings(_rp(), "r9", (-1.0, 1.0))
    with pytest.raises(ValueError):
        sweep_crossings(_rp(), "bz", (1.0, -1.0))
    with pytest.raises(ValueError):
        sweep_crossings(_rp(), "bz", (-1.0, 1.0), samples=1)


@pytest.mark.parametrize("refine_to", [0.0, -1.0, float("nan"), 1e-20])
def test_sweep_rejects_unusable_refine_to(refine_to):
    # zero, negative and tiny tolerances would bisect forever (below
    # 2**-52 of a step float64 cannot split the edge fraction); nan
    # would silently refine to half a step
    with pytest.raises(ValueError, match="refine_to"):
        sweep_crossings(_rp(r1=2.0), "bz", (-1.0, 1.0), samples=51, refine_to=refine_to)


def test_plane_spec_validation():
    with pytest.raises(ValueError):
        PlaneSpec("bz", "bz", (-1, 1), (0, 3), 32, _rp())
    with pytest.raises(ValueError):
        PlaneSpec("bz", "bx", (1, -1), (0, 3), 32, _rp())
    with pytest.raises(ValueError):
        PlaneSpec("bz", "bx", (-1, 1), (0, 3), 8, _rp())
    spec = PlaneSpec("bz", "bx", (-1, 1), (0, 3), (20, 30), _rp())
    assert spec.shape == (20, 30)
    ax1, ax2 = spec.axes()
    assert ax1.size == 20 and ax2.size == 30
    assert ax1[0] == -1.0 and ax1[-1] == 1.0


def test_plane_curves_land_inside_window_and_match_sweep():
    plane = PlaneSpec(
        axis1="bz", axis2="bx",
        range1=(-0.8, 0.8), range2=(1.6, 2.4),
        resolution=(24, 16), fixed=_rp(),
    )
    result = classify_cell_edges(plane)

    bif = result.points("bifurcation")
    mx = result.points("maxwell_minima")
    assert bif.shape[0] > 0
    assert mx.shape[0] > 0
    for pts in (bif, mx):
        assert np.all(pts[:, 0] >= -0.8) and np.all(pts[:, 0] <= 0.8)
        assert np.all(pts[:, 1] >= 1.6) and np.all(pts[:, 1] <= 2.4)

    # the plane's curves at bx = 2.0 should agree with a 1d sweep there
    ref = sweep_crossings(_rp(r1=2.0), "bz", (-0.8, 0.8))
    row = bif[np.abs(bif[:, 1] - 2.0) < 0.06]
    assert row.shape[0] > 0
    for target in ref.bifurcation_values:
        assert np.min(np.abs(row[:, 0] - target)) < 0.08

    row_mx = mx[np.abs(mx[:, 1] - 2.0) < 0.06]
    assert row_mx.shape[0] > 0
    assert np.min(np.abs(row_mx[:, 0] - ref.maxwell_values[0])) < 0.08


def test_plane_polylines_are_chains():
    plane = PlaneSpec(
        axis1="bz", axis2="bx",
        range1=(-0.8, 0.8), range2=(1.6, 2.4),
        resolution=(20, 16), fixed=_rp(),
    )
    result = classify_cell_edges(plane)
    cell1 = 1.6 / 19
    cell2 = 0.8 / 15
    step = 2.0 * np.hypot(cell1, cell2)
    for lines in (result.bifurcation, result.maxwell_minima):
        assert lines, "expected at least one polyline"
        for line in lines:
            assert line.ndim == 2 and line.shape[1] == 2
            assert line.shape[0] >= 1
            if line.shape[0] > 1:
                gaps = np.hypot(np.diff(line[:, 0]), np.diff(line[:, 1]))
                assert np.max(gaps) <= step + 1e-12


def test_points_empty_kind():
    plane = PlaneSpec(
        axis1="bz", axis2="bx",
        range1=(-0.5, 0.5), range2=(0.1, 0.5),
        resolution=16, fixed=ReducedParams(0, 0, 0.5, 0, 0, S5),
    )
    result = classify_cell_edges(plane)
    assert result.points("bifurcation").shape == (0, 2)
    assert result.points("maxwell_minima").shape == (0, 2)


# ---------------------------------------------------------------------------
# Edge refinement. One refiner, _refine, locates every kind of event. The
# bisections it replaced are kept here as the references it is compared
# against: on Maxwell edges it must agree with the bisection on the gap,
# on count-change and tracking-failure edges it must be that bisection.

_sep = importlib.import_module("spinscape.separatrix")
_TOL_DV = 1e-10
_COUNTS = (2, 2)
_THETAS = (0.5, 2.5)


def _bisect_maxwell(feature_at, ref_pair, ref_counts, which, d_lo, tol_t, tol_dv):
    lo, hi = 0.0, 1.0
    ref = ref_pair
    positive = d_lo > 0.0
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        fm = feature_at(mid)
        pair = getattr(fm, which)
        matched = None
        if not fm.degenerate and fm.counts == ref_counts and pair is not None:
            matched = _sep._match(ref, pair)
        if matched is None:
            hi = mid
            continue
        dvm = _sep._delta(matched)
        if abs(dvm) <= tol_dv:
            return mid
        if (dvm > 0.0) == positive:
            lo = mid
            ref = matched
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine_count_change(feature_at, ref_counts, tol_t):
    lo, hi = 0.0, 1.0
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        fm = feature_at(mid)
        if not fm.degenerate and fm.counts == ref_counts:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine_tracking_failure(feature_at, ref_counts, ref_pair, which, tol_t):
    lo, hi = 0.0, 1.0
    ref = ref_pair
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        fm = feature_at(mid)
        pair = getattr(fm, which)
        matched = None
        if not fm.degenerate and fm.counts == ref_counts and pair is not None:
            matched = _sep._match(ref, pair)
        if matched is not None:
            lo = mid
            ref = matched
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _random_edges(draws):
    """Seeded random edges along r1 or r2: (params, pair kind, feature_at)."""
    rng = np.random.default_rng(20240611)
    for _ in range(draws):
        rp = ReducedParams(
            r1=float(rng.uniform(-2.0, 2.0)), r2=0.0, r3=float(rng.uniform(-1.0, -0.2)),
            r4=float(rng.normal() * 1e-3), r5=float(rng.normal() * 0.05),
            system=SpinSystem(int(rng.choice([4, 10, 20]))),
        )
        axis = str(rng.choice(["r1", "r2"]))
        which = str(rng.choice(["min_pair", "max_pair"]))
        a, b = sorted(float(v) for v in rng.uniform(-1.0, 1.0, 2))

        def feature_at(t, rp=rp, axis=axis, a=a, b=b):
            return _sep._feature(_sep._with_value(rp, axis, a + t * (b - a)))

        yield rp, which, feature_at


def _pair(gap, shift=0.0):
    return (
        CriticalPoint(_THETAS[0] + shift, gap, "minimum", 1.0),
        CriticalPoint(_THETAS[1] + shift, 0.0, "minimum", 1.0),
    )


class _ScriptedEdge:
    """An edge whose tracked minima pair has the gap gap(t).

    Where gap(t) is None both wells jump by 1 rad, more than MATCH_TOL,
    so tracking breaks there. Every probe is recorded.
    """

    def __init__(self, gap):
        self.gap = gap
        self.probes = []

    def feature_at(self, t):
        self.probes.append(t)
        d = self.gap(t)
        pair = _pair(0.0, shift=1.0) if d is None else _pair(d)
        return _sep._Feature(False, _COUNTS, pair, None)

    def refine(self):
        d_lo, d_hi = self.gap(0.0), self.gap(1.0)
        gap_at = _sep._tracked_gap(self.feature_at, _COUNTS, _pair(d_lo), "min_pair", _sep._delta)
        return _sep._refine(gap_at, d_lo, d_hi, MAXWELL_REFINE, _TOL_DV)

    def replay(self):
        """Check each probe against the bracket the probes before it left.

        A probe must lie strictly inside the bracket, and after a probe
        that lost tracking it must be the midpoint until a tracked
        probe beyond the zero gives the far end a gap again.
        """
        d_lo = self.gap(0.0)
        lo, hi, hi_known = 0.0, 1.0, True
        for t in self.probes:
            assert lo < t < hi
            if not hi_known:
                assert t == 0.5 * (lo + hi)
            d = self.gap(t)
            if d is None:
                hi, hi_known = t, False
            elif (d > 0.0) == (d_lo > 0.0):
                lo = t
            else:
                hi, hi_known = t, True


@pytest.mark.parametrize("slope, root", [(3.0, 0.37), (-0.02, 0.5), (250.0, 0.001), (7.0, 0.9999)])
def test_maxwell_secant_on_linear_gap_takes_few_probes(slope, root):
    edge = _ScriptedEdge(lambda t: slope * (t - root))
    t = edge.refine()
    edge.replay()
    assert len(edge.probes) <= 3
    assert abs(edge.gap(t)) <= _TOL_DV


@pytest.mark.parametrize(
    "gap, root",
    [
        (lambda t: t**9 - 0.2, 0.2 ** (1.0 / 9.0)),
        (lambda t: math.expm1(25.0 * (t - 0.9)), 0.9),
        (lambda t: math.tanh(60.0 * (t - 0.3)), 0.3),
        (lambda t: (t - 0.3) ** 3, 0.3),
        (lambda t: 1.0 / (t + 1e-3) - 50.0, 1.0 / 50.0 - 1e-3),
        # the far node's gap is so small that the secant zero rounds to 1
        (lambda t: (t - 1.0) + 1e-20, 1.0),
    ],
)
def test_maxwell_secant_on_hard_gap_meets_stopping_rule(gap, root):
    edge = _ScriptedEdge(gap)
    t = edge.refine()
    edge.replay()
    assert abs(gap(t)) <= _TOL_DV or abs(t - root) <= MAXWELL_REFINE
    # no more than the 27 the bisection needs to reach MAXWELL_REFINE
    assert len(edge.probes) <= 27


@pytest.mark.parametrize("offset", [0.0, -5.0])
def test_maxwell_refiner_bisects_after_tracking_loss(offset):
    # Tracking holds up to t = 0.6 and on the far node only; the far
    # node's gap (+1) lies off the line through the tracked part, so a
    # secant through it after the loss would probe off the midpoint.
    # offset 0 puts the zero at 0.55; offset -5 keeps the tracked gap
    # negative, so the sign change sits where tracking breaks.
    def gap(t):
        if 0.6 < t < 1.0:
            return None
        return 1.0 if t == 1.0 else 20.0 * (t - 0.55) + offset

    edge = _ScriptedEdge(gap)
    t = edge.refine()
    edge.replay()
    assert any(gap(p) is None for p in edge.probes)
    if offset == 0.0:
        assert abs(gap(t)) <= _TOL_DV or abs(t - 0.55) <= MAXWELL_REFINE
    else:
        assert abs(t - 0.6) <= MAXWELL_REFINE


def test_maxwell_secant_agrees_with_bisection_on_random_edges():
    cases = 0
    for rp, which, feature_at in _random_edges(200):
        fa, fb = feature_at(0.0), feature_at(1.0)
        pa, pb = getattr(fa, which), getattr(fb, which)
        if fa.degenerate or fb.degenerate or fa.counts != fb.counts or pa is None or pb is None:
            continue
        matched = _sep._match(pa, pb)
        if matched is None:
            continue
        d_lo, d_hi = _sep._delta(pa), _sep._delta(matched)
        if d_lo == 0.0 or d_hi == 0.0 or (d_lo > 0.0) == (d_hi > 0.0):
            continue
        cases += 1
        tol_dv = 1e-10 * parameter_scale(rp)
        gap_at = _sep._tracked_gap(feature_at, fa.counts, pa, which, _sep._delta)
        t_new = _sep._refine(gap_at, d_lo, d_hi, MAXWELL_REFINE, tol_dv)
        t_ref = _bisect_maxwell(feature_at, pa, fa.counts, which, d_lo, MAXWELL_REFINE, tol_dv)
        if abs(t_new - t_ref) <= MAXWELL_REFINE:
            continue
        # on a nearly flat gap both stop at a different |gap| <= tol_dv
        for t in (t_new, t_ref):
            pair = _sep._match(pa, getattr(feature_at(t), which))
            assert abs(_sep._delta(pair)) <= tol_dv
    assert cases >= 30


def test_bisected_events_equal_the_old_bisections_on_random_edges():
    # an event without a gap (count change, or a well lost with the
    # counts unchanged) makes _refine a plain bisection, so the refined
    # fraction must equal the old bisection's bit for bit
    count_changes = tracking_failures = 0
    for rp, _, feature_at in _random_edges(400):
        fa, fb = feature_at(0.0), feature_at(1.0)
        if fa.degenerate or fb.degenerate:
            continue
        events = _sep._classify_edge(
            feature_at, fa, fb, parameter_scale(rp), BIFURCATION_REFINE, MAXWELL_REFINE
        )
        if fa.counts != fb.counts:
            count_changes += 1
            assert events == [
                ("bifurcation", _refine_count_change(feature_at, fa.counts, BIFURCATION_REFINE))
            ]
            continue
        expected = [
            _refine_tracking_failure(feature_at, fa.counts, getattr(fa, which), which, BIFURCATION_REFINE)
            for which in ("min_pair", "max_pair")
            if getattr(fa, which) is not None and getattr(fb, which) is not None
            and _sep._match(getattr(fa, which), getattr(fb, which)) is None
        ]
        tracking_failures += len(expected)
        assert [t for kind, t in events if kind == "bifurcation"] == expected
    assert count_changes >= 50
    assert tracking_failures >= 30


def _refine_costs(monkeypatch, plane):
    """[d_hi, landscape calls] of every _refine call on the plane."""
    costs = []
    state = {"refining": False}

    def counting_landscape(*args, **kwargs):
        if state["refining"]:
            costs[-1][1] += 1
        return landscape(*args, **kwargs)

    refine = _sep._refine

    def counting_refine(gap_at, d_lo, d_hi, tol_t, tol_dv):
        costs.append([d_hi, 0])
        state["refining"] = True
        try:
            return refine(gap_at, d_lo, d_hi, tol_t, tol_dv)
        finally:
            state["refining"] = False

    monkeypatch.setattr(_sep, "landscape", counting_landscape)
    monkeypatch.setattr(_sep, "_refine", counting_refine)
    classify_cell_edges(plane)
    return costs


_COST_PLANES = [(0.0, (21, 17)), (0.01, (24, 16))]


@pytest.mark.parametrize("r5, resolution", _COST_PLANES)
def test_maxwell_refinement_landscape_calls_per_event(monkeypatch, r5, resolution):
    # r5 = 0 is the acceptance-8 plane; the bisection took ~20 landscape
    # calls per Maxwell event there and ~26 on the r5 = 0.01 plane
    plane = PlaneSpec("bz", "bx", (-0.8, 0.8), (1.6, 2.4), resolution, _rp(r5=r5))
    maxwell = [calls for d_hi, calls in _refine_costs(monkeypatch, plane) if d_hi is not None]
    assert len(maxwell) > 0
    assert sum(maxwell) <= 6 * len(maxwell)


@pytest.mark.parametrize("r5, resolution", _COST_PLANES)
def test_bifurcation_refinement_landscape_calls_per_event(monkeypatch, r5, resolution):
    # a bisection from the whole edge down to BIFURCATION_REFINE = 1e-6
    # halves the bracket 20 times, one landscape call each
    plane = PlaneSpec("bz", "bx", (-0.8, 0.8), (1.6, 2.4), resolution, _rp(r5=r5))
    bifurcation = [calls for d_hi, calls in _refine_costs(monkeypatch, plane) if d_hi is None]
    assert len(bifurcation) > 0
    assert bifurcation == [20] * len(bifurcation)
