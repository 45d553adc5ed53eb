"""Bifurcation and degeneracy curve detection in parameter planes."""

import math

import numpy as np
import pytest

from spinscape import (
    FieldVector,
    PlaneSpec,
    ReducedParams,
    SpinSystem,
    classify_cell_edges,
    lookup,
    parameter_scale,
    reduce_params,
    sweep_crossings,
)
import spinscape.landscape as _ls
import spinscape.separatrix as _sep
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
# Edge refinement. One refiner, _refine_all, locates every event of a plane
# or a sweep, all as arrays. Two generations of reference are kept here.
# The scalar refiner it replaced, _refine, refines one event alone: every
# array-refined value must equal its value bit for bit. The bisections
# that _refine replaced: on Maxwell edges the refiner must agree with the
# bisection on the gap, on count-change and tracking-failure edges it
# must be that bisection.

_TOL_DV = 1e-10
_COUNTS = (2, 2)
_THETAS = (0.5, 2.5)
#: The pair index of the landscape summary for each pair name.
_PAIR = {"min_pair": 0, "max_pair": 1}
#: An edge from 0 to 1 along r1, on which an axis value is its edge
#: fraction t.
_T_EDGE = np.array([[0.0] * 5, [1.0] + [0.0] * 4])


def _refine(gap_of, d_lo, d_hi, tol_t, tol_dv):
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


def _same_counts(counts):
    """1.0 where a probe keeps the stationary counts of t = 0, else None."""

    def gap_of(probe):
        s, i = probe
        return 1.0 if not s.degenerate[i] and (s.counts[i] == counts).all() else None

    return gap_of


def _tracked_gap(counts, theta, value, pair, gap):
    """gap(values) of pair ``pair`` (0 minima, 1 maxima), tracked from
    the angles theta and values value it has at t = 0.

    None where the counts change or the pair no longer matches the
    reference angles. Those move only on probes whose gap keeps the
    sign of t = 0's, so they stay on the near side of the event.
    """
    positive = gap(value) > 0.0

    def gap_of(probe):
        nonlocal theta
        s, i = probe
        if s.degenerate[i] or s.absent[i, pair] or not (s.counts[i] == counts).all():
            return None
        swapped, aligned = _sep._match(theta, s.theta[i, pair])
        if not aligned:
            return None
        step = -1 if swapped else 1
        found = float(gap(s.value[i, pair, ::step]))
        if (found > 0.0) == positive:
            theta = s.theta[i, pair, ::step]
        return found

    return gap_of


def _run(steps, feature_at):
    """Answer each probe t of a refinement with feature_at(t); its result."""
    try:
        t = next(steps)
        while True:
            t = steps.send(feature_at(t))
    except StopIteration as stop:
        return stop.value


def _refined_alone(events, k, rp, tol_bif, tol_mx):
    """The axis value of event k of events, refined alone by _refine.

    Both ends of its edge are summarized anew, one node per call, and
    must give the counts, angles and gaps the event was filed with.
    """
    line, a = events.line[k], int(events.axis[k])
    v_lo, v_hi = float(line[a]), float(events.v_hi[k])

    def node(v):
        row = line.copy()
        row[a] = v
        return _ls._summaries(row[None], rp.system, rp.offset), 0

    def feature_at(t):
        return node(v_lo + t * (v_hi - v_lo))

    (s, _), (far, _) = node(v_lo), node(v_hi)
    counts, pair, kind = s.counts[0], int(events.pair[k]), int(events.kind[k])
    assert (events.counts[k] == counts).all()
    # an event on the degeneracy locus at t = 0 takes no probe
    t = 0.0
    if pair < 0:
        t = _run(_refine(_same_counts(counts), 1.0, None, tol_bif, 0.0), feature_at)
    else:
        theta, value = s.theta[0, pair], s.value[0, pair]
        assert (events.theta[k] == theta).all()
        if kind == 0:
            gap_of = _tracked_gap(counts, theta, value, pair, lambda v: 1.0)
            t = _run(_refine(gap_of, 1.0, None, tol_bif, 0.0), feature_at)
        else:
            swapped, _ = _sep._match(theta, far.theta[0, pair])
            d_lo = float(_sep._delta(value))
            d_hi = float(_sep._delta(far.value[0, pair, ::-1] if swapped else far.value[0, pair]))
            assert (events.d_lo[k], events.d_hi[k]) == (d_lo, d_hi)
            if d_lo != 0.0:
                gap_of = _tracked_gap(counts, theta, value, pair, _sep._delta)
                tol_dv = 1e-10 * parameter_scale(rp)
                t = _run(_refine(gap_of, d_lo, d_hi, tol_mx, tol_dv), feature_at)
    return v_lo + t * (v_hi - v_lo)


def _assert_refined_as_alone(events, values, rp, tol_bif, tol_mx):
    assert len(values) == len(events.kind)
    for k, value in enumerate(values.tolist()):
        assert value == _refined_alone(events, k, rp, tol_bif, tol_mx)


def _recorded_refinement(monkeypatch, run):
    """The events and values of the one _refine_all call that run() makes."""
    calls = []
    refine_all = _sep._refine_all

    def recording(events, system, offset):
        values = refine_all(events, system, offset)
        calls.append((events, values))
        return values

    monkeypatch.setattr(_sep, "_refine_all", recording)
    run()
    ((events, values),) = calls
    return events, values


class _Feature:
    """The summary of one probed node, read back as a refinement reads it."""

    def __init__(self, probe):
        s, i = probe
        self.degenerate = bool(s.degenerate[i])
        self.counts = tuple(s.counts[i].tolist())
        for name, p in _PAIR.items():
            pair = None if s.absent[i, p] else (s.theta[i, p], s.value[i, p])
            setattr(self, name, pair)


def _match(ref, pair):
    """pair aligned onto ref by _sep._match, or None if tracking breaks."""
    swapped, aligned = _sep._match(ref[0], pair[0])
    if not aligned:
        return None
    return (pair[0][::-1], pair[1][::-1]) if swapped else pair


def _delta(pair):
    return float(_sep._delta(pair[1]))


def _bisect_maxwell(feature_at, ref_pair, ref_counts, which, d_lo, tol_t, tol_dv):
    lo, hi = 0.0, 1.0
    ref = ref_pair
    positive = d_lo > 0.0
    while hi - lo > tol_t:
        mid = 0.5 * (lo + hi)
        fm = _Feature(feature_at(mid))
        pair = getattr(fm, which)
        matched = None
        if not fm.degenerate and fm.counts == ref_counts and pair is not None:
            matched = _match(ref, pair)
        if matched is None:
            hi = mid
            continue
        dvm = _delta(matched)
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
        fm = _Feature(feature_at(mid))
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
        fm = _Feature(feature_at(mid))
        pair = getattr(fm, which)
        matched = None
        if not fm.degenerate and fm.counts == ref_counts and pair is not None:
            matched = _match(ref, pair)
        if matched is not None:
            lo = mid
            ref = matched
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _random_edges(draws):
    """Seeded random edges along r1 or r2: (params, pair kind, r, column, feature_at).

    The two rows of the r-array r are the edge's ends, which differ in
    the r-column column only. feature_at(t) is the summary of the node
    at edge fraction t, the probe a refinement is sent there.
    """
    rng = np.random.default_rng(20240611)
    for _ in range(draws):
        rp = ReducedParams(
            r1=float(rng.uniform(-2.0, 2.0)), r2=0.0, r3=float(rng.uniform(-1.0, -0.2)),
            r4=float(rng.normal() * 1e-3), r5=float(rng.normal() * 0.05),
            system=SpinSystem(int(rng.choice([4, 10, 20]))),
        )
        column = _ls._R_NAMES.index(str(rng.choice(["r1", "r2"])))
        which = str(rng.choice(["min_pair", "max_pair"]))
        a, b = sorted(float(v) for v in rng.uniform(-1.0, 1.0, 2))
        r = np.tile(_ls._r_row(rp), (2, 1))
        r[:, column] = a, b

        def feature_at(t, rp=rp, column=column, a=a, b=b):
            row = _ls._r_row(rp)
            row[column] = a + t * (b - a)
            return _ls._summaries(row[None], rp.system, rp.offset), 0

        yield rp, which, r, column, feature_at


def _stack(summaries):
    """One summary of the nodes of several summaries, in order."""
    return _ls._Summary(*(np.concatenate(x) for x in zip(*summaries)))


def _refine_in_t(monkeypatch, events, feature_at):
    """The edge fraction _refine_all gives each event on _T_EDGE, whose
    probe at t is summarized by feature_at(t)."""

    def summaries(r, system, offset):
        return _stack([feature_at(t)[0] for t in r[:, 0].tolist()])

    monkeypatch.setattr(_sep, "_summaries", summaries)
    return _sep._refine_all(events, S5, 0.0).tolist()


def _refine_edge(monkeypatch, fa, fb, feature_at, scale, tol_bif, tol_mx):
    """(kind, t) of every event on the edge between the probes fa and fb."""
    events = _sep._classify_edges(
        _T_EDGE, _stack([fa[0], fb[0]]), np.array([0]), np.array([1]), np.array([0]),
        scale, tol_bif, tol_mx,
    )
    kinds = [_sep.KINDS[c] for c in events.kind.tolist()]
    return list(zip(kinds, _refine_in_t(monkeypatch, events, feature_at)))


def _maxwell_event(pair, counts, theta, d_lo, d_hi, tol_dv):
    """One Maxwell event on _T_EDGE of pair ``pair`` (0 minima, 1 maxima),
    from the angles theta and gap d_lo at t = 0 to the gap d_hi at t = 1."""
    return _sep._Events(
        kind=np.array([pair + 1]), line=_T_EDGE[:1], axis=np.array([0]), v_hi=np.ones(1),
        pair=np.array([pair]), counts=np.array([counts]), theta=np.array([theta]),
        d_lo=np.array([d_lo]), d_hi=np.array([d_hi]),
        tol_t=np.array([MAXWELL_REFINE]), tol_dv=np.array([tol_dv]),
    )


def _pair(gap, shift=0.0):
    return (np.array(_THETAS) + shift, np.array([gap, 0.0]))


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
        theta, value = _pair(0.0, shift=1.0) if d is None else _pair(d)
        summary = _ls._Summary(
            degenerate=np.array([False]), counts=np.array([_COUNTS]),
            theta=np.array([[theta, [0.0, 0.0]]]), value=np.array([[value, [0.0, 0.0]]]),
            absent=np.array([[False, True]]),
        )
        return summary, 0

    def refine(self, monkeypatch):
        d_lo, d_hi = self.gap(0.0), self.gap(1.0)
        event = _maxwell_event(0, _COUNTS, _pair(d_lo)[0], d_lo, d_hi, _TOL_DV)
        (t,) = _refine_in_t(monkeypatch, event, self.feature_at)
        return t

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
def test_maxwell_secant_on_linear_gap_takes_few_probes(monkeypatch, slope, root):
    edge = _ScriptedEdge(lambda t: slope * (t - root))
    t = edge.refine(monkeypatch)
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
def test_maxwell_secant_on_hard_gap_meets_stopping_rule(monkeypatch, gap, root):
    edge = _ScriptedEdge(gap)
    t = edge.refine(monkeypatch)
    edge.replay()
    assert abs(gap(t)) <= _TOL_DV or abs(t - root) <= MAXWELL_REFINE
    # no more than the 27 the bisection needs to reach MAXWELL_REFINE
    assert len(edge.probes) <= 27


@pytest.mark.parametrize("offset", [0.0, -5.0])
def test_maxwell_refiner_bisects_after_tracking_loss(monkeypatch, offset):
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
    t = edge.refine(monkeypatch)
    edge.replay()
    assert any(gap(p) is None for p in edge.probes)
    if offset == 0.0:
        assert abs(gap(t)) <= _TOL_DV or abs(t - 0.55) <= MAXWELL_REFINE
    else:
        assert abs(t - 0.6) <= MAXWELL_REFINE


def test_maxwell_secant_agrees_with_bisection_on_random_edges(monkeypatch):
    cases = 0
    for rp, which, _, _, feature_at in _random_edges(200):
        fa, fb = _Feature(feature_at(0.0)), _Feature(feature_at(1.0))
        pa, pb = getattr(fa, which), getattr(fb, which)
        if fa.degenerate or fb.degenerate or fa.counts != fb.counts or pa is None or pb is None:
            continue
        matched = _match(pa, pb)
        if matched is None:
            continue
        d_lo, d_hi = _delta(pa), _delta(matched)
        if d_lo == 0.0 or d_hi == 0.0 or (d_lo > 0.0) == (d_hi > 0.0):
            continue
        cases += 1
        tol_dv = 1e-10 * parameter_scale(rp)
        event = _maxwell_event(_PAIR[which], fa.counts, pa[0], d_lo, d_hi, tol_dv)
        (t_new,) = _refine_in_t(monkeypatch, event, feature_at)
        t_ref = _bisect_maxwell(feature_at, pa, fa.counts, which, d_lo, MAXWELL_REFINE, tol_dv)
        if abs(t_new - t_ref) <= MAXWELL_REFINE:
            continue
        # on a nearly flat gap both stop at a different |gap| <= tol_dv
        for t in (t_new, t_ref):
            pair = _match(pa, getattr(_Feature(feature_at(t)), which))
            assert abs(_delta(pair)) <= tol_dv
    assert cases >= 30


def test_bisected_events_equal_the_old_bisections_on_random_edges(monkeypatch):
    # an event without a gap (count change, or a well lost with the
    # counts unchanged) makes the refiner a plain bisection, so the
    # refined fraction must equal the old bisection's bit for bit
    count_changes = tracking_failures = 0
    for rp, _, _, _, feature_at in _random_edges(400):
        a, b = feature_at(0.0), feature_at(1.0)
        fa, fb = _Feature(a), _Feature(b)
        if fa.degenerate or fb.degenerate:
            continue
        events = _refine_edge(
            monkeypatch, a, b, feature_at, parameter_scale(rp), BIFURCATION_REFINE, MAXWELL_REFINE
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
            and _match(getattr(fa, which), getattr(fb, which)) is None
        ]
        tracking_failures += len(expected)
        assert [t for kind, t in events if kind == "bifurcation"] == expected
    assert count_changes >= 50
    assert tracking_failures >= 30


def test_array_refinement_equals_the_scalar_reference_on_random_edges():
    events_of_kind = np.zeros(len(_sep.KINDS), dtype=int)
    for rp, _, r, column, _ in _random_edges(200):
        s = _ls._summaries(r, rp.system, rp.offset)
        events = _sep._classify_edges(
            r, s, np.array([0]), np.array([1]), np.array([column]), parameter_scale(rp),
            BIFURCATION_REFINE, MAXWELL_REFINE,
        )
        values = _sep._refine_all(events, rp.system, rp.offset)
        _assert_refined_as_alone(events, values, rp, BIFURCATION_REFINE, MAXWELL_REFINE)
        np.add.at(events_of_kind, events.kind, 1)
    assert (events_of_kind >= 40).all()


def _trigonal_plane(range1, range2, resolution):
    """A (bz, bx) plane of 3-trigonal at zero field elsewhere."""
    c = lookup("3-trigonal")
    fixed = reduce_params(c.system, c.aniso, FieldVector())
    return PlaneSpec("bz", "bx", range1, range2, resolution, fixed)


def _plane_map(resolution=(20, 16)):
    """The benchmark's plane-map plane: 3-trigonal, bz +-0.3, bx +-1.0."""
    return _trigonal_plane((-0.3, 0.3), (-1.0, 1.0), resolution)


_COST_PLANES = [(0.0, (21, 17)), (0.01, (24, 16))]


#: The planes whose events the scalar reference refines one at a time.
_ORACLE_PLANES = {
    **{
        f"acceptance-8-r5={r5}": PlaneSpec("bz", "bx", (-0.8, 0.8), (1.6, 2.4), n, _rp(r5=r5))
        for r5, n in _COST_PLANES
    },
    "plane-map": _plane_map(),
    "readme-window": _trigonal_plane((-1.2, 1.2), (0.2, 3.4), (60, 40)),
}


@pytest.mark.parametrize("name", list(_ORACLE_PLANES))
def test_array_refinement_equals_the_scalar_reference_on_planes(monkeypatch, name):
    plane = _ORACLE_PLANES[name]
    events, values = _recorded_refinement(monkeypatch, lambda: classify_cell_edges(plane))
    assert len(values) > 0
    _assert_refined_as_alone(events, values, plane.fixed, BIFURCATION_REFINE, MAXWELL_REFINE)


def test_array_refinement_equals_the_scalar_reference_on_a_sweep_with_an_on_locus_event(monkeypatch):
    # the easy-plane sweep: its polar maxima swap exactly at the node bz = 0
    rp = ReducedParams(r1=0.0, r2=0.0, r3=0.5, r4=0.0, r5=0.0, system=S5)
    events, values = _recorded_refinement(
        monkeypatch, lambda: sweep_crossings(rp, "bz", (-1.0, 1.0), samples=101)
    )
    assert (events.d_lo == 0.0).any()
    nodes = np.linspace(-1.0, 1.0, 101)
    tol_t = min(0.5, 1e-4 / (nodes[1] - nodes[0]))
    _assert_refined_as_alone(events, values, rp, tol_t, tol_t)


def _refine_costs(monkeypatch, plane):
    """(kind code, probes) of every event on the plane that takes probes,
    and the number of r-array rows of every landscape summary call."""
    batches = []
    summaries = _sep._summaries

    def counting_summaries(r, system, offset):
        batches.append(len(r))
        return summaries(r, system, offset)

    seen = {}
    gaps = _sep._gaps

    def counting_gaps(s, events, k, theta):
        seen["events"] = events
        seen.setdefault("probes", np.zeros(len(events.kind), dtype=int))[k] += 1
        return gaps(s, events, k, theta)

    monkeypatch.setattr(_sep, "_summaries", counting_summaries)
    monkeypatch.setattr(_sep, "_gaps", counting_gaps)
    classify_cell_edges(plane)
    # an event on the degeneracy locus at a node is not refined
    refined = seen["events"].d_lo != 0.0
    costs = zip(seen["events"].kind[refined].tolist(), seen["probes"][refined].tolist())
    return list(costs), batches


@pytest.mark.parametrize("r5, resolution", _COST_PLANES)
def test_maxwell_refinement_landscape_calls_per_event(monkeypatch, r5, resolution):
    # r5 = 0 is the acceptance-8 plane; the bisection took ~20 landscape
    # calls per Maxwell event there and ~26 on the r5 = 0.01 plane
    plane = PlaneSpec("bz", "bx", (-0.8, 0.8), (1.6, 2.4), resolution, _rp(r5=r5))
    costs, _ = _refine_costs(monkeypatch, plane)
    maxwell = [probes for kind, probes in costs if kind != 0]
    assert len(maxwell) > 0
    assert sum(maxwell) <= 6 * len(maxwell)


@pytest.mark.parametrize("r5, resolution", _COST_PLANES)
def test_bifurcation_refinement_landscape_calls_per_event(monkeypatch, r5, resolution):
    # a bisection from the whole edge down to BIFURCATION_REFINE = 1e-6
    # halves the bracket 20 times, one probe each
    plane = PlaneSpec("bz", "bx", (-0.8, 0.8), (1.6, 2.4), resolution, _rp(r5=r5))
    costs, _ = _refine_costs(monkeypatch, plane)
    bifurcation = [probes for kind, probes in costs if kind == 0]
    assert len(bifurcation) > 0
    assert bifurcation == [20] * len(bifurcation)


def test_plane_evaluates_nodes_in_one_call_and_probes_in_rounds(monkeypatch):
    # the acceptance-8 plane: one summary call holds every node, then
    # every refining event probes once per call, so there are as many
    # further calls as the longest refinement takes probes
    plane = PlaneSpec("bz", "bx", (-0.8, 0.8), (1.6, 2.4), (21, 17), _rp(r5=0.0))
    costs, batches = _refine_costs(monkeypatch, plane)
    probes = [n for _, n in costs]
    assert batches[0] == 21 * 17
    assert len(batches) == 1 + max(probes)
    assert sum(batches[1:]) == sum(probes)


def test_plane_map_work_counts(monkeypatch):
    # Nodes and probes travel as r-arrays: no ReducedParams per node or
    # probe, one kernel call for the 320 nodes, then one per lockstep
    # round, whose rows are the probes of that round
    checks = []
    post_init = ReducedParams.__post_init__

    def counting_post_init(self):
        checks.append(self)
        post_init(self)

    kernel_rows = []
    stationary = _ls._stationary

    def counting_stationary(coef, offset, scale):
        kernel_rows.append(len(coef))
        return stationary(coef, offset, scale)

    monkeypatch.setattr(ReducedParams, "__post_init__", counting_post_init)
    monkeypatch.setattr(_ls, "_stationary", counting_stationary)
    per_call = []
    for resolution in ((20, 16), (40, 32)):
        plane = _plane_map(resolution)
        checks.clear()
        classify_cell_edges(plane)
        per_call.append(len(checks))
    assert per_call[0] == per_call[1] <= 1

    kernel_rows.clear()
    costs, _ = _refine_costs(monkeypatch, _plane_map())
    probes = [n for _, n in costs]
    assert kernel_rows[0] == 20 * 16
    assert len(kernel_rows) == 1 + max(probes)
    assert sum(kernel_rows[1:]) == sum(probes)
    assert sum(probes) <= 104  # 36 events at the time of writing


def test_plane_map_certifies_every_interval(monkeypatch):
    # The stationary-point search leaves no floor interval of the
    # plane-map job uncertified, and it evaluates V' and V'' at most 64k
    # times in all; a plain 2048-sample scan of V' took 1,736,704.
    uncertified, evaluations, searching = [], [0], [False]
    stationary, isolate, series = _ls._stationary, _ls._isolate, _ls._series

    def counting_stationary(*args):
        out = stationary(*args)
        uncertified.append(out[-1])
        return out

    def flagging_isolate(*args):
        searching[0] = True
        try:
            return isolate(*args)
        finally:
            searching[0] = False

    def counting_series(coef, trig):
        out = series(coef, trig)
        if searching[0]:
            evaluations[0] += out.size
        return out

    monkeypatch.setattr(_ls, "_stationary", counting_stationary)
    monkeypatch.setattr(_ls, "_isolate", flagging_isolate)
    monkeypatch.setattr(_ls, "_series", counting_series)
    classify_cell_edges(_plane_map())
    assert uncertified and not any(uncertified)
    assert evaluations[0] <= 64_000  # 56,388 at the time of writing
