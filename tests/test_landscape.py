"""Coherent-state energy surfaces and the reduced in-plane potential."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from spinscape import (
    AnisotropyParams,
    ConvergenceError,
    FieldVector,
    ReducedParams,
    SpinSystem,
    coherent_expectation,
    critical_points,
    landscape,
    lookup,
    parameter_scale,
    potential_angular,
    potential_reduced,
    reduce_params,
)

# ``spinscape.landscape`` is the function; the module holds the private
# Fourier-series helpers the tests and the reference below reuse.
_ls = importlib.import_module("spinscape.landscape")


def _derivative_at(theta, rp, branch, order):
    """order-th theta-derivative of V from the coefficient representation."""
    coef = _ls._coefficients(rp, branch)
    for _ in range(order):
        coef = _ls._derivative(coef)
    return _ls._series(coef, _ls._trig(theta))


def _random_setup(rng, two_s=None):
    sys = SpinSystem(two_s if two_s is not None else int(rng.integers(2, 25)))
    aniso = AnisotropyParams(
        d=rng.normal(), e=rng.normal() * 0.1,
        b40=rng.normal() * 1e-4, b42=rng.normal() * 1e-4,
        b43=rng.normal() * 1e-2, b44=rng.normal() * 1e-4,
    )
    field = FieldVector(bx=rng.normal(), by=rng.normal(), bz=rng.normal())
    return sys, aniso, field


def test_reduction_of_builtin_compound_3():
    c = lookup("3")
    rp = reduce_params(c.system, c.aniso, FieldVector())
    # arithmetic done independently from the table values
    expected_r3 = -0.636 - 0.0446 + (8 * 7 / 16) * (20 * 2.3e-5)
    assert abs(rp.r3 - expected_r3) < 1e-12
    assert abs(rp.r3 - (-0.67899)) < 1e-10
    assert rp.r4 == 35 * 2.3e-5
    assert rp.r5 == 0.0
    assert rp.r1 == 0.0 and rp.r2 == 0.0
    expected_offset = (
        -0.636 / 4 * 5 * 11
        + 0.0446 / 4 * 5 * 9
        + 5 * 9 * 8 * 7 / 64 * 9 * 2.3e-5
    )
    assert abs(rp.offset - expected_offset) < 1e-12


def test_reduction_maps_field_components():
    c = lookup("3-trigonal")
    rp = reduce_params(c.system, c.aniso, FieldVector(bx=1.5, bz=-0.3))
    assert rp.r1 == 1.5
    assert rp.r2 == -0.3
    assert rp.r5 == 0.01


def test_reduction_rejects_out_of_plane_field():
    c = lookup("3")
    with pytest.raises(ValueError):
        reduce_params(c.system, c.aniso, FieldVector(by=0.2))


def test_angular_hand_value():
    # compound 3 at theta = pi/2, phi = 0, zero field, termwise by hand:
    #   d/4 * 45 * cos(pi)            = +7.155
    #   e/2 * 45 * sin^2              = +1.0035
    #   offset d/4 * 5 * 11           = -8.745
    #   315 * b40/8 * (35 - 20 + 9)   = +0.021735
    c = lookup("3")
    v = potential_angular(math.pi / 2, 0.0, c.system, c.aniso)
    assert abs(v - (-0.564765)) < 1e-9


def test_angular_matches_coherent_state_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        sys, aniso, field = _random_setup(rng)
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        a = potential_angular(theta, phi, sys, aniso, field)
        b = coherent_expectation(theta, phi, sys, aniso, field)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(b))


def test_angular_poles_are_phi_independent():
    rng = np.random.default_rng(8)
    sys, aniso, field = _random_setup(rng, two_s=10)
    for theta in (0.0, math.pi):
        vals = [potential_angular(theta, p, sys, aniso, field) for p in (0.0, 1.0, 2.5)]
        assert max(vals) - min(vals) < 1e-12


def test_reduced_equals_angular_on_both_half_planes():
    rng = np.random.default_rng(77)
    thetas = np.linspace(0.0, math.pi, 41)
    for _ in range(15):
        sys = SpinSystem(int(rng.integers(4, 22)))
        aniso = AnisotropyParams(
            d=rng.normal(), e=rng.normal() * 0.1,
            b40=rng.normal() * 1e-4, b42=rng.normal() * 1e-4,
            b43=rng.normal() * 1e-2, b44=rng.normal() * 1e-4,
        )
        field = FieldVector(bx=rng.normal(), bz=rng.normal())
        rp = reduce_params(sys, aniso, field)
        scale = parameter_scale(rp)
        plus = potential_reduced(thetas, rp, branch=1)
        minus = potential_reduced(thetas, rp, branch=-1)
        ref_plus = potential_angular(thetas, 0.0, sys, aniso, field)
        ref_minus = potential_angular(thetas, math.pi, sys, aniso, field)
        assert np.max(np.abs(plus - ref_plus)) < 1e-12 * scale
        assert np.max(np.abs(minus - ref_minus)) < 1e-12 * scale


def test_reduced_symmetries():
    # reflecting theta about the equator is the same as flipping the
    # longitudinal field and the trigonal term together; flipping the
    # branch is the same as flipping the transverse field and the
    # trigonal term together.
    rng = np.random.default_rng(55)
    thetas = np.linspace(0.0, 2.0 * math.pi, 37)
    for _ in range(10):
        sys = SpinSystem(int(rng.integers(4, 22)))
        rp = ReducedParams(
            r1=rng.normal(), r2=rng.normal(), r3=rng.normal(),
            r4=rng.normal() * 1e-3, r5=rng.normal() * 1e-2, system=sys,
        )
        mirrored = ReducedParams(
            r1=rp.r1, r2=-rp.r2, r3=rp.r3, r4=rp.r4, r5=-rp.r5, system=sys,
        )
        swapped = ReducedParams(
            r1=-rp.r1, r2=rp.r2, r3=rp.r3, r4=rp.r4, r5=-rp.r5, system=sys,
        )
        scale = parameter_scale(rp)
        a = potential_reduced(math.pi - thetas, rp, branch=1)
        b = potential_reduced(thetas, mirrored, branch=1)
        assert np.max(np.abs(a - b)) < 1e-12 * scale
        c = potential_reduced(thetas, rp, branch=-1)
        d = potential_reduced(thetas, swapped, branch=1)
        assert np.max(np.abs(c - d)) < 1e-12 * scale


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(20):
        sys = SpinSystem(int(rng.integers(4, 22)))
        rp = ReducedParams(
            r1=rng.normal(), r2=rng.normal(), r3=rng.normal(),
            r4=rng.normal() * 1e-3, r5=rng.normal() * 1e-2, system=sys,
        )
        branch = 1 if rng.uniform() < 0.5 else -1
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        scale = parameter_scale(rp)
        fd1 = (
            potential_reduced(theta + h, rp, branch)
            - potential_reduced(theta - h, rp, branch)
        ) / (2.0 * h)
        d1 = _derivative_at(theta, rp, branch, 1)
        assert abs(fd1 - d1) < 1e-6 * scale
        fd2 = (
            potential_reduced(theta + h, rp, branch)
            - 2.0 * potential_reduced(theta, rp, branch)
            + potential_reduced(theta - h, rp, branch)
        ) / h**2
        d2 = _derivative_at(theta, rp, branch, 2)
        assert abs(fd2 - d2) < 1e-4 * scale


def test_critical_values_match_array_potential():
    # critical values come from the scalar series at the polished angle;
    # potential_reduced evaluates the same coefficients on an array basis
    rng = np.random.default_rng(606)
    for two_s in (4, 10, 20, 60):
        for _ in range(25):
            rp = ReducedParams(
                r1=rng.normal(), r2=rng.normal(), r3=rng.normal(),
                r4=rng.normal() * 1e-2, r5=rng.normal() * 1e-2,
                system=SpinSystem(two_s), offset=rng.normal() * two_s,
            )
            tol = 1e-12 * parameter_scale(rp)
            points = landscape(rp).points
            assert points
            for p in points:
                # landscape mirrors the phi = pi branch onto (pi, 2*pi)
                if math.pi + _ls._POLE_TOL < p.theta < 2.0 * math.pi - _ls._POLE_TOL:
                    value = potential_reduced(2.0 * math.pi - p.theta, rp, -1)
                else:
                    value = potential_reduced(p.theta, rp, 1)
                assert abs(p.value - value) <= tol


def test_critical_points_pure_quadratic():
    rp = ReducedParams(r1=0.0, r2=0.0, r3=-1.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    pts = critical_points(rp, branch=1)
    assert len(pts) == 4
    thetas = sorted(p.theta for p in pts)
    for found, want in zip(thetas, [0.0, math.pi / 2, math.pi, 1.5 * math.pi]):
        assert abs(found - want) < 1e-9
    kinds = {round(p.theta, 6): p.kind for p in pts}
    assert kinds[0.0] == "minimum"
    assert kinds[round(math.pi / 2, 6)] == "maximum"
    for p in pts:
        assert abs(_derivative_at(p.theta, rp, 1, 1)) < 1e-9
        if p.kind == "minimum":
            assert p.second_derivative > 0.0
        elif p.kind == "maximum":
            assert p.second_derivative < 0.0


def test_landscape_merges_branches():
    rp = ReducedParams(r1=0.0, r2=0.0, r3=-1.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    report = landscape(rp)
    assert report.n_minima == 2
    assert report.n_maxima == 2
    assert report.tie  # the two polar wells are exactly degenerate
    assert not report.degenerate
    assert len(report.minima()) == 2
    thetas = sorted(p.theta for p in report.points)
    assert all(0.0 <= t < 2.0 * math.pi for t in thetas)


def test_landscape_longitudinal_field_breaks_tie():
    rp = ReducedParams(r1=0.0, r2=0.1, r3=-1.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    report = landscape(rp)
    assert report.n_minima == 2
    assert not report.tie
    # Zeeman term is -zee r2 cos(theta), so bz > 0 favors theta = 0
    assert abs(report.global_minimum.theta) < 1e-6


def test_landscape_flat_potential_degenerate():
    rp = ReducedParams(r1=0.0, r2=0.0, r3=0.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    report = landscape(rp)
    assert report.degenerate
    assert report.points == ()
    assert report.global_minimum is None


def test_landscape_strong_field_single_well():
    # transverse field far beyond the bifurcation leaves one minimum
    rp = ReducedParams(r1=8.0, r2=0.0, r3=-0.679, r4=0.00076, r5=0.0, system=SpinSystem(10))
    report = landscape(rp)
    assert report.n_minima == 1
    assert report.n_maxima == 1
    assert not report.tie


def test_trigonal_term_breaks_zero_field_degeneracy():
    # at zero field the polar wells are exactly degenerate even with
    # the trigonal term on, but a transverse field lifts the tie: that
    # is why the degeneracy line bends away from r2 = 0.
    rp0 = ReducedParams(r1=0.0, r2=0.0, r3=-0.679, r4=0.00076, r5=0.01, system=SpinSystem(10))
    report0 = landscape(rp0)
    assert report0.n_minima == 2
    assert report0.tie

    rp1 = ReducedParams(r1=1.0, r2=0.0, r3=-0.679, r4=0.00076, r5=0.01, system=SpinSystem(10))
    report1 = landscape(rp1)
    assert report1.n_minima == 2
    assert not report1.tie


def test_reduced_params_validation():
    with pytest.raises(ValueError):
        ReducedParams(r1=float("nan"), r2=0, r3=0, r4=0, r5=0, system=SpinSystem(10))
    with pytest.raises(ValueError):
        ReducedParams(r1=0, r2=0, r3=0, r4=0, r5=0, system="not a system")  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        potential_reduced(0.5, ReducedParams(0, 0, -1, 0, 0, SpinSystem(10)), branch=2)


def test_parameter_scale_floor():
    rp = ReducedParams(0, 0, -1e-8, 0, 0, SpinSystem(10))
    assert parameter_scale(rp) == 25.0  # floor of 1 kelvin times S^2


# Reference kernel: the per-sample bracket loop and the "two full
# branches, then merge" landscape that the vectorised, owned-only scan
# replaced. Kept as an oracle the way coherent_expectation is kept; it
# is built on the same Fourier-series primitives, so results must agree
# with ==.


def _reference_critical_points(rp, branch):
    samples = _ls.SCAN_SAMPLES
    scale = parameter_scale(rp)
    tol_root = 1e-12 * scale
    tol_flat = 1e-9 * scale

    thetas = _ls._SCAN_THETAS
    coef = _ls._coefficients(rp, branch)
    c1 = _ls._derivative(coef)
    c2 = _ls._derivative(c1)
    d1 = _ls._SCAN_BASIS @ c1

    if float(np.max(np.abs(d1))) <= 1e-12 * scale:
        return []

    two_pi = 2.0 * math.pi
    roots = []
    for i in range(samples):
        a = d1[i]
        if a == 0.0:
            roots.append(float(thetas[i]))
            continue
        j = i + 1
        hi = float(thetas[j]) if j < samples else two_pi
        bb = d1[j] if j < samples else d1[0]
        if bb == 0.0:
            continue  # the node itself is appended on its own turn
        if (a > 0.0) != (bb > 0.0):
            roots.append(_ls._polish_root(float(thetas[i]), hi, c1, c2, tol_root))

    roots = [r % two_pi for r in roots]
    roots.sort()
    merged = []
    for r in roots:
        if merged and r - merged[-1] < _ls.MERGE_TOL:
            continue
        merged.append(r)
    if len(merged) > 1 and (two_pi - merged[-1] + merged[0]) < _ls.MERGE_TOL:
        merged.pop()

    points = []
    for r in merged:
        trig = _ls._trig(r)
        curvature = _ls._series(c2, trig)
        if curvature > tol_flat:
            kind = "minimum"
        elif curvature < -tol_flat:
            kind = "maximum"
        else:
            kind = "inflection"
        value = rp.offset + _ls._series(coef, trig)
        points.append(_ls.CriticalPoint(theta=r, value=value, kind=kind, second_derivative=curvature))
    return points


def _reference_landscape(rp, plus, minus):
    """Merge both full-circle branch scans of rp into one report."""
    if not plus and not minus:
        return _ls.LandscapeReport(
            points=(), n_minima=0, n_maxima=0, global_minimum=None, tie=False, degenerate=True,
        )
    two_pi = 2.0 * math.pi
    pole = _ls._POLE_TOL
    merged = [p for p in plus if p.theta <= math.pi + pole or p.theta >= two_pi - pole]
    merged += [replace(q, theta=two_pi - q.theta) for q in minus if pole < q.theta < math.pi - pole]
    merged.sort(key=lambda p: p.theta % two_pi)
    minima = [p for p in merged if p.kind == "minimum"]
    maxima = [p for p in merged if p.kind == "maximum"]
    global_minimum = None
    tie = False
    if minima:
        global_minimum = min(minima, key=lambda p: p.value)
        tie_tol = _ls._TIE_FACTOR * parameter_scale(rp)
        tie = sum(1 for p in minima if p.value - global_minimum.value <= tie_tol) >= 2
    return _ls.LandscapeReport(
        points=tuple(merged), n_minima=len(minima), n_maxima=len(maxima),
        global_minimum=global_minimum, tie=tie, degenerate=False,
    )


def _assert_matches_reference(rp):
    plus, minus = (_reference_critical_points(rp, branch) for branch in (1, -1))
    assert critical_points(rp, 1) == plus
    assert critical_points(rp, -1) == minus
    assert landscape(rp) == _reference_landscape(rp, plus, minus)


def test_scan_matches_reference_loop_on_random_params():
    rng = np.random.default_rng(1234)
    for two_s in (4, 10, 20, 60):
        for _ in range(80):
            on = rng.uniform(size=5) < 0.8  # switch terms off so special cases show up
            rp = ReducedParams(
                r1=rng.normal() * on[0], r2=rng.normal() * on[1], r3=rng.normal() * on[2],
                r4=rng.normal() * 1e-2 * on[3], r5=rng.normal() * 1e-2 * on[4],
                system=SpinSystem(two_s),
            )
            _assert_matches_reference(rp)


@pytest.mark.parametrize("r3, r4, node", [
    # pure quadratic: V' vanishes exactly at the theta = 0 sample
    (-1.0, 0.0, 0.0),
    # -2 quad r3 = -8 quart r4 exactly, so V' = c (2 sin 2t + sin 4t)
    # vanishes exactly at the pi/2 sample and is positive on the sample
    # before it: the bracket ending on that node must be skipped
    (-7.0 / 32.0, -1.0 / 64.0, math.pi / 2.0),
])
def test_scan_root_on_a_sample_node(r3, r4, node):
    rp = ReducedParams(r1=0.0, r2=0.0, r3=r3, r4=r4, r5=0.0, system=SpinSystem(10))
    assert any(p.theta == node for p in critical_points(rp, 1))
    _assert_matches_reference(rp)


@pytest.mark.parametrize("offset", [math.pi / _ls.SCAN_SAMPLES, 0.5 * _ls._POLE_TOL])
def test_scan_root_in_the_wraparound_bracket(offset):
    # V' = zee (r2 sin + r1 cos) vanishes at 2*pi - atan(r1 / r2), inside
    # the bracket [thetas[-1], 2*pi): half a sample before 2*pi, or so
    # close to it that only the phi = 0 branch keeps the root
    rp = ReducedParams(
        r1=math.tan(offset), r2=1.0, r3=0.0, r4=0.0, r5=0.0, system=SpinSystem(10),
    )
    last = 2.0 * math.pi * (1.0 - 1.0 / _ls.SCAN_SAMPLES)
    assert any(last < p.theta < 2.0 * math.pi for p in critical_points(rp, 1))
    _assert_matches_reference(rp)


def test_scan_flat_potential_matches_reference():
    rp = ReducedParams(r1=0.0, r2=0.0, r3=0.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    assert critical_points(rp, 1) == []
    _assert_matches_reference(rp)


@pytest.mark.parametrize("r3, r4", [(0.5, 0.0), (-0.5, 0.05)])
def test_mirrored_minima_have_bit_equal_values(r3, r4):
    # With r1 = r5 = 0 the potential is even in theta, so the two
    # branches give mirror-image minima whose values must tie exactly;
    # test_easy_plane_regime_stays_quiet in test_separatrix.py relies on
    # this. A one-branch kernel evaluates each mirror point separately
    # and breaks the tie in the last bits. For r3 < 0 a large r4 pushes
    # the minima off the poles.
    rp = ReducedParams(r1=0.0, r2=0.2, r3=r3, r4=r4, r5=0.0, system=SpinSystem(10))
    report = landscape(rp)
    minima = {p.theta: p for p in report.minima()}
    upper = [p for p in minima.values() if 0.0 < p.theta < math.pi]
    assert upper and 2 * len(upper) == len(minima)
    for p in upper:
        mirror = minima[2.0 * math.pi - p.theta]
        assert mirror.value == p.value
    assert report.tie


def test_polish_root_raises_when_iterations_run_out():
    # V' = sin(theta) has its root 3*pi inside [9, 9.5], and a negative
    # tolerance rules out the |V'| exit. Above 8 adjacent floats are
    # 1.8e-15 apart, so the bracket closes onto two of them but never
    # gets narrower than the 1e-15 floor.
    sine = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConvergenceError, match="did not converge"):
        _ls._polish_root(9.0, 9.5, sine, _ls._derivative(sine), -1.0)


def _alternate(points):
    """Minima and maxima alternate around the circle, wrap-around included."""
    kinds = [p.kind for p in points]
    return all(k != kinds[i - 1] for i, k in enumerate(kinds))


def test_stationary_kinds_alternate_on_random_params():
    # A smooth periodic V has its minima and maxima in alternation around
    # the circle, as many of each; only an inflection breaks the pattern.
    rng = np.random.default_rng(2024)
    widths = np.array([2.0, 2.0, 1.0, 0.05, 0.05])
    checked = 0
    for _ in range(500):
        r = rng.normal(size=5) * widths
        rp = ReducedParams(*r.tolist(), system=SpinSystem(int(rng.choice([4, 10, 19, 20, 60]))))
        report = landscape(rp)
        for points in (report.points, critical_points(rp, 1), critical_points(rp, -1)):
            if any(p.kind == "inflection" for p in points):
                continue
            assert _alternate(points), rp
            checked += 1
        if not any(p.kind == "inflection" for p in report.points):
            assert report.n_minima == report.n_maxima, rp
    assert checked > 1400
