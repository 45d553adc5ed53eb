"""Coherent-state energy surfaces and the reduced in-plane potential."""

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
    landscapes,
    lookup,
    parameter_scale,
    potential_angular,
    potential_reduced,
    reduce_params,
)
import spinscape.landscape as _ls


def _trig(theta):
    """The basis (cos k theta, sin k theta), k = 1, 2, 4, at one angle, from math."""
    return (
        math.cos(theta), math.sin(theta),
        math.cos(2.0 * theta), math.sin(2.0 * theta),
        math.cos(4.0 * theta), math.sin(4.0 * theta),
    )


def _series(coef, trig):
    """The Fourier series with coefficients coef at the angle of ``_trig``."""
    a1, b1, a2, b2, a4, b4 = coef
    c1, s1, c2, s2, c4, s4 = trig
    return a1 * c1 + b1 * s1 + a2 * c2 + b2 * s2 + a4 * c4 + b4 * s4


def _derivative(coef):
    return tuple(_ls._derivative(coef).tolist())


def _coefficients(rp, branch):
    """The six Fourier coefficients of V on one branch, as floats."""
    coef = _ls._coefficients(_ls._r_row(rp)[None], rp.system)
    return tuple(coef[0, _ls._branch_index(branch)].tolist())


def _on_branch(theta):
    """The branch and branch angle of a report point at theta on the circle.

    A report mirrors the phi = pi branch onto (pi, 2*pi); the phi = 0
    branch owns the rest, the poles included.
    """
    if math.pi + _ls._POLE_TOL < theta < 2.0 * math.pi - _ls._POLE_TOL:
        return -1, 2.0 * math.pi - theta
    return 1, theta


def _derivative_at(theta, rp, branch, order):
    """order-th theta-derivative of V from the coefficient representation."""
    coef = _coefficients(rp, branch)
    for _ in range(order):
        coef = _derivative(coef)
    return _series(coef, _trig(theta))


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
    # critical values come from the series at the polished angle;
    # potential_reduced evaluates the same coefficients on an array basis
    rng = np.random.default_rng(606)
    rps = [
        ReducedParams(
            r1=rng.normal(), r2=rng.normal(), r3=rng.normal(),
            r4=rng.normal() * 1e-2, r5=rng.normal() * 1e-2,
            system=SpinSystem(two_s), offset=rng.normal() * two_s,
        )
        for two_s in (4, 10, 20, 60) for _ in range(25)
    ]
    for rp, report in zip(rps, landscapes(rps)):
        tol = 1e-12 * parameter_scale(rp)
        assert report.points
        for p in report.points:
            branch, theta = _on_branch(p.theta)
            assert abs(p.value - potential_reduced(theta, rp, branch)) <= tol


def test_critical_values_equal_the_potential_bit_for_bit():
    # the kernel and potential_reduced add the same series the same way,
    # so a phi = 0 point's value is the potential at its theta exactly
    compound = lookup("3-trigonal")
    rps = [
        reduce_params(compound.system, compound.aniso, FieldVector(bx=float(bx), bz=float(bz)))
        for bx in np.linspace(0.0, 3.0, 13) for bz in np.linspace(-0.5, 0.5, 9)
    ]
    values = [
        (p.value, potential_reduced(p.theta, rp, 1))
        for rp, report in zip(rps, landscapes(rps))
        for p in report.points if p.theta <= math.pi
    ]
    assert len(values) == 126
    assert [a for a, b in values if a != b] == []


def test_critical_points_pure_quadratic():
    # the phi = 0 branch gives 0, pi/2 and pi, the phi = pi branch's
    # maximum at pi/2 is mirrored onto 3*pi/2
    rp = ReducedParams(r1=0.0, r2=0.0, r3=-1.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    pts = landscapes([rp])[0].points
    assert len(pts) == 4
    thetas = [p.theta for p in pts]
    for found, want in zip(thetas, [0.0, math.pi / 2, math.pi, 1.5 * math.pi]):
        assert abs(found - want) < 1e-9
    assert [p.kind for p in pts] == ["minimum", "maximum", "minimum", "maximum"]
    for p in pts:
        branch, theta = _on_branch(p.theta)
        assert abs(_derivative_at(theta, rp, branch, 1)) < 1e-9
        if p.kind == "minimum":
            assert p.second_derivative > 0.0
        elif p.kind == "maximum":
            assert p.second_derivative < 0.0


def test_landscape_merges_branches():
    rp = ReducedParams(r1=0.0, r2=0.0, r3=-1.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    report = landscapes([rp])[0]
    assert report.n_minima == 2
    assert report.n_maxima == 2
    assert report.tie  # the two polar wells are exactly degenerate
    assert not report.degenerate
    assert len(report.minima()) == 2
    thetas = sorted(p.theta for p in report.points)
    assert all(0.0 <= t < 2.0 * math.pi for t in thetas)


def test_landscape_longitudinal_field_breaks_tie():
    rp = ReducedParams(r1=0.0, r2=0.1, r3=-1.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    report = landscapes([rp])[0]
    assert report.n_minima == 2
    assert not report.tie
    # Zeeman term is -zee r2 cos(theta), so bz > 0 favors theta = 0
    assert abs(report.global_minimum.theta) < 1e-6


def test_landscape_flat_potential_degenerate():
    rp = ReducedParams(r1=0.0, r2=0.0, r3=0.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    report = landscapes([rp])[0]
    assert report.degenerate
    assert report.points == ()
    assert report.global_minimum is None


def test_landscape_strong_field_single_well():
    # transverse field far beyond the bifurcation leaves one minimum
    rp = ReducedParams(r1=8.0, r2=0.0, r3=-0.679, r4=0.00076, r5=0.0, system=SpinSystem(10))
    report = landscapes([rp])[0]
    assert report.n_minima == 1
    assert report.n_maxima == 1
    assert not report.tie


def test_trigonal_term_breaks_zero_field_degeneracy():
    # at zero field the polar wells are exactly degenerate even with
    # the trigonal term on, but a transverse field lifts the tie: that
    # is why the degeneracy line bends away from r2 = 0.
    rp0 = ReducedParams(r1=0.0, r2=0.0, r3=-0.679, r4=0.00076, r5=0.01, system=SpinSystem(10))
    report0 = landscapes([rp0])[0]
    assert report0.n_minima == 2
    assert report0.tie

    rp1 = ReducedParams(r1=1.0, r2=0.0, r3=-0.679, r4=0.00076, r5=0.01, system=SpinSystem(10))
    report1 = landscapes([rp1])[0]
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


# Oracle: the roots of V' as eigenvalues of companion matrices, which
# share no sample, bracket or polish with the kernel. With z = exp(i
# theta), c cos k theta + s sin k theta = ((c - i s) z**k + (c + i s)
# z**-k) / 2, so z**K V' is a polynomial of degree 2K in z, K the highest
# harmonic present, and the stationary angles are the arguments of its
# roots on the unit circle.

#: Eigenvalues this close to the unit circle, and to each other in
#: angle, form one cluster: eigvals returns a root of multiplicity m as m
#: eigenvalues about eps**(1/m) apart.
_CLUSTER = 1e-4


def _circle_roots(d1):
    """The angles in [0, 2*pi) where V' changes sign, for each row of d1.

    All rows of one highest harmonic go through one stacked ``eigvals``
    call. A cluster of odd size is one root, at its mean angle; a single
    eigenvalue is then refined by two Newton steps. An even cluster (a
    double root, or a complex pair beside the circle) has no sign change.
    """
    two_pi = 2.0 * math.pi
    harmonic = np.select(
        [np.any(d1[:, j:j + 2] != 0.0, axis=1) for j in (4, 2, 0)], [4, 2, 1], default=0,
    )
    roots = [[] for _ in d1]
    for top in (1, 2, 4):
        rows = np.flatnonzero(harmonic == top)
        if not rows.size:
            continue
        poly = np.zeros((rows.size, 2 * top + 1), dtype=complex)  # poly[:, p] multiplies z**p
        for j, k in enumerate((1, 2, 4)):
            if k <= top:
                c, s = d1[rows, 2 * j], d1[rows, 2 * j + 1]
                poly[:, top + k] += 0.5 * (c - 1j * s)
                poly[:, top - k] += 0.5 * (c + 1j * s)
        n = 2 * top
        companion = np.zeros((rows.size, n, n), dtype=complex)
        companion[:, 1:, :-1] = np.eye(n - 1)
        companion[:, :, -1] = -poly[:, :n] / poly[:, n:]
        for row, z in zip(rows.tolist(), np.linalg.eigvals(companion)):
            theta = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) < _CLUSTER]) % two_pi).tolist()
            clusters = []
            for t in theta:
                if clusters and t - clusters[-1][-1] < _CLUSTER:
                    clusters[-1].append(t)
                else:
                    clusters.append([t])
            if len(clusters) > 1 and clusters[0][0] + two_pi - clusters[-1][-1] < _CLUSTER:
                clusters[0] = [t - two_pi for t in clusters.pop()] + clusters[0]
            coef = tuple(d1[row].tolist())
            slope = _derivative(coef)
            for cluster in clusters:
                if len(cluster) % 2 == 0:
                    continue
                t = sum(cluster) / len(cluster)
                if len(cluster) == 1:
                    for _ in range(2):
                        trig = _trig(t)
                        t -= _series(coef, trig) / _series(slope, trig)
                roots[row].append(t % two_pi)
    return roots


def _oracle_branch_points(rps):
    """The stationary points of both branches of every rp over the whole
    circle, from ``_circle_roots``.

    A branch whose V' coefficients add up to resolution or less is flat
    and has no points, as in the kernel; roots closer than MERGE_TOL are
    one point.
    """
    coefs = [_coefficients(rp, branch) for rp in rps for branch in (1, -1)]
    slopes = [_derivative(coef) for coef in coefs]
    roots = _circle_roots(np.array(slopes).reshape(-1, 6))
    out = []
    for i, (coef, c1, thetas) in enumerate(zip(coefs, slopes, roots)):
        rp = rps[i // 2]
        scale = parameter_scale(rp)
        if sum(abs(c) for c in c1) <= 1e-12 * scale:
            out.append([])
            continue
        c2 = _derivative(c1)
        merged = []
        for t in sorted(thetas):
            if not merged or t - merged[-1] >= _ls.MERGE_TOL:
                merged.append(t)
        if len(merged) > 1 and 2.0 * math.pi - merged[-1] + merged[0] < _ls.MERGE_TOL:
            merged.pop()
        points = []
        for t in merged:
            trig = _trig(t)
            curvature = _series(c2, trig)
            tol_flat = 1e-9 * scale
            kind = "minimum" if curvature > tol_flat else "maximum" if curvature < -tol_flat else "inflection"
            points.append(_ls.CriticalPoint(t, rp.offset + _series(coef, trig), kind, curvature))
        out.append(points)
    return [out[2 * k:2 * k + 2] for k in range(len(rps))]


def _reference_landscape(rp, plus, minus):
    """Merge both full-circle branch point lists of rp into one report."""
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


def _assert_points_close(actual, expected, scale):
    """Same kinds in the same order; each angle within the polish tolerance.

    The polish stops once |V'| <= 1e-12 scale, which leaves a simple root
    up to 1e-12 scale / |V''| away; a multiple root, where V'' vanishes,
    is only fixed to within the oracle's _CLUSTER. Values must agree to
    1e-12 scale, which rounding and those angle errors stay far below.
    """
    def across_the_seam(p):  # a root at 0 may come out just below 2*pi
        return p.theta - 2.0 * math.pi if p.theta > 2.0 * math.pi - 1e-9 else p.theta

    actual, expected = sorted(actual, key=across_the_seam), sorted(expected, key=across_the_seam)
    assert [p.kind for p in actual] == [p.kind for p in expected], (actual, expected)
    for a, e in zip(actual, expected):
        gap = abs(a.theta - e.theta)
        gap = min(gap, 2.0 * math.pi - gap)
        if e.kind == "inflection":
            tol = _CLUSTER
        else:
            tol = 2e-12 * scale / abs(e.second_derivative) + 1e-13
        assert gap <= tol, (a, e)
        assert abs(a.value - e.value) <= 1e-12 * scale, (a, e)


def _assert_matches_oracle(rps):
    """Each merged report, alone and in the batch of all of them, against
    the companion-matrix oracle; the batch must equal the single calls
    exactly."""
    reports = []
    for rp, (plus, minus) in zip(rps, _oracle_branch_points(rps)):
        scale = parameter_scale(rp)
        expected = _reference_landscape(rp, plus, minus)
        report = landscapes([rp])[0]
        assert (report.degenerate, report.n_minima, report.n_maxima, report.tie) == (
            expected.degenerate, expected.n_minima, expected.n_maxima, expected.tie,
        )
        _assert_points_close(report.points, expected.points, scale)
        if expected.global_minimum is not None:
            # mirror-image minima tie exactly, so compare the value only
            assert abs(report.global_minimum.value - expected.global_minimum.value) <= 1e-12 * scale
        reports.append(report)
    assert landscapes(rps) == reports


def test_scan_matches_reference_loop_on_random_params():
    rng = np.random.default_rng(1234)
    rps = []
    for two_s in (4, 10, 20, 60):
        for _ in range(80):
            on = rng.uniform(size=5) < 0.8  # switch terms off so special cases show up
            rps.append(ReducedParams(
                r1=rng.normal() * on[0], r2=rng.normal() * on[1], r3=rng.normal() * on[2],
                r4=rng.normal() * 1e-2 * on[3], r5=rng.normal() * 1e-2 * on[4],
                system=SpinSystem(two_s),
            ))
    _assert_matches_oracle(rps)


@pytest.mark.parametrize("r3, r4, node", [
    # pure quadratic: V' vanishes exactly at the theta = 0 sample
    (-1.0, 0.0, 0.0),
    # -2 quad r3 = -8 quart r4 exactly, so V' = c (2 sin 2t + sin 4t)
    # = 2c sin 2t (1 + cos 2t) vanishes exactly at the pi/2 sample, a
    # triple root, and is positive on the sample before it: the
    # intervals ending on that node are never certified and must be
    # skipped
    (-7.0 / 32.0, -1.0 / 64.0, math.pi / 2.0),
])
def test_scan_root_on_a_sample_node(r3, r4, node):
    rp = ReducedParams(r1=0.0, r2=0.0, r3=r3, r4=r4, r5=0.0, system=SpinSystem(10))
    # the phi = 0 branch owns both nodes
    assert any(p.theta == node for p in landscapes([rp])[0].points)
    _assert_matches_oracle([rp])


@pytest.mark.parametrize("offset", [math.pi / _ls.SCAN_SAMPLES, 0.5 * _ls._POLE_TOL])
def test_scan_root_in_the_wraparound_bracket(offset):
    # On the phi = 0 branch V' = zee (r2 sin + r1 cos) vanishes at 2*pi -
    # atan(r1 / r2), inside the last interval, which wraps to 2*pi. Half a
    # floor width before 2*pi the report takes that point from the phi = pi
    # branch's root at atan(r1 / r2), mirrored; within _POLE_TOL of 2*pi
    # only the phi = 0 branch keeps it, from the wrap bracket.
    rp = ReducedParams(
        r1=math.tan(offset), r2=1.0, r3=0.0, r4=0.0, r5=0.0, system=SpinSystem(10),
    )
    last = 2.0 * math.pi * (1.0 - 1.0 / _ls.SCAN_SAMPLES)
    assert any(last < p.theta < 2.0 * math.pi for p in landscapes([rp])[0].points)
    _assert_matches_oracle([rp])


def test_scan_flat_potential_matches_reference():
    flat = ReducedParams(r1=0.0, r2=0.0, r3=0.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    assert landscapes([flat])[0].points == ()
    # alone, inside a batch of live nodes, and the empty batch
    for rps in ([flat], [replace(flat, r3=-1.0), flat, replace(flat, r2=0.3, r3=0.5)], []):
        _assert_matches_oracle(rps)


def test_zero_at_a_halving_midpoint_is_a_root():
    # V' = sin(m - t) - sin(2 (m - t)) / 2 = sin u (1 - cos u), u = m - t,
    # has a triple root at m, the midpoint of the first coarse interval,
    # and evaluates to 0 there exactly. No certificate settles a triple
    # root, so the interval is halved; the exact zero at m makes the upper
    # half a bracket, and the polish returns its lower end m unchanged.
    m = 0.5 * _ls._COARSE_HI[0]
    coef = np.array([
        math.cos(m), math.sin(m), -0.25 * math.cos(2.0 * m), -0.25 * math.sin(2.0 * m), 0.0, 0.0,
    ])
    # the phi = 0 branch owns m; the phi = pi branch is flat
    coef = np.stack([coef, np.zeros(6)])[None]
    _, _, theta, *_, uncertified = _ls._stationary(coef, np.zeros(1), np.ones(1))
    assert m in theta.tolist()
    assert uncertified > 0


def test_root_free_certificate_bounds_the_third_derivative():
    # On the phi = pi branch V' has a pair at 0.2303 and 0.2601, inside one
    # coarse interval whose ends are -0.518 and -0.536. The chord bound
    # must use |V'''| <= sum k**2 |(c_k, s_k)|: the bound on |V''|, sum k
    # (|c_k| + |s_k|), sags only 0.327 and would clear the interval. The
    # report mirrors the pair onto 2*pi - theta, which reverses its order.
    rp = ReducedParams(0.63643432, -1.54076218, 0.0, -0.00847407, -0.00481884, SpinSystem(20))
    d1 = np.array(_derivative(_coefficients(rp, -1)))
    k = int(0.2303 // (2.0 * math.pi / _ls._COARSE_SAMPLES))
    ends = _ls._series(d1, _ls._COARSE_BASIS[[k, k + 1]])
    width = 2.0 * math.pi / _ls._COARSE_SAMPLES
    second = float(np.sum(np.abs(d1) * np.repeat(_ls._ORDERS, 2)))
    assert np.all(ends < 0.0) and np.min(np.abs(ends)) > second * width ** 2 / 8.0
    report = landscapes([rp])[0]
    mirrored = [p.kind for p in report.points if 2.0 * math.pi - 0.3 < p.theta < 2.0 * math.pi - 0.2]
    assert mirrored == ["maximum", "minimum"]
    assert (report.n_minima, report.n_maxima) == (3, 3)


def test_pair_beside_a_root_on_a_sample_is_found():
    # With r1 = 0, V'(pi) = 0 exactly in real arithmetic, and a maximum
    # sits at 3.14094, within one floor width of pi. A plain 2048-sample
    # scan read V'(pi) as 0, skipped the interval ending there and lost
    # the maximum; a scan with 2**21 samples confirms it.
    rp = ReducedParams(0.0, 0.5679231, 0.0, -0.00079926, -0.01808429, SpinSystem(20))
    report = landscapes([rp])[0]
    assert (report.n_minima, report.n_maxima) == (4, 4)
    near = [p for p in report.points if abs(p.theta - 3.14094) < 1e-4]
    assert [p.kind for p in near] == ["maximum"]


@pytest.mark.parametrize("r3, r4", [(0.5, 0.0), (-0.5, 0.05)])
def test_mirrored_minima_have_bit_equal_values(r3, r4):
    # With r1 = r5 = 0 the potential is even in theta, so the two
    # branches give mirror-image minima whose values must tie exactly;
    # test_easy_plane_regime_stays_quiet in test_separatrix.py relies on
    # this. A one-branch kernel evaluates each mirror point separately
    # and breaks the tie in the last bits. For r3 < 0 a large r4 pushes
    # the minima off the poles.
    rp = ReducedParams(r1=0.0, r2=0.2, r3=r3, r4=r4, r5=0.0, system=SpinSystem(10))
    report = landscapes([rp])[0]
    minima = {p.theta: p for p in report.minima()}
    upper = [p for p in minima.values() if 0.0 < p.theta < math.pi]
    assert upper and 2 * len(upper) == len(minima)
    for p in upper:
        mirror = minima[2.0 * math.pi - p.theta]
        assert mirror.value == p.value
    assert report.tie
    # a stable ranking resolves the tie to the minimum at the lower theta
    tied = [p for p in minima.values() if p.value == report.global_minimum.value]
    assert len(tied) >= 2
    assert report.global_minimum == min(tied, key=lambda p: p.theta)


def _polish(lo, hi, d1, tol):
    """``_ls._polish`` on the brackets [lo, hi] of the series V' with coefficients d1."""
    f_lo = _ls._series(d1, _ls._basis(lo))
    return _ls._polish(lo, hi, f_lo, np.stack((d1, _ls._derivative(d1)), axis=1), tol)


def test_polish_returns_an_exact_zero_at_the_lower_end_unchanged():
    # _isolate brackets an exact zero of V' as the lower end of an
    # interval. V' = sin(theta - t) is exactly 0 at t, where its two
    # products are equal. A negative tolerance rules out the |V'| exit,
    # so a Newton loop could only stop strictly inside a bracket: each t
    # comes back bit for bit only if it took no step.
    lo = np.array([0.7, 2.9])
    sine = np.array([[-math.sin(t), math.cos(t), 0.0, 0.0, 0.0, 0.0] for t in lo.tolist()])
    assert np.all(_ls._series(sine, _ls._basis(lo)) == 0.0)
    roots = _polish(lo, lo + 0.5, sine, np.full(2, -1.0))
    assert roots.tobytes() == lo.tobytes()


def test_polish_root_raises_when_iterations_run_out():
    # V' = sin(theta) has its roots pi, 2*pi and 3*pi inside the three
    # brackets. On the last a negative tolerance rules out the |V'|
    # exit, and above 8 adjacent floats are 1.8e-15 apart, so that
    # bracket closes onto two of them but never gets narrower than the
    # 1e-15 floor; the other two converge in the same batch.
    sine = np.array([[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]] * 3)
    lo, hi = np.array([3.0, 6.0, 9.0]), np.array([3.5, 6.5, 9.5])
    tol = np.array([1e-12, 1e-12, -1.0])
    with pytest.raises(ConvergenceError, match=r"did not converge in \[9\.42"):
        _polish(lo, hi, sine, tol)
    roots = _polish(lo[:2], hi[:2], sine[:2], tol[:2])
    assert np.all(np.abs(roots - [math.pi, 2.0 * math.pi]) < 1e-12)


def test_polish_brackets_leaving_at_different_iterations_keep_their_roots(monkeypatch):
    # V' = sin(theta - t) on four brackets that leave the batch at four
    # different iterations: an exact zero at the lower end (before the
    # first), one Newton step from a midpoint 1e-5 off the root (the
    # second), a midpoint whose Newton step leaves the bracket, so it
    # bisects (the sixth), and a negative tolerance, so only the 1e-15
    # width exit ends it (the 21st). The batch masks the brackets that
    # have left and compacts once half have; every root must equal the
    # one its bracket gets alone, whatever the order of the batch.
    t = np.array([0.7, 1.1, 2.0, 1.3])
    lo = np.array([0.7, 0.6, 1.9, 1.05])
    hi = np.array([1.2, 1.1 + 0.5 + 2e-5, 5.0, 1.8])
    tol = np.array([1e-12, 1e-12, 1e-12, -1.0])
    sine = np.array([[-math.sin(v), math.cos(v), 0.0, 0.0, 0.0, 0.0] for v in t.tolist()])
    assert _ls._series(sine[0], _ls._basis(lo[0])) == 0.0
    mid = 0.5 * (lo[2] + hi[2])
    assert not lo[2] < mid - math.tan(mid - t[2]) < hi[2]  # the first Newton step leaves

    iterations = []
    basis = _ls._basis

    def counting_basis(theta):
        iterations[-1] += 1
        return basis(theta)

    monkeypatch.setattr(_ls, "_basis", counting_basis)
    alone = []
    for i in range(4):
        iterations.append(-1)  # the first call samples the lower ends
        alone.append(_polish(lo[i:i + 1], hi[i:i + 1], sine[i:i + 1], tol[i:i + 1]))
    assert iterations == [0, 2, 6, 21]
    alone = np.concatenate(alone)
    assert np.all(np.abs(alone - t) < 1e-15)
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2, 2, 1, 3, 0]):
        roots = _polish(lo[order], hi[order], sine[order], tol[order])
        assert roots.tobytes() == alone[order].tobytes(), order


def test_array_trig_rounds_like_math():
    # The array polish repeats the scalar polish bit for bit only if
    # np.cos and np.sin round every float64 angle k*theta exactly as
    # math.cos and math.sin do; some vectorised math libraries differ in
    # the last bit.
    # _basis writes them into strided columns of one array, so both
    # layouts are checked.
    theta = np.random.default_rng(314).uniform(0.0, 2.0 * math.pi, 20000)
    trig = _ls._basis(theta)
    for i, k in enumerate((1.0, 2.0, 4.0)):
        x = k * theta
        for j, (array_f, scalar_f) in enumerate(((np.cos, math.cos), (np.sin, math.sin))):
            scalar = np.array([scalar_f(v) for v in x.tolist()])
            assert np.array_equal(trig[:, 2 * i + j], scalar), (array_f.__name__, k)
            differ = np.flatnonzero(array_f(x) != scalar)
            assert differ.size == 0, (
                f"np.{array_f.__name__} differs from math.{scalar_f.__name__} at "
                f"{differ.size} of {x.size} angles {k:g}*theta (first {x[differ[0]]!r}); on this "
                "platform landscapes() cannot match the scalar polish bit for bit"
            )


def _alternate(points):
    """Minima and maxima alternate around the circle, wrap-around included."""
    kinds = [p.kind for p in points]
    return all(k != kinds[i - 1] for i, k in enumerate(kinds))


def test_stationary_kinds_alternate_on_random_params():
    # A smooth periodic V has its minima and maxima in alternation around
    # the circle, as many of each; only an inflection breaks the pattern.
    rng = np.random.default_rng(2024)
    widths = np.array([2.0, 2.0, 1.0, 0.05, 0.05])
    rps = []
    for _ in range(500):
        r = rng.normal(size=5) * widths
        rps.append(ReducedParams(*r.tolist(), system=SpinSystem(int(rng.choice([4, 10, 19, 20, 60])))))
    checked = 0
    for rp, report in zip(rps, landscapes(rps)):
        if any(p.kind == "inflection" for p in report.points):
            continue
        assert _alternate(report.points), rp
        assert report.n_minima == report.n_maxima, rp
        checked += 1
    # one report per set, at the share the bound allowed when it counted
    # three lists per set (1400 of 1500); none of the 500 reports has an
    # inflection at the time of writing
    assert checked > 466


# ---------------------------------------------------------------------------
# The separatrix summary. Planes and sweeps classify their edges from the
# array summary of ``_summaries``; the oracle below computes the same summary
# from a public LandscapeReport, point object by point object.


def _reference_summary(report):
    """(degenerate, counts, minima pair, maxima pair) of one report.

    Each pair is the two lowest minima (highest maxima), taken from the
    theta-ordered points by a stable sort on value, so equal values
    resolve to the lower theta, and then put in theta order.
    """
    if report.degenerate:
        return True, (0, 0), None, None

    def theta_ordered(points):
        if len(points) < 2:
            return None
        a, b = points[:2]
        return (a, b) if a.theta <= b.theta else (b, a)

    minima = sorted(report.minima(), key=lambda p: p.value)
    maxima = sorted(report.maxima(), key=lambda p: -p.value)
    return False, (report.n_minima, report.n_maxima), theta_ordered(minima), theta_ordered(maxima)


def _assert_summaries_match_oracle(rps):
    """``_summaries`` of rps, which share one system and offset, equals the
    oracle on every node; returns the reports."""
    r = np.array([[rp.r1, rp.r2, rp.r3, rp.r4, rp.r5] for rp in rps])
    summary = _ls._summaries(r, rps[0].system, rps[0].offset)
    reports = landscapes(rps)
    for i, report in enumerate(reports):
        degenerate, counts, *pairs = _reference_summary(report)
        assert bool(summary.degenerate[i]) == degenerate
        assert tuple(summary.counts[i].tolist()) == counts
        for p, pair in enumerate(pairs):
            assert bool(summary.absent[i, p]) == (pair is None)
            if pair is not None:
                assert summary.theta[i, p].tolist() == [pair[0].theta, pair[1].theta]
                assert summary.value[i, p].tolist() == [pair[0].value, pair[1].value]
    return reports


def test_summaries_match_oracle_on_random_params():
    rng = np.random.default_rng(4321)
    for two_s in (4, 10, 20, 60):
        offset = float(rng.normal())
        rps = []
        for _ in range(80):
            on = rng.uniform(size=5) < 0.8  # switch terms off so special cases show up
            rps.append(ReducedParams(
                r1=rng.normal() * on[0], r2=rng.normal() * on[1], r3=rng.normal() * on[2],
                r4=rng.normal() * 1e-2 * on[3], r5=rng.normal() * 1e-2 * on[4],
                system=SpinSystem(two_s), offset=offset,
            ))
        _assert_summaries_match_oracle(rps)


def test_summaries_match_oracle_on_the_readme_window():
    # the README's separatrix window: 3-trigonal, bz +-1.2, bx 0.2..3.4, 60x40
    c = lookup("3-trigonal")
    rp = reduce_params(c.system, c.aniso, FieldVector())
    rps = [
        replace(rp, r2=float(bz), r1=float(bx))
        for bz in np.linspace(-1.2, 1.2, 60) for bx in np.linspace(0.2, 3.4, 40)
    ]
    _assert_summaries_match_oracle(rps)


def test_readme_window_leaves_few_intervals_uncertified(monkeypatch):
    # 4 floor intervals stay open on the README window's 2400 nodes at the
    # time of writing: places on 3 nodes where V' comes close to 0 beside
    # a close pair of roots, and a 2**21-sample scan finds no root there
    # that the search misses
    c = lookup("3-trigonal")
    rp = reduce_params(c.system, c.aniso, FieldVector())
    r = np.array([
        [bx, bz, rp.r3, rp.r4, rp.r5]
        for bz in np.linspace(-1.2, 1.2, 60) for bx in np.linspace(0.2, 3.4, 40)
    ])
    uncertified = []
    stationary = _ls._stationary

    def counting_stationary(*args):
        out = stationary(*args)
        uncertified.append(out[-1])
        return out

    monkeypatch.setattr(_ls, "_stationary", counting_stationary)
    _ls._summaries(r, rp.system, rp.offset)
    assert len(uncertified) == 1 and uncertified[0] <= 4


def test_summaries_match_oracle_on_a_flat_potential():
    flat = ReducedParams(r1=0.0, r2=0.0, r3=0.0, r4=0.0, r5=0.0, system=SpinSystem(10))
    for rps in ([flat], [replace(flat, r3=-1.0), flat, replace(flat, r2=0.3, r3=0.5)]):
        reports = _assert_summaries_match_oracle(rps)
        assert any(report.degenerate for report in reports)


def test_summaries_break_value_ties_by_theta():
    # With r1 = r5 = 0 the two branches are mirror images, so the minima
    # (maxima) at theta and 2*pi - theta have bit-equal values. Where such
    # a tied pair is second and third lowest, the summary must pick the
    # one at the lower theta, as a stable sort of the theta-ordered points
    # does. Negated parameters turn the minima cases into maxima cases.
    grid = np.linspace(-1.0, 1.0, 11).tolist()
    rps = [
        ReducedParams(
            r1=0.0, r2=sign * r2, r3=sign * r3, r4=sign * 0.1 * r4, r5=0.0, system=SpinSystem(10),
        )
        for sign in (1.0, -1.0) for r2 in (0.0, 0.05, 0.2) for r3 in grid for r4 in grid
    ]
    reports = _assert_summaries_match_oracle(rps)
    for kind, key in (("minima", lambda p: p.value), ("maxima", lambda p: -p.value)):
        tied = 0
        for report in reports:
            points = sorted(getattr(report, kind)(), key=key)
            if len(points) >= 3 and points[0].value != points[1].value == points[2].value:
                tied += 1
        assert tied >= 5, kind


def _reference_distinct(row, theta):
    """The per-row merge of close roots, root by root, as a keep mask."""
    two_pi = 2.0 * math.pi
    keep = []
    for r in sorted(set(row)):
        kept = []
        for i in (i for i in range(len(row)) if row[i] == r):
            if kept and theta[i] - theta[kept[-1]] < _ls.MERGE_TOL:
                continue
            kept.append(i)
        if len(kept) > 1 and two_pi - theta[kept[-1]] + theta[kept[0]] < _ls.MERGE_TOL:
            kept.pop()
        keep += kept
    return [i in keep for i in range(len(row))]


def test_distinct_compares_with_the_last_root_kept():
    tol = _ls.MERGE_TOL
    # 0.6 tol apart each: the second merges into the first, the third is a
    # whole tol from the first root kept and stays
    row = np.array([0, 0, 0])
    theta = np.array([0.1, 0.1 + 0.6 * tol, 0.1 + 1.2 * tol])
    assert _ls._distinct(row, theta).tolist() == [True, False, True]
    # clusters of close roots, some across 2*pi, on seeded random rows
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(0, 12))
        row = np.sort(rng.integers(0, 4, n))
        centre = rng.choice([0.0, 1.0, 2.0 * math.pi])
        steps = rng.integers(-3, 4, n) * rng.uniform(0.3, 0.7) * tol
        theta = np.abs(centre + steps) % (2.0 * math.pi)
        order = np.lexsort((theta, row))
        row, theta = row[order], theta[order]
        expected = _reference_distinct(row.tolist(), theta.tolist())
        assert _ls._distinct(row, theta).tolist() == expected
