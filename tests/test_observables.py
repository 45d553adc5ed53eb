"""Fidelity and thermodynamics built on the exact spectra."""

import math
import sys
import threading

import numpy as np
import pytest

from spinscape import (
    AnisotropyParams,
    FieldVector,
    SpinSystem,
    build_hamiltonian,
    eigh,
    fidelity,
    fidelity_map,
    heat_capacity_scan,
    heatcap_map,
    lookup,
    thermo,
)
from spinscape import observables
from spinscape.eig import ConvergenceError, eigh_stack
from spinscape.observables import spectra


def test_two_level_schottky_closed_form():
    # c(t) = x^2 e^x / (1 + e^x)^2 with x = gap / t
    for gap in (0.1, 1.0, 3.7):
        for t in (0.01, 0.05, 0.2, 1.0, 10.0):
            x = gap / t
            ex = math.exp(-x)
            expected = x**2 * ex / (1.0 + ex) ** 2
            got = thermo(np.array([0.0, gap]), t).c
            assert abs(got - expected) <= 1e-10 * max(1.0, expected)


def test_entropy_limits():
    rng = np.random.default_rng(11)
    levels = np.sort(rng.uniform(0.0, 5.0, size=11))
    assert abs(thermo(levels, 1e7).s - math.log(11)) < 1e-6
    # unique ground state freezes out
    assert thermo(levels, 1e-4).s < 1e-8
    assert thermo(levels, 1e-4).c < 1e-8


def test_heat_capacity_is_entropy_slope():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        n = int(rng.integers(2, 22))
        levels = rng.uniform(-3.0, 3.0, size=n)
        t = float(rng.uniform(0.05, 2.0))
        h = 1e-4 * t
        s_hi = thermo(levels, t + h).s
        s_lo = thermo(levels, t - h).s
        fd = t * (s_hi - s_lo) / (2.0 * h)
        c = thermo(levels, t).c
        assert abs(c - fd) <= 1e-5 * max(1.0, abs(c))


def test_free_energy_identities():
    rng = np.random.default_rng(6)
    levels = rng.uniform(-2.0, 2.0, size=9)
    t = 0.7
    pt = thermo(levels, t)
    # direct log-sum-exp with the same shift
    z_direct = np.sum(np.exp(-(levels - levels.min()) / t))
    assert abs(pt.z - z_direct) < 1e-12 * z_direct
    assert abs(pt.f - (levels.min() - t * math.log(z_direct))) < 1e-12
    # s = (<E> - f) / t with <E> measured from the true levels
    w = np.exp(-(levels - levels.min()) / t)
    mean_e = np.sum(levels * w) / np.sum(w)
    assert abs(pt.s - (mean_e - pt.f) / t) < 1e-10
    assert pt.shift == levels.min()


def test_thermo_accepts_spectrum():
    c = lookup("3")
    spec = eigh(build_hamiltonian(c.system, c.aniso, FieldVector(bz=0.5)))
    a = thermo(spec, 0.25)
    b = thermo(spec.eigenvalues, 0.25)
    assert a == b


def test_thermo_huge_gap_no_overflow():
    pt = thermo(np.array([0.0, 1.0e6]), 0.01)
    assert pt.z == 1.0
    assert pt.c == 0.0
    assert math.isfinite(pt.f)


def test_thermo_validation():
    with pytest.raises(ValueError):
        thermo(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        thermo(np.array([0.0, 1.0]), -0.5)
    with pytest.raises(ValueError):
        thermo(np.array([]), 1.0)
    with pytest.raises(ValueError):
        thermo(np.zeros((2, 2)), 1.0)
    # below T_MIN = 2**-511, t*t (the heat capacity's denominator) is no
    # longer a normal float; at 1e-162 it underflowed to 0.0 and raised
    # ZeroDivisionError
    assert observables.T_MIN == 2.0**-511
    tiny = np.finfo(float).tiny
    assert observables.T_MIN**2 >= tiny > np.nextafter(observables.T_MIN, 0.0) ** 2
    for t in (1e-162, np.nextafter(observables.T_MIN, 0.0)):
        with pytest.raises(ValueError, match="at least 1.49"):
            thermo(np.array([0.0, 1.0]), t)
    assert thermo(np.array([0.0, 1.0]), observables.T_MIN).c == 0.0


def test_fidelity_bounds_and_smooth_region():
    c = lookup("3-trigonal")
    f = fidelity(c.system, c.aniso, FieldVector(bx=1.0, bz=2.0), d=0.001)
    assert 0.0 <= f <= 1.0 + 1e-12
    # far from any anticrossing the overlap is essentially complete
    assert f > 0.999


def test_fidelity_collapses_at_anticrossing():
    # ground-state swap along bz at strong transverse field
    c = lookup("3-trigonal")
    f_on = fidelity(c.system, c.aniso, FieldVector(bx=2.205, bz=0.1402), d=0.001)
    f_off = fidelity(c.system, c.aniso, FieldVector(bx=2.205, bz=0.30), d=0.001)
    print(f"on-crossing F = {f_on:.3e}, off-crossing F = {f_off:.6f}")
    assert f_on < 0.5
    assert f_off > 0.999


def test_fidelity_shrinking_increment():
    c = lookup("3")
    field = FieldVector(bx=0.8, bz=1.1)
    f1 = fidelity(c.system, c.aniso, field, d=1e-3)
    f2 = fidelity(c.system, c.aniso, field, d=1e-4)
    assert 1.0 - f2 < (1.0 - f1) / 50.0  # 1 - F scales like d^2


def test_fidelity_validation():
    c = lookup("3")
    with pytest.raises(ValueError):
        fidelity(c.system, c.aniso, FieldVector(), axis="r1")
    with pytest.raises(ValueError):
        fidelity(c.system, c.aniso, FieldVector(), d=0.0)
    with pytest.raises(ValueError):
        fidelity(c.system, c.aniso, FieldVector(), d=-1e-3)


def test_fidelity_map_agrees_with_pointwise():
    c = lookup("3-trigonal")
    bz = np.array([0.0, 0.14])
    bx = np.array([1.0, 2.2])
    m = fidelity_map(c.system, c.aniso, bz, bx, d=0.001)
    assert m.values.shape == (2, 2)
    for i, z in enumerate(bz):
        for j, x in enumerate(bx):
            direct = fidelity(c.system, c.aniso, FieldVector(bx=float(x), bz=float(z)), d=0.001)
            assert m.values[i, j] == direct
    m2 = fidelity_map(c.system, c.aniso, bz, bx, d=0.001)
    assert np.array_equal(m.values, m2.values)


@pytest.mark.parametrize("axis, bounds", [("bz", (6e-3, 6e-4)), ("bx", (7e-4, 7e-5))])
def test_fidelity_map_matches_the_fidelity_susceptibility(axis, bounds):
    # Away from crossings 1 - F = (2d)^2 chi_F + O(d^4), with
    # chi_F = sum_{n>0} |<n|dH/dlambda|0>|^2 / (E_n - E_0)^2 (Zanardi and
    # Paunkovic, PRE 74, 031123, 2006). H is affine in the field, so
    # dH/dlambda = g S_lambda is the difference of two Hamiltonians.
    # Measured worst residuals: bz 4.4e-3 and 3.9e-4, bx 5.0e-4 and 4.5e-5.
    c = lookup("3-trigonal")
    bz, bx = np.linspace(-0.25, 0.25, 11), np.array([0.0, 0.5, 1.2, 2.3])
    dh = build_hamiltonian(c.system, c.aniso, FieldVector(**{axis: 1.0})) - build_hamiltonian(c.system, c.aniso)
    chi, gap = np.empty((2, bz.size, bx.size))
    for i, z in enumerate(bz):
        for j, x in enumerate(bx):
            spec = eigh(build_hamiltonian(c.system, c.aniso, FieldVector(bx=x, bz=z)))
            w, u = spec.eigenvalues, spec.eigenvectors
            elements = u.conj().T @ dh @ u[:, 0]
            chi[i, j] = np.sum(np.abs(elements[1:]) ** 2 / (w[1:] - w[0]) ** 2)
            gap[i, j] = w[1] - w[0]
    smooth = gap > 0.05
    assert smooth.sum() == 42
    worst = []
    for d, bound in zip((1e-3, 3e-4), bounds):
        expected = 4.0 * d * d * chi
        f = fidelity_map(c.system, c.aniso, bz, bx, axis=axis, d=d).values
        worst.append(np.max(np.abs((1.0 - f) - expected)[smooth] / expected[smooth]))
        assert worst[-1] < bound, (d, worst[-1])
    # the residual is O(d^2): d 10/3 times smaller cuts it about 11 times
    assert worst[0] > 5.0 * worst[1], worst


def test_heat_capacity_scan_matches_map_column():
    c = lookup("3-trigonal")
    bz = np.linspace(-0.2, 0.5, 8)
    scan = heat_capacity_scan(c.system, c.aniso, bz, 0.05, bx=2.205)
    grid = heatcap_map(c.system, c.aniso, bz, np.array([2.205]), 0.05)
    assert grid.shape == (8, 1)
    assert np.array_equal(scan, grid[:, 0])
    assert np.all(scan >= 0.0)


def test_spectra_sweep_longer_than_one_stack_equals_pointwise(monkeypatch):
    system = SpinSystem(60)
    aniso = AnisotropyParams(d=-0.3, e=0.01, b40=1e-6, b42=5e-7, b44=-1e-6)
    bz = np.linspace(-3.0, 3.0, 41)
    stack_sizes = []
    original = observables.eigh_stack

    def recording(h, **kwargs):
        stack_sizes.append(h.shape[0])
        return original(h, **kwargs)

    monkeypatch.setattr(observables, "eigh_stack", recording)
    levels, ground = spectra(system, aniso, 0.9, 0.0, bz)
    # 256 KiB holds 4 complex 61x61 matrices; with eigenvectors no stack
    # floor applies
    assert sorted(stack_sizes) == [1] + [4] * 10
    assert levels.shape == (41, 61) and ground.shape == (41, 61)
    for i, z in enumerate(bz):
        spec = eigh(build_hamiltonian(system, aniso, FieldVector(bx=0.9, bz=float(z))))
        assert np.array_equal(levels[i], spec.eigenvalues)
        assert np.array_equal(ground[i], spec.eigenvectors[:, 0])


def test_spectra_grid_with_by_equals_pointwise():
    c = lookup("3-trigonal")
    bz = np.array([-0.2, 0.0, 0.14])[:, None]
    bx = np.array([0.0, 2.2])
    by = np.array([[0.0], [0.3], [-1.1]])
    levels, ground = spectra(c.system, c.aniso, bx, by, bz)
    assert levels.shape == (3, 2, 11)
    for i in range(3):
        for j in range(2):
            field = FieldVector(bx=bx[j], by=by[i, 0], bz=bz[i, 0])
            spec = eigh(build_hamiltonian(c.system, c.aniso, field))
            assert np.array_equal(levels[i, j], spec.eigenvalues)
            assert np.array_equal(ground[i, j], spec.eigenvectors[:, 0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["bx", "by", "bz"])
def test_spectra_refuses_a_non_finite_field_before_building(monkeypatch, name, value):
    # inf * 0 in the field term would be nan, with a RuntimeWarning
    def refuse(*args):
        raise AssertionError("built a matrix for a non-finite field")

    monkeypatch.setattr(observables, "_assemble", refuse)
    c = lookup("3-trigonal")
    field = {"bx": 0.5, "by": 0.0, "bz": np.array([0.0, 0.1, 0.2])}
    field[name] = np.array([0.1, 0.1, value])
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        spectra(c.system, c.aniso, **field, vectors=False)
    with pytest.raises(ValueError, match="^by must be finite$"):
        heatcap_map(c.system, c.aniso, [0.0], [0.0], [0.1], by=value)


def test_heatcap_map_temperature_array_equals_scalar_calls():
    c = lookup("3-trigonal")
    bz = np.linspace(-0.2, 0.5, 5)
    bx = np.array([2.2, 2.21])
    temps = np.array([0.05, 0.2, 1.5])
    maps = heatcap_map(c.system, c.aniso, bz, bx, temps)
    assert maps.shape == (3, 5, 2)
    assert np.array_equal(maps, np.stack([heatcap_map(c.system, c.aniso, bz, bx, t) for t in temps]))
    scans = heat_capacity_scan(c.system, c.aniso, bz, temps, bx=2.21)
    assert np.array_equal(scans, maps[:, :, 1])
    with pytest.raises(ValueError):
        heatcap_map(c.system, c.aniso, bz, bx, np.array([0.05, np.inf]))
    with pytest.raises(ValueError, match="at least 1.49"):
        heatcap_map(c.system, c.aniso, bz, bx, np.array([0.05, 1e-200]))


def test_fidelity_map_every_axis_matches_column_overlaps():
    c = lookup("3-trigonal")
    bz = np.array([0.0, 0.14, 0.3])
    bx = np.array([1.0, 2.205])
    for axis in ("bx", "by", "bz"):
        m = fidelity_map(c.system, c.aniso, bz, bx, by=0.2, axis=axis, d=0.01)
        for i, z in enumerate(bz):
            for j, x in enumerate(bx):
                center = {"bx": float(x), "by": 0.2, "bz": float(z)}
                cols = []
                for shift in (-0.01, 0.01):
                    field = FieldVector(**{**center, axis: center[axis] + shift})
                    cols.append(eigh(build_hamiltonian(c.system, c.aniso, field)).eigenvectors[:, 0])
                assert m.values[i, j] == abs(np.vdot(*cols)) ** 2


@pytest.mark.parametrize("by", [0.0, 0.25])
def test_heatcap_map_levels_equal_per_node_eigenvalues_only(monkeypatch, by):
    c = lookup("3-trigonal")
    bz = np.linspace(-0.2, 0.5, 7)
    bx = np.array([0.0, 2.205])
    temps = np.array([0.05, 0.3])
    seen = []
    original = observables.spectra

    def recording(*args, **kwargs):
        levels, ground = original(*args, **kwargs)
        seen.append((levels, ground, kwargs.get("vectors", True)))
        return levels, ground

    monkeypatch.setattr(observables, "spectra", recording)
    maps = heatcap_map(c.system, c.aniso, bz, bx, temps, by=by)
    [(levels, ground, vectors)] = seen
    assert not vectors and ground is None
    for i, z in enumerate(bz):
        for j, x in enumerate(bx):
            h = build_hamiltonian(c.system, c.aniso, FieldVector(bx=x, by=by, bz=z))
            w, _ = eigh_stack(h, vectors=False)
            assert np.array_equal(levels[i, j], w)
            for k, t in enumerate(temps):
                assert maps[k, i, j] == observables._moments(w, t)[3] / t**2


def test_spectra_stack_budget_counts_the_widest_dtype(monkeypatch):
    aniso = AnisotropyParams(d=-0.3, e=0.01)
    stacks = []
    original = observables.eigh_stack

    def recording(h, **kwargs):
        stacks.append((h.dtype, h.shape[0]))
        return original(h, **kwargs)

    monkeypatch.setattr(observables, "eigh_stack", recording)
    # eigenvalues of a real H count 8 bytes per entry; complex H or
    # eigenvectors (always complex) count 16; on two CPUs a stack of
    # eigenvalues only holds at least 24 matrices; all but the last of a
    # call are full
    cases = (
        (20, 0.0, False, 2, [26, 74]),
        (20, 0.0, True, 2, [26, 37, 37]),
        (20, 0.2, False, 2, [26, 37, 37]),
        (20, 0.2, True, 2, [26, 37, 37]),
        (30, 0.0, False, 2, [32, 34, 34]),
        (30, 0.0, True, 2, [15] + [17] * 5),
        (30, 0.2, False, 2, [4, 24, 24, 24, 24]),
        (30, 0.2, False, 1, [15] + [17] * 5),
        (60, 0.0, False, 2, [4, 24, 24, 24, 24]),
        (60, 0.0, False, 1, [4] + [8] * 12),
        (60, 0.2, True, 2, [4] * 25),
    )
    for two_s, by, vectors, cpus, sizes in cases:
        stacks.clear()
        monkeypatch.setattr(observables, "_usable_cpus", lambda: cpus)
        spectra(SpinSystem(two_s), aniso, 0.9, by, np.linspace(-1.0, 1.0, 100), vectors=vectors)
        # the helper thread may finish its stacks first: compare sorted
        assert sorted(size for _, size in stacks) == sizes
        assert {dtype for dtype, _ in stacks} == {np.dtype(complex if by else float)}


def _stack_threads(monkeypatch, cpus=2):
    """Make spectra see `cpus` usable CPUs, so that the helper runs even in
    a process pinned to one; the list returned tells, per stack, whether
    the calling thread took it."""
    monkeypatch.setattr(observables, "_usable_cpus", lambda: cpus)
    threads = []
    original = observables.eigh_stack

    def recording(h, **kwargs):
        threads.append(threading.current_thread() is threading.main_thread())
        return original(h, **kwargs)

    monkeypatch.setattr(observables, "eigh_stack", recording)
    return threads


def _grid(kind):
    """(system, aniso, bx, by, bz, vectors) of a call that takes several stacks."""
    if kind == "2S=60 levels":
        aniso = AnisotropyParams(d=-0.3, e=0.01, b40=1e-6, b42=5e-7, b44=-1e-6)
        return SpinSystem(60), aniso, 0.9, 0.0, np.linspace(-3.0, 3.0, 73), False
    c = lookup("3-trigonal")
    bz = np.linspace(-0.2, 0.5, 24)[:, None]
    bx = np.linspace(1.0, 2.3, 13)
    if kind == "fidelity grid":
        # fidelity_map's grid: both shifted copies of every node
        return c.system, c.aniso, bx, 0.0, bz + np.array([-0.001, 0.001])[:, None, None], True
    by = np.array([0.0, 0.3, 0.0, -1.1] * 6)[:, None]
    return c.system, c.aniso, bx, by, bz, False


@pytest.mark.parametrize("kind", ["2S=60 levels", "fidelity grid", "mixed by grid"])
def test_spectra_multi_stack_call_equals_pointwise(monkeypatch, kind):
    threads = _stack_threads(monkeypatch)
    system, aniso, bx, by, bz, vectors = _grid(kind)
    levels, ground = spectra(system, aniso, bx, by, bz, vectors=vectors)
    # eigenvalue-only stacks are shared with the helper; with eigenvectors
    # the calling thread takes them all
    assert len(threads) >= 3 and set(threads) == ({True} if vectors else {True, False})
    bx, by, bz = np.broadcast_arrays(bx, by, bz)
    for i in np.ndindex(bx.shape):
        h = build_hamiltonian(system, aniso, FieldVector(bx=bx[i], by=by[i], bz=bz[i]))
        if vectors:
            spec = eigh(h)
            assert np.array_equal(levels[i], spec.eigenvalues)
            assert np.array_equal(ground[i], spec.eigenvectors[:, 0])
        else:
            w, _ = eigh_stack(h, vectors=False)
            assert np.array_equal(levels[i], w) and ground is None


@pytest.mark.parametrize(
    "points, cpus, vectors, stacks",
    [(0, 2, False, 0), (1, 2, False, 1), (270, 2, False, 1), (600, 1, False, 3), (600, 2, True, 5)],
    ids=["no-point", "one-point", "one-stack", "one-cpu", "eigenvectors"],
)
def test_spectra_starts_no_thread(monkeypatch, points, cpus, vectors, stacks):
    threads = _stack_threads(monkeypatch, cpus)

    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)
    c = lookup("3-trigonal")
    # 256 KiB holds 270 real or 135 complex 11x11 matrices
    levels, ground = spectra(c.system, c.aniso, 0.9, 0.0, np.linspace(-1.0, 1.0, points), vectors=vectors)
    assert levels.shape == (points, 11) and (ground is None) != vectors
    assert threads == [True] * stacks


@pytest.mark.parametrize("error", [ValueError, ConvergenceError])
@pytest.mark.parametrize("where", ["helper", "caller"])
def test_spectra_error_in_either_thread_reaches_the_caller(monkeypatch, error, where):
    _stack_threads(monkeypatch)
    original = observables.eigh_stack
    seen = []

    def failing(h, **kwargs):
        # the helper's first stack is the call's second
        seen.append(threading.current_thread() is threading.main_thread())
        if seen[-1] == (where == "caller"):
            raise error(f"injected into the {where}")
        return original(h, **kwargs)

    monkeypatch.setattr(observables, "eigh_stack", failing)
    system, aniso, bx, by, bz, vectors = _grid("2S=60 levels")
    before = threading.active_count()
    with pytest.raises(error, match=f"^injected into the {where}$"):
        spectra(system, aniso, bx, by, bz, vectors=vectors)
    assert threading.active_count() == before
    assert set(seen) == {True, False}


def test_spectra_from_many_threads_at_a_short_switch_interval(monkeypatch):
    # three callers, each with its helper, on two CPUs or fewer: every
    # row must still come from its own point's stack
    system, aniso, bx, by, bz, vectors = _grid("mixed by grid")
    monkeypatch.setattr(observables, "_usable_cpus", lambda: 1)
    expected = spectra(system, aniso, bx, by, bz, vectors=vectors)
    monkeypatch.setattr(observables, "_usable_cpus", lambda: 2)
    results = []

    def call():
        for _ in range(3):
            results.append(spectra(system, aniso, bx, by, bz, vectors=vectors))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(results) == 9
    for levels, ground in results:
        assert np.array_equal(levels, expected[0]) and ground is expected[1] is None
