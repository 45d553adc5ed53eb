"""Fidelity and thermodynamics built on the exact spectra."""

import math

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
from spinscape.eig import eigh_stack
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
    stack_bytes = []
    original = observables.eigh_stack

    def recording(h, **kwargs):
        stack_bytes.append(h.nbytes)
        return original(h, **kwargs)

    monkeypatch.setattr(observables, "eigh_stack", recording)
    levels, ground = spectra(system, aniso, 0.9, 0.0, bz)
    assert len(stack_bytes) > 1
    assert max(stack_bytes) <= observables._STACK_BYTES
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
    system = SpinSystem(60)
    aniso = AnisotropyParams(d=-0.3, e=0.01)
    stacks = []
    original = observables.eigh_stack

    def recording(h, **kwargs):
        stacks.append((h.dtype, h.shape[0], h.nbytes))
        return original(h, **kwargs)

    monkeypatch.setattr(observables, "eigh_stack", recording)
    # eigenvalues of a real H count 8 bytes per entry; complex H or
    # eigenvectors (always complex) count 16
    cases = ((0.0, False, np.dtype(float), 8), (0.0, True, np.dtype(float), 16),
             (0.2, False, np.dtype(complex), 16), (0.2, True, np.dtype(complex), 16))
    for by, vectors, dtype, itemsize in cases:
        stacks.clear()
        spectra(system, aniso, 0.9, by, np.linspace(-1.0, 1.0, 20), vectors=vectors)
        full = observables._STACK_BYTES // (itemsize * 61 * 61)
        assert [s[:2] for s in stacks[:-1]] == [(dtype, full)] * (len(stacks) - 1)
        assert stacks[-1][0] == dtype and sum(s[1] for s in stacks) == 20
        assert max(s[2] for s in stacks) <= observables._STACK_BYTES
