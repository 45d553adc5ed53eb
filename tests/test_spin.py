"""Spin matrices, Stevens operators, Hamiltonian assembly."""

import math

import numpy as np
import pytest

from spinscape import (
    AnisotropyParams,
    FieldVector,
    SpinSystem,
    build_hamiltonian,
    spin,
    spin_matrices,
    stevens_o4,
)
from spinscape.spin import build_hamiltonians


def test_spin_half_is_pauli_over_two():
    mats = spin_matrices(SpinSystem(1))
    assert np.array_equal(mats.sz, np.array([[0.5, 0.0], [0.0, -0.5]]))
    assert np.array_equal(mats.sx, np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert np.array_equal(mats.sy, np.array([[0.0, -0.5j], [0.5j, 0.0]]))
    assert np.array_equal(mats.plus, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spin_one_matrices():
    mats = spin_matrices(SpinSystem(2))
    r = math.sqrt(2.0)
    sx = np.array([[0, r, 0], [r, 0, r], [0, r, 0]]) / 2.0
    sz = np.diag([1.0, 0.0, -1.0])
    assert np.max(np.abs(mats.sx - sx)) == 0.0
    assert np.array_equal(mats.sz, sz)
    # ladder amplitudes: <1|S+|0> = <0|S+|-1> = sqrt(2)
    assert mats.plus[0, 1] == mats.plus[1, 2] == r


def test_commutator_and_casimir():
    # [Sx, Sy] = i Sz and Sx^2 + Sy^2 + Sz^2 = S(S+1) I, up to S = 15
    for two_s in (1, 2, 3, 5, 10, 20, 30):
        sys = SpinSystem(two_s)
        mats = spin_matrices(sys)
        comm = mats.sx @ mats.sy - mats.sy @ mats.sx
        assert np.max(np.abs(comm - 1j * mats.sz)) < 1e-13 * sys.dim
        total = mats.sx @ mats.sx + mats.sy @ mats.sy + mats.sz @ mats.sz
        target = sys.casimir() * np.eye(sys.dim)
        assert np.max(np.abs(total - target)) < 1e-12 * sys.casimir()


def test_ladder_consistency():
    sys = SpinSystem(10)
    mats = spin_matrices(sys)
    assert np.max(np.abs(mats.sx - (mats.plus + mats.minus) / 2.0)) == 0.0
    assert np.max(np.abs(mats.sy - (mats.plus - mats.minus) / 2j)) == 0.0
    assert np.array_equal(mats.minus, mats.plus.T)


def test_stevens_axial_s2_diagonal():
    # S = 2 axial operator has the classic diagonal (12, -48, 72, -48, 12)
    o40 = stevens_o4(SpinSystem(4), 0)
    assert np.array_equal(o40, np.diag([12.0, -48.0, 72.0, -48.0, 12.0]))


def test_stevens_offdiagonal_s2_reference():
    """Frozen S = 2 matrices for k = 2, 3, 4 (descending-M basis)."""
    sys = SpinSystem(4)
    q = 3.0 * math.sqrt(6.0)  # 7.348469...

    o42 = np.zeros((5, 5))
    o42[0, 2] = o42[2, 0] = o42[2, 4] = o42[4, 2] = q
    o42[1, 3] = o42[3, 1] = -12.0
    assert np.max(np.abs(stevens_o4(sys, 2) - o42)) < 1e-13

    o43 = np.zeros((5, 5))
    o43[0, 3] = o43[3, 0] = 3.0
    o43[1, 4] = o43[4, 1] = -3.0
    assert np.max(np.abs(stevens_o4(sys, 3) - o43)) < 1e-13

    o44 = np.zeros((5, 5))
    o44[0, 4] = o44[4, 0] = 12.0
    assert np.max(np.abs(stevens_o4(sys, 4) - o44)) < 1e-13


def test_stevens_operators_symmetric_and_traceless():
    for two_s in (4, 7, 10, 20):
        sys = SpinSystem(two_s)
        for k in (0, 2, 3, 4):
            op = stevens_o4(sys, k)
            assert np.array_equal(op, op.T), (two_s, k)
            assert abs(np.trace(op)) < 1e-10 * max(1.0, np.max(np.abs(op)))


def test_stevens_rejects_unsupported_rank():
    with pytest.raises(ValueError):
        stevens_o4(SpinSystem(10), 1)
    with pytest.raises(ValueError):
        stevens_o4(SpinSystem(10), 5)


def test_hamiltonian_trace_closed_form():
    # Only d Sz^2 contributes to the trace: the Zeeman matrices and the
    # rank-4 operators are traceless, and tr(Sx^2) = tr(Sy^2) cancels
    # inside the rhombic term. Sum over M of M^2 is S(S+1)(2S+1)/3.
    rng = np.random.default_rng(42)
    for _ in range(20):
        two_s = int(rng.integers(1, 25))
        sys = SpinSystem(two_s)
        aniso = AnisotropyParams(
            d=rng.normal(), e=rng.normal() * 0.1,
            b40=rng.normal() * 1e-4, b42=rng.normal() * 1e-4,
            b43=rng.normal() * 1e-3, b44=rng.normal() * 1e-4,
        )
        field = FieldVector(bx=rng.normal(), by=rng.normal(), bz=rng.normal())
        h = build_hamiltonian(sys, aniso, field)
        s = sys.s
        expected = aniso.d * s * (s + 1.0) * (2.0 * s + 1.0) / 3.0
        assert abs(np.trace(h).real - expected) < 1e-9 * (1.0 + abs(expected))
        assert abs(np.trace(h).imag) < 1e-12


def test_hamiltonian_exactly_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(10):
        sys = SpinSystem(int(rng.integers(1, 30)))
        aniso = AnisotropyParams(
            d=rng.normal(), e=rng.normal(),
            b40=rng.normal() * 1e-4, b42=rng.normal() * 1e-4,
            b43=rng.normal() * 1e-2, b44=rng.normal() * 1e-4,
        )
        field = FieldVector(bx=rng.normal(), by=rng.normal(), bz=rng.normal())
        h = build_hamiltonian(sys, aniso, field)
        # bit-exact, not just close
        assert np.array_equal(h, h.conj().T)


def test_hamiltonian_zeeman_diagonal():
    # pure longitudinal field: H diagonal with entries g bz M + d M^2
    sys = SpinSystem(10)
    h = build_hamiltonian(sys, AnisotropyParams(d=-0.5), FieldVector(bz=0.3))
    m = sys.m_values()
    expected = -0.5 * m**2 + 2.0 * 0.3 * m
    assert np.max(np.abs(h - np.diag(expected))) < 1e-14
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_system_validation():
    with pytest.raises(ValueError):
        SpinSystem(0)
    with pytest.raises(ValueError):
        SpinSystem(-3)
    with pytest.raises(ValueError):
        SpinSystem(2.5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        SpinSystem(61)
    sys = SpinSystem(5)
    assert sys.s == 2.5
    assert sys.dim == 6
    assert np.array_equal(sys.m_values(), np.array([2.5, 1.5, 0.5, -0.5, -1.5, -2.5]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        AnisotropyParams(d=float("nan"))
    with pytest.raises(ValueError):
        AnisotropyParams(b43=float("inf"))
    with pytest.raises(ValueError):
        FieldVector(bx=float("nan"))


def _term_by_term_reference(system, aniso, field, g=2.0):
    """One matrix, summed in the documented order: quadratic, field, quartic."""
    mats = spin_matrices(system)
    y = (mats.plus - mats.minus) / 2.0
    sy2 = -(y @ y)
    real = np.zeros((system.dim, system.dim))
    real += aniso.d * mats.sz @ mats.sz
    real += aniso.e * (mats.sx @ mats.sx - sy2)
    real += g * field.bx * mats.sx
    real += g * field.bz * mats.sz
    for k, coeff in ((0, aniso.b40), (2, aniso.b42), (3, aniso.b43), (4, aniso.b44)):
        if coeff:
            real += coeff * stevens_o4(system, k)
    h = real.astype(complex)
    if field.by:
        h += (g * field.by) * mats.sy
    return h


def test_hamiltonian_stack_equals_single_builds():
    rng = np.random.default_rng(23)
    for two_s in (1, 10, 19, 60):
        sys = SpinSystem(two_s)
        aniso = AnisotropyParams(d=-0.6, e=0.04, b40=2e-5, b42=-1e-5, b43=0.01, b44=3e-5)
        bz = rng.normal(size=(4, 1))
        bx = rng.normal(size=3)
        by = np.array([0.0, 0.7, 0.0])  # zero and nonzero in one stack
        h = build_hamiltonians(sys, aniso, bx, by, bz)
        assert h.shape == (4, 3, sys.dim, sys.dim)
        for i in range(4):
            for j in range(3):
                field = FieldVector(bx=bx[j], by=by[j], bz=bz[i, 0])
                assert np.array_equal(h[i, j], build_hamiltonian(sys, aniso, field))
                assert np.array_equal(h[i, j], _term_by_term_reference(sys, aniso, field))


def test_spin_matrices_built_once_per_assembly(monkeypatch):
    calls = []
    original = spin.spin_matrices

    def counting(system):
        calls.append(system.two_s)
        return original(system)

    monkeypatch.setattr(spin, "spin_matrices", counting)
    aniso = AnisotropyParams(d=-0.6, e=0.04, b40=2e-5, b42=-1e-5, b43=0.01, b44=3e-5)
    build_hamiltonians(SpinSystem(10), aniso, np.zeros(5), 0.0, np.linspace(0.0, 1.0, 5))
    assert calls == [10]
    calls.clear()
    stevens_o4(SpinSystem(10), 0)
    assert calls == []


def test_hamiltonian_stack_is_real_exactly_when_by_vanishes():
    aniso = AnisotropyParams(d=-0.6, e=0.04, b40=2e-5, b42=-1e-5, b43=0.01, b44=3e-5)
    for two_s in (1, 10, 60):
        sys = SpinSystem(two_s)
        bz = np.linspace(-1.0, 1.0, 4)[:, None]
        bx = np.array([0.0, 0.3, 2.0])
        real = build_hamiltonians(sys, aniso, bx, 0.0, bz)
        assert real.dtype == np.float64
        assert build_hamiltonians(sys, aniso, bx, np.zeros(3), bz).dtype == np.float64
        assert build_hamiltonians(sys, aniso, bx, -0.0, bz).dtype == np.float64
        for by in (np.array([0.0, 0.0, 0.4]), np.array([1e-300, 0.0, 0.0]), 0.7):
            forced = build_hamiltonians(sys, aniso, bx, by, bz)
            assert forced.dtype == np.complex128
            assert np.array_equal(forced.real, real)
        assert build_hamiltonian(sys, aniso, FieldVector(bx=0.3)).dtype == np.float64
        assert build_hamiltonian(sys, aniso, FieldVector(by=0.3)).dtype == np.complex128
