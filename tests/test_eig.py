"""Hermitian eigensolver wrapper: ordering, phase, accuracy, rejection."""

import numpy as np
import pytest

from spinscape import eigh
from spinscape.eig import MAX_DIM, ConvergenceError, eigh_stack


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def test_diagonal_matrix():
    h = np.diag([3.0, -1.0, 2.0]).astype(complex)
    spec = eigh(h)
    assert np.array_equal(spec.eigenvalues, np.array([-1.0, 2.0, 3.0]))
    # each eigenvector is a coordinate axis with a +1 entry
    for i, col in enumerate(spec.eigenvectors.T):
        j = int(np.argmax(np.abs(col)))
        assert col[j] == 1.0 + 0.0j
        assert np.max(np.abs(np.delete(col, j))) == 0.0


def test_two_level_closed_form():
    # [[a, c], [conj(c), b]] has eigenvalues (a+b)/2 -/+ sqrt(((a-b)/2)^2 + |c|^2)
    h = np.array([[1.0, 0.3 - 0.4j], [0.3 + 0.4j, -2.0]])
    spec = eigh(h)
    mid, half = -0.5, np.hypot(1.5, 0.5)
    assert abs(spec.eigenvalues[0] - (mid - half)) < 1e-14
    assert abs(spec.eigenvalues[1] - (mid + half)) < 1e-14


def test_random_hermitian_batch():
    """Residual, orthonormality and trace identities on random draws."""
    rng = np.random.default_rng(314)
    for _ in range(30):
        n = int(rng.integers(2, 33))
        h = _random_hermitian(rng, n)
        spec = eigh(h)
        w, v = spec.eigenvalues, spec.eigenvectors
        scale = 1.0 + np.max(np.abs(h))

        assert np.all(np.diff(w) >= 0.0)
        for i in range(n):
            assert np.linalg.norm(h @ v[:, i] - w[i] * v[:, i]) <= 1e-10 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10
        assert abs(np.sum(w) - np.trace(h).real) <= 1e-9 * scale * n
        fro2 = np.sum(np.abs(h) ** 2)
        assert abs(np.sum(w**2) - fro2) <= 1e-9 * fro2


def test_phase_convention():
    # largest-magnitude component of every eigenvector is real positive
    rng = np.random.default_rng(99)
    h = _random_hermitian(rng, 12)
    v = eigh(h).eigenvectors
    for col in v.T:
        pivot = col[int(np.argmax(np.abs(col)))]
        assert abs(pivot.imag) < 1e-14
        assert pivot.real > 0.0


def test_deterministic():
    rng = np.random.default_rng(5)
    h = _random_hermitian(rng, 17)
    a = eigh(h)
    b = eigh(h)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_degenerate_eigenvalues_still_orthonormal():
    h = np.diag([1.0, 1.0, 1.0, 5.0]).astype(complex)
    # mix the degenerate subspace with a rotation, spectrum is unchanged
    spec = eigh(h)
    assert np.max(np.abs(spec.eigenvalues - np.array([1.0, 1.0, 1.0, 5.0]))) < 1e-14
    v = spec.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-12


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigh(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        eigh(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _degenerate_hermitian(rng, levels):
    # a random unitary mixes every degenerate subspace
    n = len(levels)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * np.asarray(levels, dtype=float)) @ q.conj().T


def test_stack_slices_equal_eigh():
    rng = np.random.default_rng(2718)
    stacks = [
        np.stack([_random_hermitian(rng, 9) for _ in range(6)]).reshape(2, 3, 9, 9),
        np.stack([_degenerate_hermitian(rng, [1.0, 1.0, 1.0, 5.0]),
                  np.diag([2.0, 2.0, -1.0, -1.0]).astype(complex),
                  _random_hermitian(rng, 4)]),
    ]
    for h in stacks:
        h = (h + h.conj().swapaxes(-2, -1)) / 2.0  # exactly Hermitian
        w, v = eigh_stack(h)
        assert w.shape == h.shape[:-1] and v.shape == h.shape
        for idx in np.ndindex(h.shape[:-2]):
            spec = eigh(h[idx])
            assert np.array_equal(w[idx], spec.eigenvalues)
            assert np.array_equal(v[idx], spec.eigenvectors)


def test_stack_rejects_one_bad_slice():
    rng = np.random.default_rng(17)
    h = np.stack([_random_hermitian(rng, 6) for _ in range(4)])
    eigh_stack(h)

    skew = h.copy()
    skew[2, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh_stack(skew)

    inf = h.copy()
    inf[3, 4, 4] = np.inf
    with pytest.raises(ValueError, match="finite"):
        eigh_stack(inf)

    # the tolerance belongs to each slice: a large neighbour does not
    # widen it, and a large slice keeps its own wider one
    big = h.copy()
    big[0] *= 1e8
    big[0, 0, 1] += 1e-6
    eigh_stack(big)
    big[1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh_stack(big)


def _per_column_reference(h):
    """The phase rule applied one eigenvector at a time, with scalar abs()."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    for j in range(v.shape[1]):
        pivot = v[int(np.argmax(np.abs(v[:, j]))), j]
        v[:, j] *= pivot.conjugate() / abs(pivot)
    return w, v


def test_phase_rule_matches_per_column_reference():
    rng = np.random.default_rng(31)
    for n in (1, 2, 11, 21, 61):
        for h in (_random_hermitian(rng, n), np.diag(np.round(rng.normal(size=n))).astype(complex)):
            w, v = _per_column_reference(h)
            spec = eigh(h)
            assert np.array_equal(spec.eigenvalues, w)
            assert np.array_equal(spec.eigenvectors, v)


def _random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


@pytest.mark.parametrize("vectors", [True, False])
def test_zero_imaginary_stack_equals_its_real_part(vectors):
    rng = np.random.default_rng(404)
    for n in (1, 2, 11, 61):
        real = np.stack([_random_symmetric(rng, n) for _ in range(5)])
        w_c, v_c = eigh_stack(real.astype(complex), vectors=vectors)
        w_r, v_r = eigh_stack(real, vectors=vectors)
        for i in range(real.shape[0]):
            assert np.array_equal(w_c[i], w_r[i])
            if vectors:
                assert v_c.dtype == v_r.dtype == np.complex128
                assert np.array_equal(v_c[i], v_r[i])
        if not vectors:
            assert v_c is None and v_r is None


@pytest.mark.parametrize("vectors", [True, False])
def test_mixed_stack_gives_each_slice_its_own_result(vectors):
    rng = np.random.default_rng(405)
    n = 9
    slices = [_random_symmetric(rng, n).astype(complex), _random_hermitian(rng, n),
              _random_symmetric(rng, n).astype(complex), _random_hermitian(rng, n),
              _random_hermitian(rng, n)]
    h = np.stack(slices)
    w, v = eigh_stack(h, vectors=vectors)
    for i, hi in enumerate(slices):
        w_i, v_i = eigh_stack(hi, vectors=vectors)
        assert np.array_equal(w[i], w_i)
        if vectors:
            assert np.array_equal(v[i], v_i)
            assert np.array_equal(v[i], eigh(hi).eigenvectors)
    # the same slices in another arrangement: results follow the slice
    order = [3, 0, 4, 2, 1]
    w2, v2 = eigh_stack(h[order], vectors=vectors)
    assert np.array_equal(w2, w[order])
    if vectors:
        assert np.array_equal(v2, v[order])


def test_eigenvalues_only_rejects_what_eigh_rejects(monkeypatch):
    rng = np.random.default_rng(17)
    h = np.stack([_random_hermitian(rng, 6) for _ in range(4)])
    skew = h.copy()
    skew[2, 0, 1] += 1e-6
    inf = h.copy()
    inf[3, 4, 4] = np.inf
    for bad in (skew, inf, skew.real, inf.real):
        messages = []
        for vectors in (True, False):
            with pytest.raises(ValueError) as info:
                eigh_stack(bad, vectors=vectors)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def fail(a):
        raise np.linalg.LinAlgError("synthetic")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    for stack in (h, h.real, np.stack([h[0], h[1].real.astype(complex)])):
        for vectors in (True, False):
            with pytest.raises(ConvergenceError, match="synthetic"):
                eigh_stack(stack, vectors=vectors)


def test_uniform_stacks_reach_lapack_uncopied(monkeypatch):
    rng = np.random.default_rng(406)
    real = np.stack([_random_symmetric(rng, 7) for _ in range(3)])
    cplx = np.stack([_random_hermitian(rng, 7) for _ in range(3)])
    mixed = np.stack([real[0].astype(complex), cplx[1]])
    cases = [
        (real, [("f", 3, True)]),
        (real.astype(complex), [("f", 3, True)]),  # its .real is a view
        (cplx, [("c", 3, True)]),
        (mixed, [("f", 1, False), ("c", 1, False)]),  # only a mixed stack is split
    ]
    calls = []

    def recording(name, original):
        def solve(a):
            calls.append((name, a.dtype.kind, a.shape[0], np.shares_memory(a, h)))
            return original(a)
        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    for h, expected in cases:
        for vectors, entry in ((True, "eigh"), (False, "eigvalsh")):
            calls.clear()
            eigh_stack(h, vectors=vectors)
            assert calls == [(entry, *call) for call in expected]
