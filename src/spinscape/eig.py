"""Dense Hermitian eigensolver with a deterministic output convention.

Thin contract layer over LAPACK (numpy.linalg.eigh, or eigvalsh when
no eigenvector is wanted) for the small matrices this package produces
(dimension <= 64). Real symmetric matrices go to the real LAPACK
routine, the others to the complex one. The wrapper pins down
everything the rest of the code relies on: ascending eigenvalues,
orthonormal eigenvector columns, a fixed eigenvector phase, and
bit-identical output for bit-identical input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

#: Matrices larger than this are outside the package's scope.
MAX_DIM = 64


class ConvergenceError(RuntimeError):
    """Raised when the underlying eigensolver fails to converge."""


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition result.

    eigenvalues are ascending; eigenvectors[:, i] belongs to
    eigenvalues[i], has unit norm, and its largest-magnitude component
    is real and positive (ties broken by lowest index). The eigenvectors
    are complex128 even when the matrix was solved in real arithmetic.
    """

    eigenvalues: npt.NDArray[np.float64]
    eigenvectors: npt.NDArray[np.complex128]


def eigh(h: npt.ArrayLike) -> Spectrum:
    """Diagonalize a Hermitian matrix.

    A matrix whose imaginary part is exactly zero (a float array, or a
    complex one with zero imaginary entries) is solved by LAPACK's real
    symmetric routine, any other by the complex Hermitian routine.

    Args:
        h: square Hermitian array, dimension 1..64.

    Returns:
        Spectrum with ascending eigenvalues and phase-fixed eigenvectors.

    Raises:
        ValueError: if h is not square, too large, or not Hermitian
            within 1e-12 * (1 + max|h_ij|).
        ConvergenceError: if LAPACK does not converge.
    """
    if np.ndim(h) != 2:
        raise ValueError(f"expected a square matrix, got shape {np.shape(h)}")
    return Spectrum(*eigh_stack(h))


def eigh_stack(
    h: npt.ArrayLike, *, vectors: bool = True
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.complex128] | None]:
    """:func:`eigh` on every slice of a stack shaped (..., n, n), with the
    same checks and results; returns (w, v) shaped (..., n), (..., n, n).

    Each slice is solved in real arithmetic when its imaginary part is
    exactly zero and in complex arithmetic otherwise, so a slice's result
    does not depend on the rest of the stack. With ``vectors=False`` only
    the eigenvalues are computed (``np.linalg.eigvalsh``) and v is None.
    """
    w, v = _checked_eigh(h, vectors=vectors)
    return w, None if v is None else _phase_fixed(v)


def _checked_eigh(
    h: npt.ArrayLike, *, vectors: bool
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64] | npt.NDArray[np.complex128] | None]:
    """:func:`eigh_stack`'s checks and LAPACK solve, without the phase rule:
    v is float64 for a stack solved wholly in real arithmetic."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[-1]
    if n < 1 or n > MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
    h = h.astype(np.result_type(h, np.float64), copy=False)
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    tol = 1e-12 * (1.0 + np.max(np.abs(h), axis=(-2, -1)))
    skew = h - h.conj().swapaxes(-2, -1)
    # |.| in place: no second stack-sized array (.real is a view, or skew itself)
    defect = np.max(np.abs(skew, out=skew).real, axis=(-2, -1))
    if np.any(defect > tol):
        i = np.argmax(defect - tol)
        raise ValueError(
            f"matrix is not Hermitian: max |h - h^dagger| = {defect.flat[i]:.3e} "
            f"exceeds tolerance {tol.flat[i]:.3e}"
        )

    def solve(part):
        return np.linalg.eigh(part) if vectors else (np.linalg.eigvalsh(part), None)

    # Real slices go to the real symmetric routine, the rest to the complex
    # one. A uniform stack is passed whole (h.real is a view, no copy);
    # only a mixed stack is split by the mask and scattered back.
    real = ~np.any(h.imag, axis=(-2, -1)) if np.iscomplexobj(h) else True
    try:
        if np.all(real):
            w, v = solve(h.real)
        elif not np.any(real):
            w, v = solve(h)
        else:
            w = np.empty(h.shape[:-1])
            v = np.empty(h.shape, dtype=np.complex128) if vectors else None
            for mask, part in ((real, h.real[real]), (~real, h[~real])):
                w[mask], v_part = solve(part)
                if vectors:
                    v[mask] = v_part
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition failed to converge for dimension {n}: {exc}"
        ) from exc
    return w, v


def _phase_fixed(v: npt.NDArray[np.float64] | npt.NDArray[np.complex128]) -> npt.NDArray[np.complex128]:
    """Eigenvector columns (..., n, k) rotated so that each one's component
    of largest magnitude is real and positive, as complex128. Each column
    is rotated on its own, so a slice of columns gets the same bits as
    those columns of the whole.

    argmax takes the first maximum, which settles ties by lowest index;
    columns have unit norm, so the pivot is nonzero. np.hypot rounds like
    abs() of a complex scalar, where np.abs of a complex array differs in
    the last bit.
    """
    v = v.astype(np.complex128, copy=False)
    k = np.argmax(np.abs(v), axis=-2)[..., None, :]
    pivot = np.take_along_axis(v, k, axis=-2)
    return v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))

