"""Dense Hermitian eigensolver with a deterministic output convention.

Thin contract layer over LAPACK (numpy.linalg.eigh) for the small
matrices this package produces (dimension <= 64). The wrapper pins down
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
    is real and positive (ties broken by lowest index).
    """

    eigenvalues: npt.NDArray[np.float64]
    eigenvectors: npt.NDArray[np.complex128]


def eigh(h: npt.NDArray[np.complex128]) -> Spectrum:
    """Diagonalize a Hermitian matrix.

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


def eigh_stack(h: npt.ArrayLike) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.complex128]]:
    """:func:`eigh` on every slice of a stack shaped (..., n, n), with the
    same checks and results; returns (w, v) shaped (..., n), (..., n, n)."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[-1]
    if n < 1 or n > MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    tol = 1e-12 * (1.0 + np.max(np.abs(h), axis=(-2, -1)))
    defect = np.max(np.abs(h - h.conj().swapaxes(-2, -1)), axis=(-2, -1))
    if np.any(defect > tol):
        i = np.argmax(defect - tol)
        raise ValueError(
            f"matrix is not Hermitian: max |h - h^dagger| = {defect.flat[i]:.3e} "
            f"exceeds tolerance {tol.flat[i]:.3e}"
        )

    try:
        w, v = np.linalg.eigh(h.astype(np.complex128))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition failed to converge for dimension {n}: {exc}"
        ) from exc

    # Fix each eigenvector's global phase: rotate so the component of
    # largest magnitude is real and positive. argmax takes the first
    # maximum, which settles ties by lowest index; columns have unit norm,
    # so the pivot is nonzero. np.hypot rounds like abs() of a complex
    # scalar, where np.abs of a complex array differs in the last bit.
    k = np.argmax(np.abs(v), axis=-2)[..., None, :]
    pivot = np.take_along_axis(v, k, axis=-2)
    return w, v * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def ground_state(
    spectrum: Spectrum,
) -> tuple[float, npt.NDArray[np.complex128], float]:
    """Return (e0, ground vector, gap to the first excited level)."""
    w = spectrum.eigenvalues
    if w.shape[0] < 2:
        raise ValueError("ground_state needs at least a two-level spectrum")
    return float(w[0]), spectrum.eigenvectors[:, 0], float(w[1] - w[0])
