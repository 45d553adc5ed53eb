"""Spin operators and Hamiltonian construction for a single giant spin.

Everything works in the magnitude basis |S, M> ordered by descending M,
so the first basis vector is M = +S and the last is M = -S. Energies are
expressed as E/k_B in kelvin and magnetic fields enter pre-multiplied by
the Bohr magneton, i.e. a field component b means mu_B * B / k_B in
kelvin. The Lande factor is fixed at g = 2; another isotropic g is
reached by scaling the field components by g / 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

#: CODATA 2018 Bohr magneton divided by the Boltzmann constant, in K/T.
#: Only the command-line layer uses this; the library itself never sees
#: a field in tesla.
MU_B_OVER_KB = 9.2740100783e-24 / 1.380649e-23

#: Lande g-factor; fixed, and the only place it is written.
G_FACTOR = 2.0

#: Fourth-order operator ranks supported by :func:`stevens_o4`.
STEVENS_RANKS = (0, 2, 3, 4)

#: Largest supported 2S (dimension 61). Bigger spins are out of scope.
MAX_TWO_S = 60


@dataclass(frozen=True)
class SpinSystem:
    """A spin quantum number S stored as the integer 2S.

    Keeping 2S integral sidesteps any float ambiguity between integer
    and half-integer spins: S = 5 is two_s=10, S = 19/2 is two_s=19.
    """

    two_s: int

    def __post_init__(self) -> None:
        if isinstance(self.two_s, bool) or not isinstance(self.two_s, (int, np.integer)):
            raise ValueError(f"two_s must be an integer, got {self.two_s!r}")
        if self.two_s < 1:
            raise ValueError(f"two_s must be >= 1, got {self.two_s}")
        if self.two_s > MAX_TWO_S:
            raise ValueError(
                f"two_s={self.two_s} exceeds the supported maximum {MAX_TWO_S}"
            )

    @property
    def s(self) -> float:
        """The spin S as a float."""
        return self.two_s / 2.0

    @property
    def dim(self) -> int:
        """Hilbert-space dimension 2S + 1."""
        return self.two_s + 1

    def m_values(self) -> npt.NDArray[np.float64]:
        """Magnetic quantum numbers in basis order: S, S-1, ..., -S."""
        return (self.two_s - 2 * np.arange(self.dim)) / 2.0

    def casimir(self) -> float:
        """S(S+1), computed exactly from the integer 2S."""
        return self.two_s * (self.two_s + 2) / 4.0


def _finite(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True)
class AnisotropyParams:
    """Second- and fourth-order anisotropy constants, all in kelvin.

    d and e are the axial and rhombic quadratic constants; b40, b42,
    b43 and b44 multiply the rank-4 operators of :func:`stevens_o4`.
    """

    d: float = 0.0
    e: float = 0.0
    b40: float = 0.0
    b42: float = 0.0
    b43: float = 0.0
    b44: float = 0.0

    def __post_init__(self) -> None:
        for name in ("d", "e", "b40", "b42", "b43", "b44"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))


@dataclass(frozen=True)
class FieldVector:
    """Applied field as mu_B * B / k_B per component, in kelvin."""

    bx: float = 0.0
    by: float = 0.0
    bz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("bx", "by", "bz"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))


class SpinMatrices(NamedTuple):
    """The five standard spin matrices in the descending-M basis."""

    sx: npt.NDArray[np.float64]
    sy: npt.NDArray[np.complex128]
    sz: npt.NDArray[np.float64]
    plus: npt.NDArray[np.float64]
    minus: npt.NDArray[np.float64]


def spin_matrices(system: SpinSystem) -> SpinMatrices:
    """Build Sx, Sy, Sz and the ladder operators for the given spin.

    Sz is diagonal with entries S, S-1, ..., -S. The raising operator
    has sqrt(S(S+1) - M(M+1)) on the superdiagonal, where M is the
    column's quantum number; all amplitudes are computed from exact
    integer products before the square root.
    """
    dim = system.dim
    two_s = system.two_s
    m = system.m_values()

    sz = np.zeros((dim, dim))
    np.fill_diagonal(sz, m)

    plus = np.zeros((dim, dim))
    for i in range(dim - 1):
        # column j = i + 1 holds M_j; the operator maps it onto row i
        mj_num = two_s - 2 * (i + 1)  # 2 * M_j
        amp_sq = (two_s * (two_s + 2) - mj_num * (mj_num + 2)) / 4.0
        plus[i, i + 1] = math.sqrt(amp_sq)
    minus = plus.T.copy()

    sx = (plus + minus) / 2.0
    sy = (plus - minus) / 2j
    return SpinMatrices(sx=sx, sy=sy, sz=sz, plus=plus, minus=minus)


def stevens_o4(system: SpinSystem, k: int) -> npt.NDArray[np.float64]:
    """Rank-4 axial/tetragonal/trigonal operator O_4^k for k in {0, 2, 3, 4}.

    The operators are assembled so the result is symmetric to the last
    bit: every mixed product A@B + B@A is computed as R + R.T with
    R = A@B, which is the same matrix in exact arithmetic.

    Args:
        system: the spin.
        k: operator rank index, one of 0, 2, 3, 4.

    Returns:
        A real symmetric (2S+1) x (2S+1) array.

    Raises:
        ValueError: if k is not a supported rank.
    """
    if k not in STEVENS_RANKS:
        raise ValueError(f"unsupported rank-4 operator index k={k}; expected one of {STEVENS_RANKS}")
    return _stevens_o4(system, spin_matrices(system) if k else None, k)


def _stevens_o4(system: SpinSystem, mats: SpinMatrices | None, k: int) -> npt.NDArray[np.float64]:
    """O_4^k from prebuilt spin matrices; k = 0 is diagonal and needs none."""
    c = system.casimir()  # S(S+1)
    dim = system.dim

    if k == 0:
        m = system.m_values()
        diag = 35.0 * m**4 + (25.0 - 30.0 * c) * m**2 + 3.0 * c**2 - 6.0 * c
        out = np.zeros((dim, dim))
        np.fill_diagonal(out, diag)
        return out

    if k == 2:
        p2 = mats.plus @ mats.plus
        q = p2 + p2.T  # S+^2 + S-^2
        t = np.zeros((dim, dim))
        np.fill_diagonal(t, 7.0 * mats.sz.diagonal() ** 2 - c - 5.0)
        r = t @ q
        return (r + r.T) / 4.0

    if k == 3:
        p3 = mats.plus @ mats.plus @ mats.plus
        q = p3 + p3.T  # S+^3 + S-^3
        r = mats.sz @ q
        return (r + r.T) / 4.0

    # k == 4
    p4 = np.linalg.matrix_power(mats.plus, 4)
    return (p4 + p4.T) / 2.0


def build_hamiltonian(
    system: SpinSystem,
    aniso: AnisotropyParams,
    field: FieldVector = FieldVector(),
) -> npt.NDArray[np.float64] | npt.NDArray[np.complex128]:
    """Assemble the giant-spin Hamiltonian, in kelvin.

    H = d Sz^2 + e (Sx^2 - Sy^2) + g (bx Sx + by Sy + bz Sz)
        + b40 O_4^0 + b42 O_4^2 + b43 O_4^3 + b44 O_4^4

    Every term is Hermitian by construction in floating point, so the
    returned matrix satisfies H == H^dagger exactly. It is real
    symmetric (float64) when by = 0 and complex128 otherwise.
    """
    return build_hamiltonians(system, aniso, field.bx, field.by, field.bz)


def build_hamiltonians(
    system: SpinSystem,
    aniso: AnisotropyParams,
    bx: npt.ArrayLike,
    by: npt.ArrayLike,
    bz: npt.ArrayLike,
) -> npt.NDArray[np.float64] | npt.NDArray[np.complex128]:
    """:func:`build_hamiltonian` over the broadcast shape of the field
    components, shaped (..., 2S+1, 2S+1); each matrix is the same to the
    last bit whatever stack it is built in. The stack is real (float64)
    when by is zero at every point and complex128 otherwise; a complex
    stack's real part equals the real stack built with by = 0."""
    bx, by, bz = np.broadcast_arrays(*(np.asarray(b, dtype=float) for b in (bx, by, bz)))
    mats = spin_matrices(system)
    dim = system.dim

    sx2 = mats.sx @ mats.sx
    y = (mats.plus - mats.minus) / 2.0  # Sy = -i * y
    sy2 = -(y @ y)

    real = np.zeros(bx.shape + (dim, dim))
    real += aniso.d * mats.sz @ mats.sz
    real += aniso.e * (sx2 - sy2)
    real += (G_FACTOR * bx)[..., None, None] * mats.sx
    real += (G_FACTOR * bz)[..., None, None] * mats.sz
    for k, coeff in zip(STEVENS_RANKS, (aniso.b40, aniso.b42, aniso.b43, aniso.b44)):
        if coeff:
            real += coeff * _stevens_o4(system, mats, k)

    if not np.any(by):
        return real
    return real + (G_FACTOR * by)[..., None, None] * mats.sy
