"""Semiclassical energy surfaces of the giant-spin Hamiltonian.

The classical limit replaces the spin by a unit vector. Taking the
expectation of the Hamiltonian in an atomic coherent state pinned at
polar angles (theta, phi) produces a smooth energy surface on the
sphere; this module provides that surface in two forms:

* ``potential_angular`` on the sphere, arguments (theta, phi),
* ``potential_reduced`` restricted to the bx-bz plane (phi = 0 or pi),
  a one-dimensional 2*pi-periodic function of theta driven by five
  collapsed parameters r1..r5.

On each branch the reduced potential is one short Fourier series,
offset + sum of a_k cos(k theta) + b_k sin(k theta) over k = 1, 2, 4,
with coefficients linear in r1..r5. Its value, slope and curvature all
come from that one coefficient tuple.

``coherent_expectation`` builds the coherent state explicitly and
evaluates <psi| H |psi> with matrices. It is deliberately independent
of the closed forms above and serves as their oracle in the test
suite; the closed forms must agree with it to near machine precision.

Conventions: the coherent state at theta = 0 is |S, -S>, so the
expectation of Sz is -S*cos(theta) while Sx and Sy follow
+S*sin(theta)*cos(phi) and +S*sin(theta)*sin(phi).

Critical-point machinery for the reduced potential lives here too:
``landscapes`` reports the stationary points of the full great circle
through the easy axis for many parameter sets at once. The phi = 0
branch owns theta in [0, pi] and the phi = pi branch the rest of the
circle; one kernel, ``_stationary``, isolates, polishes and classifies
the owned points of every node and branch as whole arrays, and every
report equals the one a node gets alone. V' is a
trigonometric polynomial with known coefficients, so a bound on its
third derivative certifies each interval of a coarse grid as root-free
or as holding exactly one root; intervals neither test settles are
halved down to a floor width, and those still open there are counted.

The separatrix layer builds no reports. Its nodes and probes travel as
one (n, 5) array of r1..r5 beside the SpinSystem and offset they share.
Its columns are named here only: ``_R_NAMES``, with the aliases bx and
bz for r1 and r2, and ``_column`` reads any axis name the separatrix
layer or the CLI takes. ``_summaries`` reduces the kernel's per-point
arrays, by array operations, to the landscape summary edge
classification reads: each node's flat flag, its counts of minima and
maxima, and its two lowest minima and two highest maxima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from .eig import ConvergenceError
from .spin import (
    G_FACTOR,
    AnisotropyParams,
    FieldVector,
    SpinSystem,
    _finite_fields,
    build_hamiltonian,
)

#: The stationary-point search certifies intervals down to the floor
#: width 2*pi / SCAN_SAMPLES; an interval still open there is counted.
SCAN_SAMPLES = 2048

#: Intervals of the coarse grid the search starts from, a power of two
#: that divides SCAN_SAMPLES.
_COARSE_SAMPLES = 64

#: Two stationary angles closer than this (radians, on the circle) are
#: considered the same point.
MERGE_TOL = 1e-8

#: Half-width of the exclusion zone around the poles used when the two
#: branch point-sets are merged; prevents double counting of theta = 0
#: and theta = pi, which both branches share.
_POLE_TOL = 1e-7

Kind = Literal["minimum", "maximum", "inflection"]


@dataclass(frozen=True)
class ReducedParams:
    """Collapsed parameters of the in-plane (phi = 0 or pi) potential.

    r1 and r2 are the transverse and longitudinal field components in
    kelvin (mu_B B / k_B). r3 collects the quadratic anisotropy with a
    fourth-order correction, r4 and r5 are the surviving fourth-order
    combinations. offset is the angle-independent constant, carried
    separately so potentials derived from a Hamiltonian keep their
    absolute energy scale; when r-parameters are supplied directly the
    offset is unknown and defaults to zero.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    r5: float
    system: SpinSystem
    offset: float = 0.0

    def __post_init__(self) -> None:
        _finite_fields(self, (*_R_NAMES, "offset"))
        if not isinstance(self.system, SpinSystem):
            raise ValueError("system must be a SpinSystem")


@dataclass(frozen=True)
class CriticalPoint:
    """A stationary angle of the reduced potential."""

    theta: float
    value: float
    kind: Kind
    second_derivative: float


@dataclass(frozen=True)
class LandscapeReport:
    """Stationary structure of the full easy-plane great circle.

    points carries both branches merged onto one circle coordinate:
    theta in [0, pi] comes from the phi = 0 branch, theta in (pi, 2*pi)
    from the phi = pi branch mirrored to 2*pi - theta. A tie means at
    least two minima share the global minimum value to within the
    landscape's resolution tolerance. degenerate flags a flat potential
    (all r-parameters negligible), which has no isolated stationary
    points at all.
    """

    points: tuple[CriticalPoint, ...]
    n_minima: int
    n_maxima: int
    global_minimum: CriticalPoint | None
    tie: bool
    degenerate: bool

    def minima(self) -> tuple[CriticalPoint, ...]:
        return tuple(p for p in self.points if p.kind == "minimum")

    def maxima(self) -> tuple[CriticalPoint, ...]:
        return tuple(p for p in self.points if p.kind == "maximum")


def _branch_index(branch: int) -> int:
    """The branch axis index of ``_coefficients``: 0 for phi = 0, 1 for phi = pi."""
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 (phi = 0) or -1 (phi = pi), got {branch!r}")
    return 0 if branch == 1 else 1


#: The columns of an r-array: row k of an (n, 5) array holds r1..r5 of
#: node k. The nodes of a plane or a sweep share one SpinSystem and one
#: offset, which travel beside the array.
_R_NAMES = ("r1", "r2", "r3", "r4", "r5")

#: Axis names that select an r-column by the field component it holds,
#: as ``reduce_params`` maps them.
_ALIASES = {"bx": "r1", "bz": "r2"}


def _column(name: str) -> int:
    """The r-array column an axis name selects: r1..r5, or an alias in _ALIASES."""
    if _ALIASES.get(name, name) not in _R_NAMES:
        raise ValueError(f"unknown axis selector {name!r}; expected one of {_R_NAMES + tuple(_ALIASES)}")
    return _R_NAMES.index(_ALIASES.get(name, name))


def _r_row(rp: ReducedParams) -> npt.NDArray[np.float64]:
    """r1..r5 of rp as one row of an r-array."""
    return np.array([rp.r1, rp.r2, rp.r3, rp.r4, rp.r5])


def _left_to_right(terms: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """The sum over the last axis (at least two terms), added left to right
    as a scalar loop would."""
    total = terms[..., 0] + terms[..., 1]
    for j in range(2, terms.shape[-1]):
        total += terms[..., j]
    return total


def _scales(r: npt.NDArray[np.float64], system: SpinSystem) -> npt.NDArray[np.float64]:
    """``parameter_scale`` of every row of the r-array r.

    The five magnitudes are added left to right, as the scalar sum
    |r1| + |r2| + ... + |r5| would be.
    """
    return np.maximum(1.0, _left_to_right(np.abs(r))) * system.s ** 2


def parameter_scale(rp: ReducedParams) -> float:
    """Characteristic energy scale used for all landscape tolerances."""
    return float(_scales(_r_row(rp)[None], rp.system)[0])


def reduce_params(
    system: SpinSystem,
    aniso: AnisotropyParams,
    field: FieldVector = FieldVector(),
) -> ReducedParams:
    """Collapse anisotropy and in-plane field into the five r-parameters.

    Only fields in the bx-bz plane admit the one-dimensional reduction;
    a nonzero by is rejected. The quantum-side functions have no such
    restriction.
    """
    if field.by != 0.0:
        raise ValueError(
            f"the reduced potential is defined for fields in the bx-bz plane; got by={field.by}"
        )
    n = system.two_s
    s = system.s
    quart_corr = (n - 2) * (n - 3) / 16.0
    r3 = aniso.d - aniso.e + quart_corr * (20.0 * aniso.b40 + 4.0 * aniso.b42 - 4.0 * aniso.b44)
    r4 = 35.0 * aniso.b40 - 7.0 * aniso.b42 + aniso.b44
    offset = (
        aniso.d / 4.0 * s * (n + 1)
        + aniso.e / 4.0 * s * (n - 1)
        + s * (n - 1) * (n - 2) * (n - 3) / 64.0
        * (9.0 * aniso.b40 + 3.0 * aniso.b42 + 3.0 * aniso.b44)
    )
    return ReducedParams(
        r1=field.bx,
        r2=field.bz,
        r3=r3,
        r4=r4,
        r5=aniso.b43,
        system=system,
        offset=offset,
    )


def coherent_expectation(
    theta: float,
    phi: float,
    system: SpinSystem,
    aniso: AnisotropyParams,
    field: FieldVector = FieldVector(),
) -> float:
    """Energy expectation in the atomic coherent state at (theta, phi).

    The state is built from its exact expansion over |S, M>: the
    amplitude on the level reached by k raising steps from |S, -S> is
    sqrt(C(2S, k)) cos^(2S-k)(theta/2) sin^k(theta/2) e^(-i k phi),
    which is finite and exact at both poles. Matrix construction and
    a dense matrix-vector product make this an independent check of
    the closed-form surfaces.
    """
    n = system.two_s
    ct = math.cos(theta / 2.0)
    st = math.sin(theta / 2.0)
    amps = np.empty(n + 1, dtype=np.complex128)
    for k in range(n + 1):
        mag = math.sqrt(math.comb(n, k)) * ct ** (n - k) * st**k
        amps[k] = mag * complex(math.cos(k * phi), -math.sin(k * phi))
    # basis index i holds M = S - i, i.e. k = 2S - i raising steps
    state = amps[::-1].copy()
    h = build_hamiltonian(system, aniso, field)
    return float(np.real(np.vdot(state, h @ state)))


def potential_angular(
    theta: npt.ArrayLike,
    phi: npt.ArrayLike,
    system: SpinSystem,
    aniso: AnisotropyParams,
    field: FieldVector = FieldVector(),
) -> npt.NDArray[np.float64] | float:
    """Closed-form coherent-state energy surface on the sphere, in kelvin.

    Broadcasts over theta and phi. Matches ``coherent_expectation`` to
    rounding error for every parameter set.
    """
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    s = system.s
    n = system.two_s
    sin_t = np.sin(th)
    cos_t = np.cos(th)
    cos_2t = np.cos(2.0 * th)
    cos_4t = np.cos(4.0 * th)

    v = aniso.d / 4.0 * s * (n - 1) * cos_2t
    v = v + aniso.e / 2.0 * s * (n - 1) * np.cos(2.0 * ph) * sin_t**2
    v = v + G_FACTOR * s * (
        -field.bz * cos_t
        + field.bx * np.cos(ph) * sin_t
        + field.by * np.sin(ph) * sin_t
    )
    v = v + aniso.d / 4.0 * s * (n + 1)

    quart = s * (n - 1) * (n - 2) * (n - 3) / 8.0
    if quart != 0.0 and (aniso.b40 or aniso.b42 or aniso.b43 or aniso.b44):
        inner = aniso.b40 / 8.0 * (35.0 * cos_4t + 20.0 * cos_2t + 9.0)
        inner = inner + aniso.b42 / 2.0 * (7.0 * cos_2t + 5.0) * np.cos(2.0 * ph) * sin_t**2
        inner = inner - aniso.b43 * np.cos(3.0 * ph) * cos_t * sin_t**3
        inner = inner + aniso.b44 * np.cos(4.0 * ph) * sin_t**4
        v = v + quart * inner

    if v.ndim == 0:
        return float(v)
    return v


#: The r-column each Fourier coefficient (a1, b1, a2, b2, a4, b4) reads.
_COEFFICIENT_COLUMNS = [1, 0, 2, 4, 3, 4]


def _coefficients(r: npt.NDArray[np.float64], system: SpinSystem) -> npt.NDArray[np.float64]:
    """Fourier coefficients (a1, b1, a2, b2, a4, b4) of V on both branches.

    V(theta) = offset + sum over k = 1, 2, 4 of a_k cos(k theta) +
    b_k sin(k theta); the in-plane potential has no 3*theta harmonic.
    r is an (n, 5) r-array and the result is (n, 2, 6), the phi = 0
    branch before the phi = pi one. Each entry is one r-parameter times
    one prefactor, so the coefficients are linear in r; a matrix product
    would add zero terms and could turn -0.0 into +0.0.
    """
    s = system.s
    n = system.two_s
    quad = s * (n - 1) / 4.0
    zeeman = G_FACTOR * s
    quart = s * (n - 1) * (n - 2) * (n - 3) / 64.0
    prefactors = np.array([
        [-zeeman, b * zeeman, quad, -2.0 * b * quart, quart, b * quart] for b in (1.0, -1.0)
    ])
    return r[:, None, _COEFFICIENT_COLUMNS] * prefactors


#: The harmonics k of the series, in the order of the coefficient tuple.
_ORDERS = np.array([1.0, 2.0, 4.0])

#: The term each coefficient of a derivative reads, (a_k, b_k) -> (b_k, a_k),
#: and the factor it takes, (k, -k).
_SWAPPED = np.array([1, 0, 3, 2, 5, 4])
_SIGNED_ORDERS = np.array([1.0, -1.0, 2.0, -2.0, 4.0, -4.0])

#: k**2 of each harmonic, the weights of the bound on |V'''| (see ``_isolate``).
_SQUARES = _ORDERS ** 2


def _derivative(coef: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """Coefficients of the theta-derivative along the last axis:
    (a_k, b_k) -> k (b_k, -a_k).

    k is a power of two, so the map is exact in floating point, and
    a_k * -k rounds like -a_k * k.
    """
    return np.asarray(coef, dtype=float)[..., _SWAPPED] * _SIGNED_ORDERS


def _basis(theta: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """(cos k theta, sin k theta) for k = 1, 2, 4 along a new last axis.

    Each angle k * theta is exact (k is a power of two); the cosines and
    the sines are written straight into their columns.
    """
    th = np.asarray(theta, dtype=float)
    angle = np.multiply.outer(th, _ORDERS)
    trig = np.empty(th.shape + (6,))
    np.cos(angle, out=trig[..., 0::2])
    np.sin(angle, out=trig[..., 1::2])
    return trig


def _series(coef: npt.NDArray[np.float64], trig: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """The Fourier series with coefficients coef at the angles of ``_basis``.

    Both carry the six terms along the last axis. ``_left_to_right``
    adds the products, so every element is rounded exactly like the
    scalar expression a1*c1 + b1*s1 + ... + b4*s4; a ``sum`` or a
    matrix product may add them in another order.
    """
    return _left_to_right(coef * trig)


# The coarse grid of the stationary-point search: its angles, the upper
# ends of its intervals (the last wraps to 2*pi) and its basis rows. The
# basis is column-major, and so is each chunk of coefficients ``_isolate``
# samples with it: their product in ``_series`` then holds each term's
# samples contiguously. A row-major product loops over runs of six and
# took 1.7-1.9 times as long (2-core x86-64 VM, numpy 2.4).
_COARSE_THETAS = np.linspace(0.0, 2.0 * np.pi, _COARSE_SAMPLES, endpoint=False)
_COARSE_HI = np.append(_COARSE_THETAS[1:], 2.0 * math.pi)
_COARSE_BASIS = np.asfortranarray(_basis(_COARSE_THETAS))

#: Halvings from the coarse width down to the floor width 2*pi / SCAN_SAMPLES.
_HALVINGS = int(math.log2(SCAN_SAMPLES // _COARSE_SAMPLES))

# The angles whose stationary points each branch polishes, as arcs
# (start, end) on the circle: within one floor width of the angles it
# owns, [0, pi] and the band just below 2*pi for phi = 0, (0, pi) for
# phi = pi. _SEARCHED marks, one row per branch, the coarse intervals
# that meet its arc, so every merge decision inside the owned angles is
# taken as in a full-circle search.
_MARGIN = 2.0 * math.pi / SCAN_SAMPLES
_OWNED = np.array([[-_MARGIN, math.pi + _MARGIN], [0.0, math.pi + _MARGIN]])
_SEARCHED = np.logical_or.reduce([
    (_COARSE_THETAS - shift < _OWNED[:, 1:]) & (_COARSE_HI - shift > _OWNED[:, :1])
    for shift in (0.0, 2.0 * math.pi)
])
for _table in (_ORDERS, _SWAPPED, _SIGNED_ORDERS, _SQUARES,
               _COARSE_THETAS, _COARSE_HI, _COARSE_BASIS, _SEARCHED):
    _table.setflags(write=False)
del _table

#: Bytes of coarse V' samples one pass of the search holds,
#: _COARSE_SAMPLES float64 per row: rows are sampled in chunks of this
#: size, so a large batch is never sampled in memory at once. Each
#: sample is its own elementwise series whatever the chunk. A pass holds
#: about five arrays of this size at once; at 256 KiB they raised the
#: plane-map job's peak RSS by 1.0-1.6 MB, at 64 KiB it stayed below
#: that of a 2048-sample scan in 256 KiB chunks.
_SCAN_BYTES = 1 << 16

#: Rounding allowance of a certificate, per unit of the bound M on
#: |V'''| (see ``_isolate``). M is at least 1/sqrt(2) of the sum of the
#: coefficient magnitudes of V' and of V'', so this exceeds the rounding
#: of each series (under 8 ulps of that sum) and of the grid angles.
_ROUNDING = 64.0 * np.finfo(float).eps

#: Newton iterations a bracket may take before the polish gives up. No
#: root of the test suite or of the benchmark workloads takes more than
#: 35.
_POLISH_ITERATIONS = 60


def potential_reduced(
    theta: npt.ArrayLike, rp: ReducedParams, branch: int = 1
) -> npt.NDArray[np.float64] | float:
    """In-plane potential V(theta) on one branch, in kelvin.

    branch +1 is the phi = 0 half-plane, -1 the phi = pi half-plane.
    Equals ``potential_angular(theta, 0 or pi)`` to rounding error when
    the r-parameters and offset come from ``reduce_params``.
    """
    coef = _coefficients(_r_row(rp)[None], rp.system)[0, _branch_index(branch)]
    v = rp.offset + _series(coef, _basis(theta))
    if v.ndim == 0:
        return float(v)
    return v


def _polish(
    lo: npt.NDArray[np.float64],
    hi: npt.NDArray[np.float64],
    f_lo: npt.NDArray[np.float64],
    slopes: npt.NDArray[np.float64],
    tol: npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """Newton iteration on V' in every bracket [lo, hi] at once.

    slopes[i] is (2, 6): the coefficients of V' and of V'' for bracket
    i, whose V' changes sign between lo[i] and hi[i] or is exactly 0 at
    lo[i]. f_lo[i] is V' at lo[i], as ``_series`` gives it at
    ``_basis(lo[i])``; where it is 0, lo[i] is the root, returned as it
    is. V'' supplies the Newton slope from the same trig values. Each
    bracket is shrunk around its sign change, and a Newton step that
    leaves the bracket or meets a zero slope is replaced by plain
    bisection. A bracket leaves the batch once |V'| <= tol[i] or it is
    narrower than 1e-15; until then every element takes the same steps,
    in the same floating-point operations, as a scalar loop over that
    bracket alone, given that ``np.sin`` and ``np.cos`` round like
    ``math.sin`` and ``math.cos`` (a tier-1 test checks this platform
    property). A bracket that has left keeps iterating, masked, until
    half the batch has left; then the batch is compacted.

    Raises:
        ConvergenceError: if some bracket reaches neither exit in
            ``_POLISH_ITERATIONS`` iterations.
    """
    root = np.array(lo, dtype=float)
    idx = np.flatnonzero(f_lo != 0.0)
    lo, hi, slopes, tol = (a[idx] for a in (lo, hi, slopes, tol))
    # V' has the sign it has at lo[i] at every lower end bracket i moves to
    rising = f_lo[idx] > 0.0
    x = 0.5 * (lo + hi)
    found = np.empty_like(x)
    active = np.ones(idx.size, dtype=bool)
    for _ in range(_POLISH_ITERATIONS):
        if idx.size == 0:
            break
        fx, dfx = _series(slopes, _basis(x)[:, None, :]).T
        hit = np.abs(fx) <= tol
        # shrink each bracket around its sign change
        same = (fx > 0.0) == rising
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        # a zero slope steps to NaN, which no bracket holds: it bisects
        candidate = x - fx / np.where(dfx != 0.0, dfx, np.nan)
        after = np.where((lo < candidate) & (candidate < hi), candidate, 0.5 * (lo + hi))
        # the root is x at |V'| <= tol, else the next x once the bracket has closed
        leaves = hit | (hi - lo < 1e-15)
        np.copyto(found, np.where(hit, x, after), where=active & leaves)
        active &= ~leaves
        x = after
        if 2 * np.count_nonzero(active) <= active.size:
            done = ~active
            root[idx[done]] = found[done]
            idx, lo, hi, x, slopes, tol, rising, found = (
                a[active] for a in (idx, lo, hi, x, slopes, tol, rising, found)
            )
            active = np.ones(idx.size, dtype=bool)
    if idx.size:
        first = np.argmax(active)
        raise ConvergenceError(
            "stationary-point polish did not converge in "
            f"[{float(lo[first])!r}, {float(hi[first])!r}]"
        )
    return root


def _root_free(
    f_lo: npt.NDArray[np.float64], f_hi: npt.NDArray[np.float64],
    bound: npt.NDArray[np.float64], slack: npt.NDArray[np.float64], width: float,
) -> npt.NDArray[np.bool_]:
    """Which intervals of this width hold no root of V' (see ``_isolate``)."""
    sag = bound * (width * width / 8.0) + slack
    return ((f_lo > 0.0) == (f_hi > 0.0)) & (np.minimum(np.abs(f_lo), np.abs(f_hi)) > sag)


def _isolate(
    slopes: npt.NDArray[np.float64], scale: npt.NDArray[np.float64], kept: npt.NDArray[np.bool_],
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.float64], npt.NDArray[np.float64],
           npt.NDArray[np.float64], int]:
    """The roots of V' on every row, isolated by certified subdivision.

    slopes is (rows, 2, 6), the coefficients of V' and V'' of each row;
    scale is the parameter scale of each row, and kept (rows,
    _COARSE_SAMPLES) marks the coarse intervals searched on each row.
    M, the sum over k of k**2 |(c_k, s_k)|, bounds |V'''|. So on an
    interval of width h:

    * V' stays within M h**2 / 8 of its chord, and ends of one sign
      further than that from 0 hold no root;
    * |V''(mid)| > M h / 2 makes V' monotone, so ends of opposite signs
      hold exactly one root, and a zero end is the only root.

    Each test adds the rounding allowance ``_ROUNDING`` * M. Every other
    interval is halved, down to the floor width 2*pi / SCAN_SAMPLES.
    An interval still open there is counted, and it is a bracket by its
    end values alone, as in a plain sample scan.

    A bracket is an interval whose ends are nonzero and of opposite
    signs, or whose lower end is an exact zero of V': that sample is a
    root, and ``_polish`` returns it unchanged. Every sample is the
    lower end of one interval of its level, so no zero is bracketed
    twice. Returns the row, lower and upper end of every bracket and V'
    at its lower end, and the number of open floor intervals. Rows whose
    V' is below resolution everywhere (a flat potential) contribute
    nothing. Rows are sampled in chunks of ``_SCAN_BYTES``, and only the
    intervals the coarse tests leave open outlive their chunk.
    """
    d1 = slopes[:, 0]
    # |V'| is at most the sum of the magnitudes of its coefficients
    kept = kept & (_left_to_right(np.abs(d1)) > 1e-12 * scale)[:, None]
    bound = _left_to_right(np.hypot(d1[:, 0::2], d1[:, 1::2]) * _SQUARES)
    slack = _ROUNDING * bound
    width = 2.0 * math.pi / _COARSE_SAMPLES

    open_row, open_k = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    open_lo, open_hi = [np.empty(0)], [np.empty(0)]
    step = max(1, _SCAN_BYTES // (8 * _COARSE_SAMPLES))
    for first in range(0, len(d1), step):
        part = slice(first, first + step)
        f_lo = _series(np.asfortranarray(d1[part])[:, None, :], _COARSE_BASIS)
        f_hi = np.concatenate((f_lo[:, 1:], f_lo[:, :1]), axis=1)  # the last interval wraps to 2*pi
        closed = _root_free(f_lo, f_hi, bound[part, None], slack[part, None], width)
        row, k = np.nonzero(kept[part] & ~closed)
        open_row.append(row + first)
        open_k.append(k)
        open_lo.append(f_lo[row, k])
        open_hi.append(f_hi[row, k])
        del f_lo, f_hi, closed  # free this chunk before the next one is sampled

    row, k = np.concatenate(open_row), np.concatenate(open_k)
    lo, hi = _COARSE_THETAS[k], _COARSE_HI[k]
    f_lo, f_hi = np.concatenate(open_lo), np.concatenate(open_hi)
    bracket_row, bracket_lo, bracket_hi, bracket_f = [], [], [], []
    uncertified = 0
    for level in range(_HALVINGS + 1):
        mid = 0.5 * (lo + hi)
        f_mid, curvature = _series(slopes[row], _basis(mid)[:, None, :]).T
        zero_end = (f_lo == 0.0) | (f_hi == 0.0)
        flips = (f_lo > 0.0) != (f_hi > 0.0)
        change = flips & ~zero_end
        monotone = (flips | zero_end) & (
            np.abs(curvature) > bound[row] * (0.5 * width) + slack[row]
        )
        last = level == _HALVINGS
        found = (change | (f_lo == 0.0)) & (monotone | last)
        bracket_row.append(row[found])
        bracket_lo.append(lo[found])
        bracket_hi.append(hi[found])
        bracket_f.append(f_lo[found])
        if last:
            uncertified = int(np.count_nonzero(~monotone))
            break
        # halve every interval; drop the halves of a monotone one and
        # those the root-free test closes
        row = np.concatenate((row, row))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        f_lo, f_hi = np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi))
        width *= 0.5
        closed = _root_free(f_lo, f_hi, bound[row], slack[row], width)
        settled = np.concatenate((monotone, monotone))
        row, lo, hi, f_lo, f_hi = (a[~(settled | closed)] for a in (row, lo, hi, f_lo, f_hi))
        if not row.size:
            break
    return (
        np.concatenate(bracket_row), np.concatenate(bracket_lo), np.concatenate(bracket_hi),
        np.concatenate(bracket_f), uncertified,
    )


#: Kind codes of the stationary points ``_stationary`` returns: the sign
#: of the curvature beyond resolution.
_MINIMUM, _MAXIMUM = 1, -1
_KIND_NAMES: dict[int, Kind] = {1: "minimum", -1: "maximum", 0: "inflection"}


def _distinct(row: npt.NDArray[np.intp], theta: npt.NDArray[np.float64]) -> npt.NDArray[np.bool_]:
    """Which roots are distinct points, given roots ordered by row and theta.

    A root closer than MERGE_TOL to the last root kept on its row is the
    same point, and so is a last root that close to the first across
    2*pi. The rule compares with the last root kept, not with the
    previous root, so only rows that hold such a close pair are walked
    root by root.
    """
    keep = np.ones(row.size, dtype=bool)
    if not row.size:
        return keep
    two_pi = 2.0 * math.pi
    # boundary[i] marks a new row at root i, and boundary[i + 1] the last root of a row
    boundary = np.concatenate(([True], row[1:] != row[:-1], [True]))
    first, last = boundary[:-1].nonzero()[0], boundary[1:].nonzero()[0]
    close = ((theta[1:] - theta[:-1] < MERGE_TOL) & ~boundary[1:-1]).nonzero()[0]
    walk = (last > first) & (two_pi - theta[last] + theta[first] < MERGE_TOL)
    walk[np.searchsorted(first, close, side="right") - 1] = True
    for k in walk.nonzero()[0]:
        kept = [first[k]]
        for i in range(first[k] + 1, last[k] + 1):
            if theta[i] - theta[kept[-1]] < MERGE_TOL:
                keep[i] = False
            else:
                kept.append(i)
        if len(kept) > 1 and two_pi - theta[kept[-1]] + theta[kept[0]] < MERGE_TOL:
            keep[kept[-1]] = False
    return keep


def _stationary(
    coef: npt.NDArray[np.float64], offset: npt.NDArray[np.float64], scale: npt.NDArray[np.float64],
) -> tuple[npt.NDArray[np.bool_], npt.NDArray[np.intp], npt.NDArray[np.float64],
           npt.NDArray[np.float64], npt.NDArray[np.float64], npt.NDArray[np.int_], int]:
    """The stationary structure of every node on the great circle, by one array pass.

    coef is (nodes, 2, 6): the Fourier coefficients of V on the phi = 0
    and phi = pi branches of each node, whose offset and parameter scale
    are offset and scale. Returns the flat-potential flag of every node;
    then the node, theta, value, curvature and kind (``_MINIMUM``,
    ``_MAXIMUM`` or 0 for an inflection) of every point, ordered by node
    and then theta; and last the number of floor intervals where no
    certificate rules out a missed pair of roots (see ``_isolate``). The
    phi = 0 branch owns theta in [0, pi] (poles included) and the phi =
    pi branch owns the open interval, mirrored onto (pi, 2*pi); points of
    equal theta keep that order.

    ``_isolate`` brackets every root of V' in the coarse intervals of
    ``_SEARCHED`` by certified subdivision, an exact zero included; the
    brackets of all rows are polished by one ``_polish`` call, and only
    the owned points of all rows are classified by V'' and valued by V
    together.
    """
    n_nodes = len(coef)
    # the coefficients of V, V' and V'' on every row, one node and branch
    coefs = np.empty((2 * n_nodes, 3, 6))
    coefs[:, 0] = coef.reshape(-1, 6)
    coefs[:, 1] = _derivative(coefs[:, 0])
    coefs[:, 2] = _derivative(coefs[:, 1])
    slopes = coefs[:, 1:]
    row_scale = np.repeat(scale, 2)
    row, lo, hi, f_lo, uncertified = _isolate(slopes, row_scale, np.tile(_SEARCHED, (n_nodes, 1)))
    theta = _polish(lo, hi, f_lo, slopes[row], 1e-12 * row_scale[row]) % (2.0 * math.pi)
    order = np.lexsort((theta, row))
    row, theta = row[order], theta[order]
    keep = _distinct(row, theta)
    row, theta = row[keep], theta[keep]

    node, branch = np.divmod(row, 2)
    degenerate = np.bincount(node, minlength=n_nodes) == 0
    two_pi = 2.0 * math.pi
    plus = branch == 0
    owned = np.where(
        plus,
        (theta <= math.pi + _POLE_TOL) | (theta >= two_pi - _POLE_TOL),
        (_POLE_TOL < theta) & (theta < math.pi - _POLE_TOL),
    )
    on_circle = np.where(plus, theta, two_pi - theta)
    at = np.flatnonzero(owned)
    at = at[np.lexsort((on_circle[at], node[at]))]
    row, node = row[at], node[at]

    value, curvature = _series(coefs[row, 0::2], _basis(theta[at])[:, None, :]).T
    value = offset[node] + value
    tol_flat = 1e-9 * scale[node]
    kind = np.where(curvature > tol_flat, _MINIMUM, np.where(curvature < -tol_flat, _MAXIMUM, 0))
    return degenerate, node, on_circle[at], value, curvature, kind, uncertified


class _Summary(NamedTuple):
    """What edge classification needs to know about the landscapes of n nodes.

    counts[i] is (n_minima, n_maxima) of node i. Pair 0 is its two
    lowest minima and pair 1 its two highest maxima: theta[i, p] and
    value[i, p] hold pair p in theta order, and absent[i, p] marks a
    node with fewer than two such points, whose entries are 0. A
    degenerate (flat) node has counts (0, 0) and no pairs.
    """

    degenerate: npt.NDArray[np.bool_]  # (n,)
    counts: npt.NDArray[np.intp]  # (n, 2)
    theta: npt.NDArray[np.float64]  # (n, 2, 2)
    value: npt.NDArray[np.float64]  # (n, 2, 2)
    absent: npt.NDArray[np.bool_]  # (n, 2)


def _lowest_two(
    group: npt.NDArray[np.intp], key: npt.NDArray[np.float64], of: npt.NDArray[np.bool_], n: int,
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """Each group's count of the points marked by of, and its two lowest by key.

    group and key hold one entry per point, a group number in [0, n)
    and a key; within a group the points are in theta order, as in a
    node of ``_stationary``. Returns the count of every group, (n,), and
    the indices of its lowest and second-lowest point, (n, 2), -1 where
    it has fewer. lexsort is stable, so of equal keys the lower theta
    ranks first.
    """
    at = of.nonzero()[0]
    group = group[at]
    at = at[np.lexsort((key[at], group))]
    counts = np.bincount(group, minlength=n)
    start = np.cumsum(counts) - counts
    ranked = np.full((n, 2), -1)
    for j in range(2):
        has = counts > j
        ranked[has, j] = at[start[has] + j]
    return counts, ranked


def _summaries(r: npt.NDArray[np.float64], system: SpinSystem, offset: float) -> _Summary:
    """The summary of the landscape at every row of the r-array r.

    Every node shares system and offset. One kernel call covers them
    all, and each node's summary is the one it gets alone.
    """
    n = len(r)
    degenerate, node, theta, value, _, kind, _ = _stationary(
        _coefficients(r, system), np.full(n, offset), _scales(r, system)
    )
    # group 2i ranks the minima of node i by value, group 2i + 1 its maxima by -value
    maximum = kind == _MAXIMUM
    key = np.where(maximum, -value, value)
    counts, ranked = _lowest_two(2 * node + maximum, key, kind != 0, 2 * n)
    counts, ranked = counts.reshape(n, 2), ranked.reshape(n, 2, 2)
    has = counts >= 2
    pair = ranked[has]
    swap = theta[pair[:, 0]] > theta[pair[:, 1]]  # the pair in theta order
    pair[swap] = pair[swap, ::-1]
    pair_theta = np.zeros((n, 2, 2))
    pair_value = np.zeros((n, 2, 2))
    pair_theta[has], pair_value[has] = theta[pair], value[pair]
    return _Summary(degenerate, counts, pair_theta, pair_value, counts < 2)


#: Tolerance factor for calling two minima degenerate in a landscape.
_TIE_FACTOR = 1e-9


def landscapes(rps: Sequence[ReducedParams]) -> list[LandscapeReport]:
    """The stationary structure of the great circle at every parameter set in rps.

    Each report merges both branches as ``LandscapeReport`` describes.
    The root search, the Newton polish, the curvature and the value of
    every node and branch are evaluated together (see ``_stationary``),
    so a plane or a sweep costs a few array operations per chunk of
    nodes rather than a search and a scalar polish per node. Each report
    equals the one its node gets alone, bit for bit: which nodes share a
    call changes nothing. The global minimum and the tie come from
    ``_lowest_two``, the ranking ``_summaries`` reads too: of minima of
    equal value, the one at the lower theta is the global minimum.
    """
    rps = list(rps)
    if not rps:
        return []
    n = len(rps)
    r = np.array([_r_row(rp) for rp in rps])
    coef = np.empty((n, 2, 6))
    scale = np.empty(n)
    for system in {rp.system for rp in rps}:
        of = np.array([rp.system == system for rp in rps])
        coef[of] = _coefficients(r[of], system)
        scale[of] = _scales(r[of], system)
    degenerate, node, theta, value, curvature, kind, _ = _stationary(
        coef, np.array([rp.offset for rp in rps]), scale
    )
    n_minima, lowest = _lowest_two(node, value, kind == _MINIMUM, n)
    n_maxima = np.bincount(node[kind == _MAXIMUM], minlength=n)
    pair = lowest[:, 1] >= 0
    tie = np.zeros(n, dtype=bool)
    tie[pair] = value[lowest[pair, 1]] - value[lowest[pair, 0]] <= _TIE_FACTOR * scale[pair]
    points = [
        CriticalPoint(t, v, _KIND_NAMES[k], c)
        for t, v, k, c in zip(theta.tolist(), value.tolist(), kind.tolist(), curvature.tolist())
    ]
    bounds = np.searchsorted(node, np.arange(n + 1)).tolist()
    nodes = zip(bounds, bounds[1:], n_minima.tolist(), n_maxima.tolist(), lowest[:, 0].tolist(),
                tie.tolist(), degenerate.tolist())
    return [
        LandscapeReport(tuple(points[a:b]), n_min, n_max, None if g < 0 else points[g], tied, flat)
        for a, b, n_min, n_max, g, tied, flat in nodes
    ]
