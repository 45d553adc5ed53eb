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
``critical_points`` locates and classifies all stationary angles of one
branch, and ``landscape`` merges both branches into a report for the
full great circle through the easy axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
import numpy.typing as npt

from .eig import ConvergenceError
from .spin import (
    G_FACTOR,
    AnisotropyParams,
    FieldVector,
    SpinSystem,
    build_hamiltonian,
)

#: Dense-scan resolution used to bracket stationary points.
SCAN_SAMPLES = 2048

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
        for name in ("r1", "r2", "r3", "r4", "r5", "offset"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
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


def _check_branch(branch: int) -> float:
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 (phi = 0) or -1 (phi = pi), got {branch!r}")
    return float(branch)


def parameter_scale(rp: ReducedParams) -> float:
    """Characteristic energy scale used for all landscape tolerances."""
    total = abs(rp.r1) + abs(rp.r2) + abs(rp.r3) + abs(rp.r4) + abs(rp.r5)
    return max(1.0, total) * rp.system.s ** 2


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
    *,
    g: float = G_FACTOR,
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
    h = build_hamiltonian(system, aniso, field, g=g)
    return float(np.real(np.vdot(state, h @ state)))


def potential_angular(
    theta: npt.ArrayLike,
    phi: npt.ArrayLike,
    system: SpinSystem,
    aniso: AnisotropyParams,
    field: FieldVector = FieldVector(),
    *,
    g: float = G_FACTOR,
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
    v = v + g * s * (
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


def _coefficients(rp: ReducedParams, branch: int, g: float) -> tuple[float, ...]:
    """Fourier coefficients (a1, b1, a2, b2, a4, b4) of V on one branch.

    V(theta) = offset + sum over k = 1, 2, 4 of a_k cos(k theta) +
    b_k sin(k theta); the in-plane potential has no 3*theta harmonic.
    Each entry is one r-parameter times one prefactor, so the tuple is
    linear in r.
    """
    b = _check_branch(branch)
    s = rp.system.s
    n = rp.system.two_s
    quad = s * (n - 1) / 4.0
    zeeman = g * s
    quart = s * (n - 1) * (n - 2) * (n - 3) / 64.0
    return (
        -zeeman * rp.r2,
        b * zeeman * rp.r1,
        quad * rp.r3,
        -2.0 * b * quart * rp.r5,
        quart * rp.r4,
        b * quart * rp.r5,
    )


def _derivative(coef: tuple[float, ...]) -> tuple[float, ...]:
    """Coefficients of the theta-derivative: (a_k, b_k) -> k (b_k, -a_k).

    k is a power of two, so the map is exact in floating point.
    """
    a1, b1, a2, b2, a4, b4 = coef
    return (b1, -a1, 2.0 * b2, -2.0 * a2, 4.0 * b4, -4.0 * a4)


def _basis(theta: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """(cos k theta, sin k theta) for k = 1, 2, 4 along a new last axis."""
    th = np.asarray(theta, dtype=float)
    return np.stack([f(k * th) for k in (1.0, 2.0, 4.0) for f in (np.cos, np.sin)], axis=-1)


def _trig(theta: float) -> tuple[float, ...]:
    """``_basis`` at one angle, as floats."""
    return (
        math.cos(theta), math.sin(theta),
        math.cos(2.0 * theta), math.sin(2.0 * theta),
        math.cos(4.0 * theta), math.sin(4.0 * theta),
    )


def _series(coef: tuple[float, ...], trig: tuple[float, ...]) -> float:
    """The Fourier series with coefficients coef at the angle of ``_trig``."""
    a1, b1, a2, b2, a4, b4 = coef
    c1, s1, c2, s2, c4, s4 = trig
    return a1 * c1 + b1 * s1 + a2 * c2 + b2 * s2 + a4 * c4 + b4 * s4


# The dense stationary-point scan's angles and their basis rows.
_SCAN_THETAS = np.linspace(0.0, 2.0 * np.pi, SCAN_SAMPLES, endpoint=False)
_SCAN_BASIS = _basis(_SCAN_THETAS)
_SCAN_THETAS.setflags(write=False)
_SCAN_BASIS.setflags(write=False)


def potential_reduced(
    theta: npt.ArrayLike,
    rp: ReducedParams,
    branch: int = 1,
    *,
    g: float = G_FACTOR,
) -> npt.NDArray[np.float64] | float:
    """In-plane potential V(theta) on one branch, in kelvin.

    branch +1 is the phi = 0 half-plane, -1 the phi = pi half-plane.
    Equals ``potential_angular(theta, 0 or pi)`` to rounding error when
    the r-parameters and offset come from ``reduce_params``.
    """
    v = rp.offset + _basis(theta) @ _coefficients(rp, branch, g)
    if v.ndim == 0:
        return float(v)
    return v


def _polish_root(
    lo: float,
    hi: float,
    d1: tuple[float, ...],
    d2: tuple[float, ...],
    tol: float,
) -> float:
    """Newton iteration on the series d1 = V', guarded by a sign-change bracket.

    d2 = V'' supplies the Newton slope from the same trig values. Falls
    back to plain bisection whenever a Newton step leaves the bracket or
    stalls; 60 iterations are far more than either method needs at this
    smoothness (no root of the test suite or of the benchmark workloads
    takes more than 35), so running out of them raises.

    Raises:
        ConvergenceError: if neither |V'| <= tol nor a bracket narrower
            than 1e-15 is reached in 60 iterations.
    """
    f_lo = _series(d1, _trig(lo))
    if f_lo == 0.0:
        return lo
    x = 0.5 * (lo + hi)
    for _ in range(60):
        trig = _trig(x)
        fx = _series(d1, trig)
        if abs(fx) <= tol:
            return x
        # shrink the bracket around the sign change
        if (fx > 0.0) == (f_lo > 0.0):
            lo = x
            f_lo = fx
        else:
            hi = x
        dfx = _series(d2, trig)
        if dfx != 0.0:
            step = fx / dfx
            candidate = x - step
        else:
            candidate = lo  # force bisection below
        if lo < candidate < hi:
            x = candidate
        else:
            x = 0.5 * (lo + hi)
        if hi - lo < 1e-15:
            return x
    raise ConvergenceError(f"stationary-point polish did not converge in [{lo!r}, {hi!r}]")


def _branch_points(
    rp: ReducedParams,
    branch: int,
    g: float,
    owned_only: bool,
) -> list[CriticalPoint]:
    """Stationary points of one branch, found by a dense scan of V'.

    With owned_only, only brackets within two samples of the angles the
    branch contributes to ``landscape`` are polished: [0, pi] and the
    band just below 2*pi for phi = 0, (0, pi) for phi = pi. Roots two
    brackets apart are a whole sample apart, so the margin leaves every
    merge decision inside the owned angles as in the full scan.
    """
    scale = parameter_scale(rp)
    tol_root = 1e-12 * scale
    tol_flat = 1e-9 * scale

    coef = _coefficients(rp, branch, g)
    d1 = _derivative(coef)
    d2 = _derivative(d1)
    thetas = _SCAN_THETAS
    slope = _SCAN_BASIS @ d1

    if float(np.max(np.abs(slope))) <= 1e-12 * scale:
        return []

    two_pi = 2.0 * math.pi
    # A sample where the slope is 0 is a root in its own right; a bracket
    # [thetas[i], thetas[i+1]) with a zero end is skipped because that
    # node is recorded on its own. The last bracket wraps to 2*pi.
    nxt = np.roll(slope, -1)
    zero = slope == 0.0
    bracket = ~zero & (nxt != 0.0) & ((slope > 0.0) != (nxt > 0.0))
    if owned_only:
        margin = 2.0 * two_pi / SCAN_SAMPLES
        near = thetas <= math.pi + margin
        if branch == 1:
            near |= thetas >= two_pi - margin
        zero &= near
        bracket &= near

    roots = [float(thetas[i]) for i in np.flatnonzero(zero)]
    for i in np.flatnonzero(bracket):
        hi = float(thetas[i + 1]) if i + 1 < SCAN_SAMPLES else two_pi
        roots.append(_polish_root(float(thetas[i]), hi, d1, d2, tol_root))

    roots = [r % two_pi for r in roots]
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and r - merged[-1] < MERGE_TOL:
            continue
        merged.append(r)
    if len(merged) > 1 and (two_pi - merged[-1] + merged[0]) < MERGE_TOL:
        merged.pop()

    points: list[CriticalPoint] = []
    for r in merged:
        trig = _trig(r)
        curvature = _series(d2, trig)
        if curvature > tol_flat:
            kind: Kind = "minimum"
        elif curvature < -tol_flat:
            kind = "maximum"
        else:
            kind = "inflection"
        value = rp.offset + _series(coef, trig)
        points.append(CriticalPoint(theta=r, value=value, kind=kind, second_derivative=curvature))
    return points


def critical_points(
    rp: ReducedParams,
    branch: int = 1,
    *,
    g: float = G_FACTOR,
) -> list[CriticalPoint]:
    """All stationary angles of one branch over [0, 2*pi).

    A dense scan of the analytic derivative brackets every sign change;
    each bracket is polished by guarded Newton iteration and the result
    is classified by the analytic second derivative. Stationary points
    whose curvature is below resolution are labelled inflections, which
    the separatrix machinery treats as proximity-to-bifurcation flags.

    Returns an empty list only for the flat (all parameters negligible)
    potential, which callers should treat as degenerate.
    """
    return _branch_points(rp, branch, g, owned_only=False)


#: Tolerance factor for calling two minima degenerate in a landscape.
_TIE_FACTOR = 1e-9


def landscape(rp: ReducedParams, *, g: float = G_FACTOR) -> LandscapeReport:
    """Merged stationary structure of both branches on one circle.

    The phi = 0 branch owns theta in [0, pi] (poles included) and the
    phi = pi branch owns the open interval, mirrored onto (pi, 2*pi).
    Together they cover the full great circle through the easy axis
    exactly once. Each branch polishes only the roots it owns; the
    other half of its circle belongs to the mirror branch.
    """
    plus = _branch_points(rp, 1, g, owned_only=True)
    minus = _branch_points(rp, -1, g, owned_only=True)
    scale = parameter_scale(rp)

    if not plus and not minus:
        return LandscapeReport(
            points=(),
            n_minima=0,
            n_maxima=0,
            global_minimum=None,
            tie=False,
            degenerate=True,
        )

    two_pi = 2.0 * math.pi
    merged: list[CriticalPoint] = []
    for p in plus:
        if p.theta <= math.pi + _POLE_TOL or p.theta >= two_pi - _POLE_TOL:
            merged.append(p)
    for q in minus:
        if _POLE_TOL < q.theta < math.pi - _POLE_TOL:
            merged.append(replace(q, theta=two_pi - q.theta))
    merged.sort(key=lambda p: p.theta % two_pi)

    minima = [p for p in merged if p.kind == "minimum"]
    maxima = [p for p in merged if p.kind == "maximum"]
    global_minimum: CriticalPoint | None = None
    tie = False
    if minima:
        global_minimum = min(minima, key=lambda p: p.value)
        tie_tol = _TIE_FACTOR * scale
        tie = sum(1 for p in minima if p.value - global_minimum.value <= tie_tol) >= 2

    return LandscapeReport(
        points=tuple(merged),
        n_minima=len(minima),
        n_maxima=len(maxima),
        global_minimum=global_minimum,
        tie=tie,
        degenerate=False,
    )
