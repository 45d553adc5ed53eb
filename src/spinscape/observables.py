"""Quantum-side detectors for the landscape's phase boundaries.

Two observables locate the ground-state structure changes predicted by
the separatrix machinery, using nothing but exact diagonalization:

* ground-state fidelity, the squared overlap of ground states at
  parameter values straddling a point. It collapses where the ground
  state reorganizes, i.e. along the first-order (Maxwell) lines.
* low-temperature heat capacity, computed from energy fluctuations.
  Ridges of enhanced heat capacity trace out the same boundaries at
  experimentally accessible temperatures.

Temperatures, like energies, are in kelvin throughout (t means
k_B T / k_B). Partition sums are always taken relative to the ground
level so nothing overflows no matter how cold.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .eig import Spectrum, _checked_eigh, _phase_fixed
from .spin import AnisotropyParams, FieldVector, SpinSystem, _assemble, _field_arrays, _field_free_terms


@dataclass(frozen=True)
class FidelityMap:
    """Ground-state fidelity over a (bz, bx) window.

    values[i, j] is the fidelity at bz_values[i], bx_values[j], with
    the two compared ground states taken at the scan axis value -/+ d.
    """

    bz_values: npt.NDArray[np.float64]
    bx_values: npt.NDArray[np.float64]
    values: npt.NDArray[np.float64]
    d: float
    axis: str


@dataclass(frozen=True)
class ThermoPoint:
    """Equilibrium quantities of one spectrum at one temperature.

    z is the partition sum of the shifted spectrum (levels minus the
    ground energy), with the shift recorded; f is the true Helmholtz
    energy shift + (-t log z), s the entropy (dimensionless, in units
    of k_B) and c the heat capacity from the fluctuation formula.
    """

    t: float
    z: float
    f: float
    s: float
    c: float
    shift: float


#: Bytes per stack in :func:`spectra`, counted with the itemsize of the
#: widest matrices a stack builds: 8 for the eigenvalues of a real H, 16
#: when H or the eigenvectors are complex. One stack for a 1001-point
#: sweep at 2S = 60 would hold ~30 MB of real H, and a stack's temporaries
#: take about five times that; 256 KiB keeps peak memory within a few MB
#: of one matrix at a time and runs about as fast as 1 MiB. Counting a
#: real H with eigenvectors at 8 bytes doubled the complex eigenvector
#: temporaries and added ~0.9 MB to peak memory on a 101x21 fidelity map
#: at dimension 11.
#:
#: spectra hands every second stack to one helper thread when the process
#: may run on two or more CPUs and the call either wants eigenvalues only
#: (``vectors=False``) or has matrices of dimension at most
#: ``_NO_LEVEL3_DIM``. Such a stack then holds at least ``_STACK_MIN``
#: matrices, which overrides the budget above dimension 36 for a real H
#: and above 26 for a complex one: at 2S = 60 a real stack holds 24
#: matrices (714 KB), not 8. With eigenvectors the floor never binds, as
#: 256 KiB holds at least 26 complex matrices up to dimension 25. numpy's
#: eigvalsh lets the other thread run only on a call of more than ~500
#: eigenvalues in all (one BLAS thread, dimensions 11 to 61: 8 matrices of
#: dimension 61 or 32 of dimension 11 held the GIL, 12 or 48 released it).
#: With 24, every full stack of every dimension up to 64 holds at least
#: 624 eigenvalues. A 1001-point eigenvalue sweep at 2S = 60 (2-vCPU Xeon
#: VM, numpy 2.4.6, one OpenBLAS thread, settings interleaved, median of
#: 15) took 212 ms on one thread, 234 ms on two with 8 matrices per stack
#: and 130 ms with 12, 16, 24 or 32.
#:
#: On one CPU the helper gained no time and added ~2 MB (4%) to peak RSS,
#: so the floor, which only serves the helper, is off too.
_STACK_BYTES = 1 << 18
_STACK_MIN = 24

#: Largest dimension at which a call with eigenvectors takes the helper
#: thread. numpy's eigh calls LAPACK's dsyevd (zheevd when H is complex).
#: Its dstedc (zstedc) runs the QR iteration dsteqr (zsteqr) up to
#: SMLSIZ = 25 and divide and conquer, whose merges call dgemm, above it;
#: the back-transform dormtr (zunmtr) stays unblocked below dimension 33.
#: So up to 25 eigh reaches no level-3 BLAS and starts no OpenBLAS thread,
#: and two callers share two CPUs. Above it, at OpenBLAS's default thread
#: count, a second caller oversubscribes them. spectra with eigenvectors
#: on 1818 points, one thread against two (2-vCPU Xeon VM, default BLAS
#: threads, median of 9): 2S = 10 29 -> 23 ms, 20 126 -> 77, 24 194 -> 106,
#: then 25 138 -> 227, 30 190 -> 273, 60 663 -> 1029. With one BLAS thread
#: two threads gain at every dimension, so pinned runs cannot set this.
_NO_LEVEL3_DIM = 25


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spectra(
    system: SpinSystem,
    aniso: AnisotropyParams,
    bx: npt.ArrayLike,
    by: npt.ArrayLike,
    bz: npt.ArrayLike,
    *,
    vectors: bool = True,
) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.complex128] | None]:
    """Levels and ground vector at every point of a broadcast field grid,
    each shaped (..., 2S+1) and equal to ``eigh(build_hamiltonian(...))``
    at that point alone; points with by = 0 are solved in real arithmetic.
    With ``vectors=False`` the ground vector is None and the levels equal
    ``eigh_stack(build_hamiltonian(...), vectors=False)``, which may differ
    from eigh's in the last bits.

    The field-free terms of H are built once per call. The points are cut
    into stacks of at most 256 KiB; each stack is assembled from those
    terms and diagonalised by one LAPACK call, with eigh_stack's checks,
    and only the ground vector gets eigh's phase rule. On two or more
    usable CPUs, for eigenvalues only or for matrices of dimension 25 or
    less, a stack holds at least 24 matrices and, when there are two or
    more stacks, one helper thread takes every second stack and the
    calling thread the others. numpy releases the GIL on stacks this size,
    and up to dimension 25 eigh calls no multithreaded BLAS, so the two
    overlap (see ``_STACK_BYTES`` and ``_NO_LEVEL3_DIM``). Larger calls
    with eigenvectors stay on the calling thread. A point's result depends
    on neither its stack nor its thread. An error raised in the helper's
    stacks is raised here with its type and message, and the helper has
    always finished when this returns.

    Raises:
        ValueError: if a field component is not finite, before any
            matrix is built.
    """
    bx, by, bz = _field_arrays(bx, by, bz)
    n, dim = bx.size, system.dim
    levels = np.empty((n, dim))
    ground = np.empty((n, dim), dtype=np.complex128) if vectors else None
    itemsize = 16 if vectors or np.any(by) else 8
    threaded = _usable_cpus() > 1 and (not vectors or dim <= _NO_LEVEL3_DIM)
    step = max(_STACK_BYTES // (itemsize * dim * dim), _STACK_MIN if threaded else 1)
    terms = _field_free_terms(system, aniso)
    stacks = [slice(lo, lo + step) for lo in range(0, n, step)]

    def solve(parts: list[slice]) -> None:
        # each thread writes only the rows of its own stacks
        for part in parts:
            h = _assemble(terms, bx.flat[part], by.flat[part], bz.flat[part])
            levels[part], v = _checked_eigh(h, vectors=vectors)
            if vectors:
                ground[part] = _phase_fixed(v[..., :1])[..., 0]

    if threaded and len(stacks) > 1:
        failed: list[Exception] = []

        def helper() -> None:
            try:
                solve(stacks[1::2])
            except Exception as exc:  # re-raised by the calling thread
                failed.append(exc)

        thread = threading.Thread(target=helper, name="spinscape-spectra")
        thread.start()
        try:
            solve(stacks[::2])
        finally:
            thread.join()
        if failed:
            raise failed[0]
    else:
        solve(stacks)
    if vectors:
        ground = ground.reshape(bx.shape + (dim,))
    return levels.reshape(bx.shape + (dim,)), ground


def fidelity(
    system: SpinSystem,
    aniso: AnisotropyParams,
    field: FieldVector,
    *,
    axis: str = "bz",
    d: float = 0.001,
) -> float:
    """Squared ground-state overlap across a small field increment.

    Compares the ground states at field_axis - d and field_axis + d.
    Values sit in [0, 1] up to rounding; 1 - F grows quadratically in d
    for a smoothly varying ground state and F plunges toward 0 across a
    level crossing.
    """
    fmap = fidelity_map(system, aniso, field.bz, field.bx, by=field.by, axis=axis, d=d)
    return float(fmap.values[0, 0])


def fidelity_map(
    system: SpinSystem,
    aniso: AnisotropyParams,
    bz_values: npt.ArrayLike,
    bx_values: npt.ArrayLike,
    *,
    by: float = 0.0,
    axis: str = "bz",
    d: float = 0.001,
) -> FidelityMap:
    """Fidelity on every node of a (bz, bx) grid.

    Both ground states of every node come from one :func:`spectra` call;
    rows and columns are emitted in grid order.
    """
    bz = np.atleast_1d(np.asarray(bz_values, dtype=float))
    bx = np.atleast_1d(np.asarray(bx_values, dtype=float))
    fields = {"bx": bx[None, :], "by": by, "bz": bz[:, None]}
    if axis not in fields:
        raise ValueError(f"axis must be one of {tuple(fields)}, got {axis!r}")
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"increment d must be positive and finite, got {d!r}")
    fields[axis] = fields[axis] + np.array([-d, d])[:, None, None]
    _, ground = spectra(system, aniso, fields["bx"], fields["by"], fields["bz"])
    # np.vdot runs BLAS's strided dot on strided vectors, such as eigh's
    # columns, and sums contiguous ones in another order: keep a stride.
    cols = np.ascontiguousarray(np.moveaxis(ground.reshape(2, -1, system.dim), -1, 0))
    out = np.array([abs(np.vdot(cols[:, 0, i], cols[:, 1, i])) ** 2 for i in range(cols.shape[2])])
    return FidelityMap(bz_values=bz, bx_values=bx, values=out.reshape(bz.size, bx.size), d=d, axis=axis)


#: the lowest temperature: below 2**-511 (about 1.49e-154 K) t*t, the heat
#: capacity's denominator, is no longer a normal float and soon underflows to 0
T_MIN = math.sqrt(np.finfo(float).tiny)


def _checked_temperature(t: float) -> float:
    """t, if it is finite and at least T_MIN; otherwise a ValueError stating the bound."""
    if not (T_MIN <= t < math.inf):
        raise ValueError(f"temperature must be finite and at least {T_MIN!r} K, got {t!r}")
    return t


def _moments(levels: npt.NDArray[np.float64], t: float) -> tuple[npt.NDArray[np.float64], ...]:
    """(e0, z, mean, var) of the levels shifted by their minimum e0, over the last axis."""
    _checked_temperature(t)
    e0 = np.min(levels, axis=-1)
    shifted = levels - e0[..., None]
    weights = np.exp(-shifted / t)
    z = np.sum(weights, axis=-1)
    mean = np.sum(shifted * weights, axis=-1) / z
    var = np.sum(weights * (shifted - mean[..., None]) ** 2, axis=-1) / z
    return e0, z, mean, var


def thermo(spectrum: Spectrum | npt.ArrayLike, t: float) -> ThermoPoint:
    """Partition sum, free energy, entropy and heat capacity at t.

    Accepts a Spectrum or a plain array of level energies in kelvin.
    All sums use levels shifted by the ground energy, so Boltzmann
    weights never overflow; the heat capacity is the variance of the
    shifted levels over t^2, which is manifestly non-negative.
    """
    levels = spectrum.eigenvalues if isinstance(spectrum, Spectrum) else np.asarray(spectrum, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError("expected a one-dimensional, non-empty array of levels")
    e0, z, mean, var = (float(x) for x in _moments(levels, t))
    f = e0 - t * math.log(z)
    s = mean / t + math.log(z)
    c = var / t**2
    return ThermoPoint(t=t, z=z, f=f, s=s, c=c, shift=e0)


def heat_capacity_scan(
    system: SpinSystem,
    aniso: AnisotropyParams,
    bz_values: npt.ArrayLike,
    t: float | npt.ArrayLike,
    *,
    bx: float = 0.0,
    by: float = 0.0,
) -> npt.NDArray[np.float64]:
    """Heat capacity along a bz scan at fixed transverse field: one column of :func:`heatcap_map`."""
    return heatcap_map(system, aniso, bz_values, bx, t, by=by)[..., 0]


def heatcap_map(
    system: SpinSystem,
    aniso: AnisotropyParams,
    bz_values: npt.ArrayLike,
    bx_values: npt.ArrayLike,
    t: float | npt.ArrayLike,
    *,
    by: float = 0.0,
) -> npt.NDArray[np.float64]:
    """Heat capacity on every node of a (bz, bx) grid at temperature t.

    Returns an array shaped (len(bz), len(bx)), or one such map per entry
    of a 1-D array t; each node is diagonalized once for all of them.
    """
    temps = np.asarray(t, dtype=float)
    bz = np.atleast_1d(np.asarray(bz_values, dtype=float))
    bx = np.atleast_1d(np.asarray(bx_values, dtype=float))
    levels, _ = spectra(system, aniso, bx[None, :], by, bz[:, None], vectors=False)
    maps = [_moments(levels, tk)[3] / tk**2 for tk in temps.ravel().tolist()]
    return np.reshape(maps, temps.shape + levels.shape[:-1])
