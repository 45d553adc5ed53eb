"""The two routes agree: the quantum ground-state crossing converges on the
semiclassical Maxwell field as S grows.

A family of compounds scaled from 3-trigonal (2S = 10) keeps the reduced
potential V divided by its quadratic prefactor the same for every 2S, so
the Maxwell field, in scaled units, is the same for every member. The
quantum crossing, the minimum of E1 - E0 along bz, sits above it by an
offset that shrinks like 1/S.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from spinscape import FieldVector, SpinSystem, lookup, reduce_params, sweep_crossings
from spinscape.observables import spectra

#: scaled transverse field and bz window of acceptance criteria 3 and 4
BX = 2.205
BZ_RANGE = (-0.2, 0.5)
TWO_S = (10, 20, 30, 40, 60)


def _prefactors(n):
    """Quadratic, Zeeman and quartic prefactors of V, as in landscape._coefficients."""
    s = n / 2
    return s * (n - 1) / 4, 2 * s, s * (n - 1) * (n - 2) * (n - 3) / 64


def _scaled(n):
    """3-trigonal carried to 2S = n, and the factor k its fields take."""
    c = lookup("3-trigonal")
    (q10, z10, f10), (q, z, f) = _prefactors(10), _prefactors(n)
    quartic = (q / q10) / (f / f10)
    aniso = replace(c.aniso, **{b: getattr(c.aniso, b) * quartic for b in ("b40", "b42", "b43", "b44")})
    return SpinSystem(n), aniso, (q / q10) / (z / z10)


def _gap_minimum(system, aniso, bx, lo, hi):
    """bz of the minimum of E1 - E0: a coarse scan brackets it, then
    golden-section search narrows the bracket to 1e-9 of the window."""
    def gap(bz):
        levels, _ = spectra(system, aniso, bx, 0.0, bz, vectors=False)
        return levels[..., 1] - levels[..., 0]

    nodes = np.linspace(lo, hi, 141)
    i = int(np.argmin(gap(nodes)))
    a, b = nodes[max(i - 1, 0)], nodes[min(i + 1, nodes.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    gc, gd = gap(c), gap(d)
    while b - a > 1e-9 * (hi - lo):
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - ratio * (b - a)
            gc = gap(c)
        else:
            a, c, gc = c, d, gd
            d = a + ratio * (b - a)
            gd = gap(d)
    return (a + b) / 2


@pytest.fixture(scope="module")
def crossings():
    """(S, scaled Maxwell field, scaled quantum crossing) for each 2S."""
    out = []
    for n in TWO_S:
        system, aniso, k = _scaled(n)
        rp = reduce_params(system, aniso, FieldVector(bx=BX * k))
        lo, hi = BZ_RANGE[0] * k, BZ_RANGE[1] * k
        sweep = sweep_crossings(rp, "bz", (lo, hi), refine_to=1e-9 * k)
        assert len(sweep.maxwell_values) == 1, (n, sweep)
        out.append((n / 2, sweep.maxwell_values[0] / k, _gap_minimum(system, aniso, BX * k, lo, hi) / k))
    return out


def test_the_scaled_maxwell_field_is_the_same_for_every_spin(crossings):
    maxwell = [m for _, m, _ in crossings]
    assert max(maxwell) - min(maxwell) < 1e-13
    assert abs(maxwell[0] - 0.1171936004) < 1e-8


def test_the_quantum_crossing_converges_on_the_maxwell_field_like_one_over_s(crossings):
    # measured S * offset: 0.115, 0.097, 0.093, 0.091, 0.089 for 2S = 10..60
    offsets = [quantum - maxwell for _, maxwell, quantum in crossings]
    assert all(o > 0 for o in offsets), offsets
    assert all(a > b for a, b in zip(offsets, offsets[1:])), offsets
    for (s, _, _), offset in zip(crossings, offsets):
        assert 0.08 < s * offset < 0.125, (s, offset)
