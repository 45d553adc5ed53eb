"""The benchmark's workloads: seeded job lists of real CLI invocations.

Each workload turns a seed into one *pass*, a fixed list of
``spinscape.cli.main`` argument vectors plus any compound files they
read, and knows how to check what every job wrote. The program sees
only those arguments and files. The seed changes only inputs that
leave the amount of work unchanged, so runs on different seeds measure
the same thing; ``prove.py --traced`` checks that the work counts are
equal on every seed.

Why each workload exists, and which layer it isolates:

``plane-map``
    CLI ``separatrix --axes bz,bx`` on the ``3-trigonal`` Fe4 entry, a
    20x16 grid on the fixed origin-centred window bz +-0.3, bx +-1.0
    (acceptance-8 / demo-02 scale), read from a compound file whose b43
    sign the seed picks: a mirror image in bx, with the same work. The
    landscape kernel and edge refinement do all the work: about three
    quarters of the ~1260 landscape calls are Maxwell bisections to
    1e-8 of the range, and no spectrum is computed. ``3-trigonal`` is
    the one Fe4 entry whose Maxwell lines are tilted (b43 != 0). On the
    other Fe4 entries an origin-centred window puts the Maxwell line
    exactly on bz = 0, where refinement stops at the first midpoint.
    Check: the refined points map onto themselves under
    (bz, bx) -> (-bz, -bx); ``sym_err`` is in grid cells.

``spectrum-sweep``
    CLI ``spectrum`` with its ``.crossings`` sidecar, 1001 points over a
    symmetric bz window at fixed bx != 0, for the catalog Mn12 ``ii``
    (2S = 20) and one compound file of 2S = 60 whose e and fourth-order
    terms the seed sets. A seeded catalog pick (Fe8 ``i`` or Mn12) or a
    seeded d would change the sampling step, and with it the
    refinement count, so neither is used. The same layers as plane-map
    are used differently:
    ``sweep_crossings`` refines coarsely, so its node scan makes up
    ~95% of the landscape calls; ``eigh`` is LAPACK-bound at dimension
    61; the writers emit the widest tables (62 columns).
    Check: with b43 = 0 a pi rotation about x maps bz -> -bz, so the
    levels at +-bz coincide and the crossings are symmetric about 0;
    ``sym_err`` is in kelvin.

``quantum-grid``
    CLI ``fidelity-map`` and ``heatcap-map`` (3 temperatures) on one
    origin-centred 101x21 (bz, bx) window (acceptance-3/4 scale), for
    S = 5 Fe4 entries (dimension 11). Only the quantum route runs. On
    matrices this small the ``eigh`` wrapper and the per-node operator
    rebuild cost more than LAPACK, and ``heatcap-map`` diagonalises the
    grid once per temperature.
    Check: values[i, j] == values[-1-i, -1-j] from the exact
    (bz, bx) -> (-bz, -bx) symmetry, which holds with b43 != 0; also
    fidelity in [0, 1] and heat capacity >= 0; ``sym_err`` is
    dimensionless.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check of the files it writes."""

    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[], checks.Symmetry]


@dataclass(frozen=True)
class Workload:
    """A seeded job-list generator and the unit its checks report sym_err in."""

    sym_unit: str
    make_pass: Callable[[random.Random, Path], list[Job]]


# The generators import spinscape inside the function: run.py puts this
# checkout's src/ on the path only after importing this module.


def _window(flag: str, half: float) -> str:
    return f"--{flag}={-half!r}:{half!r}"


def _plane_map(rng: random.Random, work: Path) -> list[Job]:
    from dataclasses import replace

    from spinscape.compounds import dump_compound, lookup

    # The seed only picks the sign of b43. A pi rotation about z maps
    # (bx, b43) -> (-bx, -b43), so either sign maps the same curves onto
    # the same grid mirrored in bx, and the work is the same; any change
    # of the window or of the other parameters moves the curves across
    # grid edges and changes the number of refined events.
    trigonal = lookup("3-trigonal")
    sign = rng.choice((1.0, -1.0))
    compound = replace(trigonal, id=f"3-trigonal{'+' if sign > 0 else '-'}",
                       aniso=replace(trigonal.aniso, b43=sign * trigonal.aniso.b43))
    path = work / "trigonal.txt"
    path.write_text(dump_compound(compound), encoding="utf-8")
    out = work / "plane.csv"
    argv = ("separatrix", "--compound-file", str(path), "--axes", "bz,bx",
            _window("bz-range", 0.3), _window("bx-range", 1.0),
            "--grid", "20x16", "--out", str(out))
    return [Job(argv, (out,), lambda: checks.check_plane(out))]


def _anisotropy_field(two_s: int, d: float, e: float) -> float:
    """Rough axial switching field of the reduced potential, in kelvin."""
    from spinscape.spin import G_FACTOR

    return (two_s - 1) * abs(d - e) / G_FACTOR


def _spectrum_job(source: tuple[str, ...], hk: float, out: Path) -> Job:
    # bx = 0.3 hk puts both bifurcations near +-0.4 hk, inside a window
    # of +-0.8 hk, with the Maxwell point at bz = 0 between them. The
    # window is not seeded: sweep_crossings bisects to an absolute
    # tolerance, so its refinement count follows the sampling step.
    sidecar = out.with_name(out.stem + ".crossings" + out.suffix)
    argv = ("spectrum", *source, _window("bz-range", 0.8 * hk), "--bx", repr(0.3 * hk),
            "--grid", "1001", "--out", str(out))
    return Job(argv, (out, sidecar), lambda: checks.check_spectrum(out, sidecar))


def _spectrum_sweep(rng: random.Random, work: Path) -> list[Job]:
    from spinscape.compounds import lookup

    mn12 = lookup("ii")
    catalog_job = _spectrum_job(
        ("--compound", mn12.id),
        _anisotropy_field(mn12.system.two_s, mn12.aniso.d, mn12.aniso.e), work / "levels20.csv")

    # The seed sets the small terms only: d, and with it the window,
    # stays fixed. b43 stays 0: it is the one term that breaks the bz
    # mirror.
    d = -0.3
    path = work / "spin60.txt"
    path.write_text(
        "# generated by the benchmark\n"
        f"id = seeded-60\ntwo_s = 60\nd = {d!r}\ne = {rng.uniform(0.0, 0.02)!r}\n"
        f"b40 = {rng.uniform(0.5e-6, 2e-6)!r}\nb42 = {rng.uniform(-1e-6, 1e-6)!r}\n"
        f"b44 = {rng.uniform(-2e-6, 2e-6)!r}\n",
        encoding="utf-8",
    )
    file_job = _spectrum_job(("--compound-file", str(path)), _anisotropy_field(60, d, 0.0),
                             work / "levels60.csv")
    return [catalog_job, file_job]


#: Fe4 entries with the same operator content (d, e, b40), so the
#: heat-capacity job costs the same whichever the seed picks.
_FE4_PLAIN = ("1-1", "1-2", "2", "3", "4", "6", "7", "8", "9", "10", "12")


def _quantum_grid(rng: random.Random, work: Path) -> list[Job]:
    window = (_window("bz-range", rng.uniform(0.2, 0.3)), _window("bx-range", rng.uniform(2.0, 2.6)))
    fid = work / "fidelity.csv"
    fid_argv = ("fidelity-map", "--compound", "3-trigonal", *window, "--grid", "101x21",
                "--d-increment", repr(rng.uniform(0.0005, 0.002)), "--out", str(fid))
    temps = sorted(round(rng.uniform(lo, hi), 4) for lo, hi in ((0.02, 0.08), (0.1, 0.4), (0.5, 2.0)))
    heat = work / "heatcap.csv"
    heat_out = tuple(heat.with_name(f"{heat.stem}-T{t!r}{heat.suffix}") for t in temps)
    heat_argv = ("heatcap-map", "--compound", rng.choice(_FE4_PLAIN), *window, "--grid", "101x21",
                 "--temps", ",".join(repr(t) for t in temps), "--out", str(heat))

    def check_heat() -> checks.Symmetry:
        found = [checks.check_map(p, "heat_capacity", 0.0, float("inf")) for p in heat_out]
        return max(found, key=lambda s: s.share)

    return [
        Job(fid_argv, (fid,), lambda: checks.check_map(fid, "fidelity", -1e-12, 1.0 + 1e-12)),
        Job(heat_argv, heat_out, check_heat),
    ]


WORKLOADS: dict[str, Workload] = {
    "plane-map": Workload("cells", _plane_map),
    "spectrum-sweep": Workload("K", _spectrum_sweep),
    "quantum-grid": Workload("1", _quantum_grid),
}
