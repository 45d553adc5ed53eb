"""Command-line front end.

Subcommands map one-to-one onto library capabilities:

- ``spectrum``: exact levels along an axial-field sweep, with a sidecar
  file of semiclassical transition fields when the field stays in the
  bx-bz plane.
- ``potential``: both branches of the reduced polar potential on a
  theta grid.
- ``separatrix``: bifurcation and degeneracy curves in a two-parameter
  window.
- ``fidelity-map``: ground-state fidelity on a (bz, bx) grid.
- ``heatcap-map``: heat capacity on a (bz, bx) grid, one file per
  temperature.
- ``compounds``: list the built-in parameter sets or export one to the
  plain-text exchange format.

Exit codes: 0 success, 2 configuration problem (bad flags, unknown
compound, unreadable input), 3 numerical failure. Each command returns
its tables and ``main`` writes them, so a failure while computing
writes nothing. All field inputs are kelvin by default; ``--tesla``
rescales field-like inputs (fixed field components, field ranges, the
fidelity increment) by mu_B/k_B, about 0.6717 K/T; the Lande factor,
fixed at g = 2 in the Hamiltonian, does not enter it. Anisotropy-style
inputs such as ``--r-params`` stay in kelvin either way.

argparse converts and checks every input on its own: each range, point
count, grid, temperature list, axis name and ``--r-params`` value, each
fixed field ``--bx``, ``--by`` or ``--bz`` (which must be finite), the
compound from ``--compound`` or ``--compound-file`` (which exclude each
other), and the ``--out`` path are argparse ``type=`` values, so a
handler receives them typed, and a bad one exits 2 naming its flag
before anything is computed. What needs several flags at once, or the
file system, is checked after parsing and before any work: ``main``
requires ``--out`` once for every command that writes a file, and its
directory to exist, and ``_reduced_from_args`` owns r1..r5.
Each reduced parameter has at most one owner: the range flag of an axis
the command sweeps, ``--bx`` or ``--bz``, or an ``--r-params`` key, and
a parameter given two owners exits 2 naming both flags.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .compounds import Compound, catalog, dump_compound, load_compound, lookup
from .eig import ConvergenceError
from .landscape import _ALIASES, _R_NAMES, ReducedParams, _column, potential_reduced, reduce_params
from .observables import _checked_temperature, fidelity_map, heatcap_map, spectra
from .separatrix import KINDS, PlaneSpec, _checked_range, classify_cell_edges, sweep_crossings
from .spin import MU_B_OVER_KB, AnisotropyParams, FieldVector, SpinSystem
from . import writers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

#: fixed-field flag that sets each field axis when it is not swept
_FIELD_FLAG = {axis: name for name, axis in _ALIASES.items()}

#: range flag that feeds each axis, named as the axis is on the command line
_RANGE_FLAG = {axis: _FIELD_FLAG.get(axis, axis) + "_range" for axis in _R_NAMES}

#: flags holding a field, a field window or a field increment, which --tesla converts
_FIELD_FLAGS = ("bx", "by", "bz", "bz_range", "bx_range", "d_increment")


class CliError(Exception):
    """A configuration problem the user can fix (exit code 2)."""


class _Table(NamedTuple):
    """One output table; main adds the tool/command header and writes it."""

    path: Path
    command: str
    settings: list[tuple[str, str]]
    columns: list[str]
    rows: list[list[object]]
    plot_script: str | None = None


# argparse type= converters; argparse names the flag in their error messages.


def _field(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expects LO:HI, got {text!r}")
    try:
        return _checked_range((float(parts[0]), float(parts[1])))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects a number of points N, got {text!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {text!r}")
    return n


def _grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expects N or N1xN2, got {text!r}")
    try:
        counts = [_count(part) for part in parts]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expects N or N1xN2, each at least 2, got {text!r}") from None
    return counts[0], counts[-1]


def _temps(text: str) -> tuple[float, ...]:
    try:
        temps = tuple(_checked_temperature(float(part)) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(set(temps)) != len(temps):
        raise argparse.ArgumentTypeError(f"lists a temperature twice, got {text!r}")
    return temps


def _axis(text: str) -> str:
    """The r-parameter r1..r5 that the axis name text selects."""
    try:
        return _R_NAMES[_column(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _axes(text: str) -> list[tuple[str, str]]:
    """Each of the two names in text, with the r-parameter it selects."""
    names = [part.strip() for part in text.split(",")]
    if len(names) != 2:
        raise argparse.ArgumentTypeError(f"expects two comma-separated names, got {text!r}")
    return [(name, _axis(name)) for name in names]


def _r_params(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"entries look like key=value, got {chunk!r}")
        name = _axis(key.strip())
        if name in out:
            raise argparse.ArgumentTypeError(f"sets {name} twice")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name}: {exc}") from None
    if not out:
        raise argparse.ArgumentTypeError("sets no parameter")
    return out


def _compound_id(text: str) -> Compound:
    try:
        return lookup(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _compound_file(text: str) -> Compound:
    try:
        return load_compound(Path(text).read_text(encoding="utf-8"))
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {text}: {exc}") from None
    except ValueError as exc:  # a malformed file, or one that is not UTF-8
        raise argparse.ArgumentTypeError(f"{text}: {exc}") from None


def _scaled(value: float | tuple[float, float], factor: float) -> float | tuple[float, float]:
    return tuple(v * factor for v in value) if isinstance(value, tuple) else value * factor


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _compound_settings(compound: Compound) -> list[tuple[str, str]]:
    aniso = [(f.name, repr(getattr(compound.aniso, f.name))) for f in fields(AnisotropyParams)]
    return [("compound", compound.id), ("two_s", str(compound.system.two_s)), *aniso]


def _reduced_settings(rp: ReducedParams) -> list[tuple[str, str]]:
    return [(name, repr(getattr(rp, name))) for name in (*_R_NAMES, "offset")]


def _reduced_head(args: argparse.Namespace, rp: ReducedParams) -> list[tuple[str, str]]:
    """The settings potential and separatrix write first.

    These are the compound's settings (two_s alone without a compound),
    then r1..r5 and offset.
    """
    head = _compound_settings(args.compound) if args.compound else [("two_s", str(rp.system.two_s))]
    return head + _reduced_settings(rp)


def _reduced_from_args(args: argparse.Namespace, swept: Sequence[str] = ()) -> ReducedParams:
    """Fixed reduced parameters from the compound, fixed fields, and overrides.

    swept names the axes the command sweeps, each over its range flag
    in ``_RANGE_FLAG``. Every flag that sets one of r1..r5 is counted
    here: a swept axis needs its range flag, an unswept one takes none,
    and a parameter set by two flags is an error naming both.
    """
    given = vars(args)
    for axis in _R_NAMES:
        sweep = _flag(_RANGE_FLAG[axis])
        dests = (_RANGE_FLAG[axis], _FIELD_FLAG.get(axis))
        owners = [_flag(dest) for dest in dests if given.get(dest) is not None]
        owners += ["--r-params"] if axis in (args.r_params or {}) else []
        if axis in swept and sweep not in owners:
            raise CliError(f"the swept axis {axis} needs {sweep}")
        if axis not in swept and sweep in owners:
            raise CliError(f"{sweep} cannot be set: {axis} is not swept")
        if len(owners) > 1:
            raise CliError(f"{owners[0]} and {owners[1]} both set {axis}; give one")
    # potential and separatrix leave --bx and --bz at None unless they are given
    field = FieldVector(**{flag: given[flag] for flag in _FIELD_FLAG.values() if given.get(flag) is not None})
    compound, two_s = args.compound, given.get("two_s")
    if compound is not None and two_s is not None:
        raise CliError("--two-s cannot be set: the compound fixes 2S")
    # without a compound, 2S is --two-s (10 by default) and the anisotropy is zero
    system = compound.system if compound else SpinSystem(10 if two_s is None else two_s)
    rp = reduce_params(system, compound.aniso if compound else AnisotropyParams(), field)
    if args.r_params is not None:
        rp = replace(rp, **args.r_params)
    return rp


# ---------------------------------------------------------------- spectrum


def _cmd_spectrum(args: argparse.Namespace) -> list[_Table]:
    compound = args.compound
    lo, hi = args.bz_range
    n, bx, by, out = args.grid, args.bx, args.by, args.out
    if by != 0.0 and args.r_params is not None:
        raise CliError("--r-params only sets the .crossings sidecar, which needs --by 0")
    # the sidecar's parameters are checked before anything is diagonalised
    rp = _reduced_from_args(args, ("r2",)) if by == 0.0 else None

    system, aniso = compound.system, compound.aniso
    bz_values = np.linspace(lo, hi, n)
    dim = system.dim
    levels, _ = spectra(system, aniso, bx, by, bz_values, vectors=False)
    rows = np.column_stack([bz_values, levels]).tolist()

    settings = _compound_settings(compound) + [
        ("bx", repr(bx)),
        ("by", repr(by)),
        ("bz_range", f"{lo!r}:{hi!r}"),
        ("grid", str(n)),
        ("units", "kelvin"),
    ]
    columns = ["bz"] + [f"e{i}" for i in range(dim)]
    script = writers.gnuplot_lines_script(out.name, dim, "energy levels")
    tables = [_Table(out, "spectrum", settings, columns, rows, script)]

    if rp is not None:
        sweep = sweep_crossings(rp, "r2", (lo, hi))
        cross_rows = [[kind, v] for kind, values in zip(KINDS, astuple(sweep)) for v in values]
        sidecar = out.with_name(out.stem + ".crossings" + out.suffix)
        side_settings = settings + _reduced_settings(rp)
        tables.append(_Table(sidecar, "spectrum.crossings", side_settings, ["kind", "bz"], cross_rows))
    return tables


# ---------------------------------------------------------------- potential


def _cmd_potential(args: argparse.Namespace) -> list[_Table]:
    rp = _reduced_from_args(args)
    n, out = args.grid, args.out

    thetas = np.linspace(0.0, np.pi, n)
    v_plus = potential_reduced(thetas, rp, branch=1)
    v_minus = potential_reduced(thetas, rp, branch=-1)
    rows = [
        [float(t), float(vp), float(vm)]
        for t, vp, vm in zip(thetas, np.atleast_1d(v_plus), np.atleast_1d(v_minus))
    ]

    settings = _reduced_head(args, rp) + [("grid", str(n))]
    script = writers.gnuplot_lines_script(out.name, 2, "reduced potential")
    return [_Table(out, "potential", settings, ["theta", "v_plus", "v_minus"], rows, script)]


# --------------------------------------------------------------- separatrix


def _cmd_separatrix(args: argparse.Namespace) -> list[_Table]:
    names, swept = zip(*args.axes)
    rp = _reduced_from_args(args, swept)
    ranges = [getattr(args, _RANGE_FLAG[axis]) for axis in swept]
    n1, n2 = args.grid

    plane = PlaneSpec(
        axis1=swept[0],
        axis2=swept[1],
        range1=ranges[0],
        range2=ranges[1],
        resolution=(n1, n2),
        fixed=rp,
    )
    result = classify_cell_edges(plane)

    rows: list[list[object]] = []
    for kind in KINDS:
        for p, line in enumerate(getattr(result, kind)):
            for v, (a1, a2) in enumerate(line):
                rows.append([kind, p, v, float(a1), float(a2)])

    settings = _reduced_head(args, rp) + [
        ("axis1", names[0]),
        ("axis2", names[1]),
        ("range1", f"{ranges[0][0]!r}:{ranges[0][1]!r}"),
        ("range2", f"{ranges[1][0]!r}:{ranges[1][1]!r}"),
        ("grid", f"{n1}x{n2}"),
    ]
    columns = ["kind", "polyline", "vertex", names[0], names[1]]
    script = writers.gnuplot_separatrix_script(args.out.name, "separatrix", KINDS)
    return [_Table(args.out, "separatrix", settings, columns, rows, script)]


# ------------------------------------------------------------ (bz, bx) maps


def _map_tables(
    args: argparse.Namespace, command: str, column: str,
    compute: Callable[[Compound, np.ndarray, np.ndarray], list[tuple]],
) -> list[_Table]:
    """One (bz, bx, column) table per map that compute returns.

    compute(compound, bz, bx) returns (tag, settings, plot title,
    values) for each map: the file is --out with the tag added to its
    stem, and values[i, j] belongs to (bz[i], bx[j]).
    """
    compound, out = args.compound, args.out
    (z_lo, z_hi), (x_lo, x_hi), (n_z, n_x) = args.bz_range, args.bx_range, args.grid
    bz, bx = np.linspace(z_lo, z_hi, n_z), np.linspace(x_lo, x_hi, n_x)
    window = [
        ("bz_range", f"{z_lo!r}:{z_hi!r}"),
        ("bx_range", f"{x_lo!r}:{x_hi!r}"),
        ("grid", f"{n_z}x{n_x}"),
    ]
    tables = []
    for tag, settings, title, values in compute(compound, bz, bx):
        path = out.with_name(f"{out.stem}{tag}{out.suffix}")
        head = _compound_settings(compound) + [("by", repr(args.by)), *settings, *window]
        rows = np.column_stack([np.tile(bz, n_x), np.repeat(bx, n_z), values.T.ravel()]).tolist()
        script = writers.gnuplot_map_script(path.name, title)
        tables.append(_Table(path, command, head, ["bz", "bx", column], rows, script))
    return tables


def _cmd_fidelity_map(args: argparse.Namespace) -> list[_Table]:
    def compute(compound, bz, bx):
        fmap = fidelity_map(
            compound.system, compound.aniso, bz, bx, by=args.by, axis=args.scan_axis, d=args.d_increment
        )
        settings = [("scan_axis", args.scan_axis), ("d_increment", repr(args.d_increment))]
        return [("", settings, "ground-state fidelity", fmap.values)]

    return _map_tables(args, "fidelity-map", "fidelity", compute)


def _cmd_heatcap_map(args: argparse.Namespace) -> list[_Table]:
    temps = args.temps

    def compute(compound, bz, bx):
        maps = heatcap_map(compound.system, compound.aniso, bz, bx, temps, by=args.by)
        # one temperature writes --out itself, several one file each
        return [
            ("" if len(temps) == 1 else f"-T{t!r}", [("temperature", repr(float(t)))],
             f"heat capacity, T={t!r} K", values)
            for t, values in zip(temps, maps)
        ]

    return _map_tables(args, "heatcap-map", "heat_capacity", compute)


# ---------------------------------------------------------------- compounds


def _cmd_compounds(args: argparse.Namespace) -> list[_Table]:
    flags = (("--format", args.format is not None), ("--plot-script", args.plot_script),
             ("--out", args.out is not None and not args.export))
    given = [flag for flag, set_ in flags if set_]
    if given:
        raise CliError(f"{' and '.join(given)} cannot be set: --export writes key=value text; the listing prints")
    if args.export:
        args.out.write_text(dump_compound(args.export), encoding="utf-8", newline="\n")
        return []

    fmt = "{:<12} {:>3} {:>9} {:>8} {:>12} {:>12} {:>8} {:>12}  {}"
    print(fmt.format("id", "2S", *(f"{f.name}/K" for f in fields(AnisotropyParams)), "source"))
    for c in catalog():
        print(fmt.format(c.id, c.system.two_s, *(f"{v:g}" for v in astuple(c.aniso)), c.source))
    return []


# ------------------------------------------------------------------ parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing leaves the parser as it was: every default is immutable, and
    ``main`` rescales --tesla fields in the Namespace, not here. Not
    building it at import keeps it out of the start-up time.
    """
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, help="output file path (required except for the compounds listing)")
    # None, not csv: compounds refuses --format even when it names csv
    output.add_argument("--format", choices=("csv", "json"), help="output format (default: csv)")
    output.add_argument(
        "--plot-script",
        action="store_true",
        help="also write a gnuplot script per csv file (its name with the --out suffix swapped for .gp)",
    )
    # spectrum and the maps need a compound; potential and separatrix fall back to --two-s
    optional, required = argparse.ArgumentParser(add_help=False), argparse.ArgumentParser(add_help=False)
    for source in (optional, required):
        compound = source.add_mutually_exclusive_group(required=source is required)
        compound.add_argument("--compound", type=_compound_id, help="id of a built-in parameter set (see compounds)")
        compound.add_argument("--compound-file", dest="compound", type=_compound_file, metavar="PATH",
                              help="path to a key=value parameter file")
        source.add_argument(
            "--tesla",
            action="store_true",
            help="field inputs are tesla instead of kelvin (times mu_B/k_B, about 0.6717 K/T)",
        )
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--bz-range", type=_range, required=True, help="axial window LO:HI")
    window.add_argument("--bx-range", type=_range, required=True, help="transverse window LO:HI")
    window.add_argument("--grid", type=_grid, default="101", help="grid resolution N or NzxNx")
    window.add_argument("--by", type=_field, default=0.0, help="fixed out-of-plane field (kelvin)")
    reduced = argparse.ArgumentParser(add_help=False)
    reduced.add_argument("--two-s", type=int, help="2S when no compound is given (default 10)")
    reduced.add_argument("--bx", type=_field, help="fixed transverse field unless bx is swept (kelvin, default 0)")
    reduced.add_argument("--bz", type=_field, help="fixed axial field unless bz is swept (kelvin, default 0)")
    reduced.add_argument("--r-params", type=_r_params, help="set reduced parameters, e.g. r3=-0.679,r4=0.0008")

    parser = argparse.ArgumentParser(
        prog="spinscape",
        description="Spin Hamiltonian spectra, semiclassical landscapes, and transition maps.",
        epilog=(
            "Range values that start with a minus sign must use the = form, "
            "e.g. --bz-range=-4:4."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    shared, planes, maps = [required, output], [optional, reduced, output], [required, window, output]

    p = sub.add_parser("spectrum", parents=shared, help="energy levels along an axial-field sweep")
    p.add_argument("--bx", type=_field, default=0.0, help="fixed transverse field (kelvin)")
    p.add_argument("--by", type=_field, default=0.0, help="fixed transverse field (kelvin)")
    p.add_argument("--bz-range", type=_range, required=True, help="axial sweep window LO:HI")
    p.add_argument("--grid", type=_count, default="201", help="number of sweep points")
    p.add_argument("--r-params", type=_r_params, help="override reduced parameters for the sidecar (--by 0)")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("potential", parents=planes, help="reduced polar potential on a theta grid")
    p.add_argument("--grid", type=_count, default="721", help="number of theta samples on [0, pi]")
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser("separatrix", parents=planes, help="transition curves in a two-parameter window")
    p.add_argument("--axes", type=_axes, default="bz,r3", help="the two swept axes, e.g. bz,r3 or bz,bx")
    for dest in _RANGE_FLAG.values():
        name = dest.removesuffix("_range")
        p.add_argument(_flag(dest), type=_range, help=f"window for a swept {name} axis, LO:HI")
    p.add_argument("--grid", type=_grid, default="200", help="grid resolution N or N1xN2")
    p.set_defaults(handler=_cmd_separatrix)

    p = sub.add_parser("fidelity-map", parents=maps, help="ground-state fidelity on a (bz, bx) grid")
    components = [f.name for f in fields(FieldVector)]
    p.add_argument("--scan-axis", choices=components, default="bz", help="fidelity increment axis")
    p.add_argument("--d-increment", type=float, default=0.001, help="half-step of the fidelity stencil")
    p.set_defaults(handler=_cmd_fidelity_map)

    p = sub.add_parser("heatcap-map", parents=maps, help="heat capacity on a (bz, bx) grid")
    p.add_argument("--temps", type=_temps, required=True, help="comma-separated temperatures in kelvin")
    p.set_defaults(handler=_cmd_heatcap_map)

    p = sub.add_parser("compounds", parents=[output], help="list built-in parameter sets or export one")
    p.add_argument("--export", metavar="ID", type=_compound_id, help="write this compound as a key=value file")
    p.set_defaults(handler=_cmd_compounds)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_CONFIG
    if getattr(args, "tesla", False):
        for flag in _FIELD_FLAGS:
            value = getattr(args, flag, None)
            if value is not None:
                setattr(args, flag, _scaled(value, MU_B_OVER_KB))
    try:
        # every command writes --out but the compounds listing, which has no --export
        if args.out is None and getattr(args, "export", True):
            raise CliError("--out is required")
        if args.out is not None and not args.out.parent.is_dir():
            raise CliError(f"--out {args.out}: {args.out.parent} is not a directory")
        if args.plot_script and args.format == "json":
            raise CliError("--plot-script cannot be set: a gnuplot script reads csv, not --format json")
        # every table is computed before the first file is written
        for table in args.handler(args):
            head = [("tool", f"spinscape {__version__}"), ("command", table.command), *table.settings]
            writers.write_table(table.path, args.format or "csv", head, table.columns, table.rows)
            if args.plot_script and table.plot_script is not None:
                # each script is named after its own data file: --out hc with
                # two temperatures writes hc-T0.05.gp and hc-T0.07.gp
                script = table.path.name.removesuffix(args.out.suffix) + ".gp"
                table.path.with_name(script).write_text(table.plot_script, encoding="utf-8", newline="\n")
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
