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
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .compounds import Compound, catalog, dump_compound, load_compound, lookup
from .eig import ConvergenceError
from .landscape import ReducedParams, potential_reduced, reduce_params
from .observables import fidelity_map, heatcap_map, spectra
from .separatrix import KINDS, PlaneSpec, _canonical_axis, classify_cell_edges, sweep_crossings
from .spin import (
    MU_B_OVER_KB,
    FieldVector,
    SpinSystem,
)
from . import writers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

#: range flag that feeds each canonical axis
_RANGE_FLAG = {"r1": "bx_range", "r2": "bz_range", "r3": "r3_range", "r4": "r4_range", "r5": "r5_range"}

#: fixed-field flag that sets each field axis
_FIELD_FLAG = {"r1": "bx", "r2": "bz"}

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


def _range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expects LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"bounds must be finite, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"needs LO < HI, got {text!r}")
    return lo, hi


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
        temps = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if any(not 0.0 < t < np.inf for t in temps):
        raise argparse.ArgumentTypeError(f"needs positive finite values, got {text!r}")
    if len(set(temps)) != len(temps):
        raise argparse.ArgumentTypeError(f"lists a temperature twice, got {text!r}")
    return temps


def _r_params(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"entries look like key=value, got {chunk!r}")
        try:
            name = _canonical_axis(key.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if name in out:
            raise argparse.ArgumentTypeError(f"sets {name} twice")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name}: {exc}") from None
    if not out:
        raise argparse.ArgumentTypeError("sets no parameter")
    return out


def _resolve_compound(args: argparse.Namespace) -> Compound | None:
    if getattr(args, "compound", None) and getattr(args, "compound_file", None):
        raise CliError("give either --compound or --compound-file, not both")
    if getattr(args, "compound", None):
        try:
            return lookup(args.compound)
        except KeyError as exc:
            raise CliError(str(exc.args[0])) from None
    if getattr(args, "compound_file", None):
        path = Path(args.compound_file)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from None
        try:
            return load_compound(text)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from None
    return None


def _require_compound(args: argparse.Namespace) -> Compound:
    compound = _resolve_compound(args)
    if compound is None:
        raise CliError("this command needs --compound or --compound-file")
    return compound


def _scaled(value: float | tuple[float, float], factor: float) -> float | tuple[float, float]:
    return tuple(v * factor for v in value) if isinstance(value, tuple) else value * factor


def _out_path(args: argparse.Namespace) -> Path:
    if not args.out:
        raise CliError("--out is required")
    return Path(args.out)


def _compound_settings(compound: Compound) -> list[tuple[str, str]]:
    a = compound.aniso
    return [
        ("compound", compound.id),
        ("two_s", str(compound.system.two_s)),
        ("d", repr(a.d)),
        ("e", repr(a.e)),
        ("b40", repr(a.b40)),
        ("b42", repr(a.b42)),
        ("b43", repr(a.b43)),
        ("b44", repr(a.b44)),
    ]


def _reduced_settings(rp: ReducedParams) -> list[tuple[str, str]]:
    return [
        ("r1", repr(rp.r1)),
        ("r2", repr(rp.r2)),
        ("r3", repr(rp.r3)),
        ("r4", repr(rp.r4)),
        ("r5", repr(rp.r5)),
        ("offset", repr(rp.offset)),
    ]


def _reduced_from_args(args: argparse.Namespace, compound: Compound | None) -> ReducedParams:
    """Fixed reduced parameters from compound, fixed fields, and overrides."""
    # separatrix leaves --bx and --bz at None unless they are given
    bx, bz = (getattr(args, flag, None) for flag in ("bx", "bz"))
    bx = 0.0 if bx is None else bx
    bz = 0.0 if bz is None else bz
    if compound is not None:
        rp = reduce_params(compound.system, compound.aniso, FieldVector(bx=bx, bz=bz))
    else:
        system = SpinSystem(getattr(args, "two_s", 10))
        rp = ReducedParams(r1=bx, r2=bz, r3=0.0, r4=0.0, r5=0.0, system=system)
    if args.r_params is not None:
        rp = replace(rp, **args.r_params)
    return rp


# ---------------------------------------------------------------- spectrum


def _cmd_spectrum(args: argparse.Namespace) -> list[_Table]:
    compound = _require_compound(args)
    lo, hi = args.bz_range
    n, bx, by = args.grid, args.bx, args.by
    out = _out_path(args)
    if by != 0.0 and args.r_params is not None:
        raise CliError("--r-params only sets the .crossings sidecar, which needs --by 0")
    for axis, owner in (("r1", "--bx sets it"), ("r2", "--bz-range sweeps it")):
        if axis in (args.r_params or {}):
            raise CliError(f"--r-params cannot set {axis}: {owner}")

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

    if by == 0.0:
        rp = _reduced_from_args(args, compound)
        sweep = sweep_crossings(rp, "r2", (lo, hi))
        cross_rows = [[kind, v] for kind, values in zip(KINDS, astuple(sweep)) for v in values]
        sidecar = out.with_name(out.stem + ".crossings" + out.suffix)
        side_settings = settings + _reduced_settings(rp)
        tables.append(_Table(sidecar, "spectrum.crossings", side_settings, ["kind", "bz"], cross_rows))
    return tables


# ---------------------------------------------------------------- potential


def _cmd_potential(args: argparse.Namespace) -> list[_Table]:
    compound = _resolve_compound(args)
    rp = _reduced_from_args(args, compound)
    n = args.grid
    out = _out_path(args)

    thetas = np.linspace(0.0, np.pi, n)
    v_plus = potential_reduced(thetas, rp, branch=1)
    v_minus = potential_reduced(thetas, rp, branch=-1)
    rows = [
        [float(t), float(vp), float(vm)]
        for t, vp, vm in zip(thetas, np.atleast_1d(v_plus), np.atleast_1d(v_minus))
    ]

    settings = (_compound_settings(compound) if compound else [("two_s", str(rp.system.two_s))])
    settings += _reduced_settings(rp) + [("grid", str(n))]
    script = writers.gnuplot_lines_script(out.name, 2, "reduced potential")
    return [_Table(out, "potential", settings, ["theta", "v_plus", "v_minus"], rows, script)]


# --------------------------------------------------------------- separatrix


def _cmd_separatrix(args: argparse.Namespace) -> list[_Table]:
    compound = _resolve_compound(args)
    rp = _reduced_from_args(args, compound)
    out = _out_path(args)

    names = [part.strip() for part in args.axes.split(",")]
    if len(names) != 2:
        raise CliError(f"--axes expects two comma-separated names, got {args.axes!r}")
    canon = [_canonical_axis(name) for name in names]
    ranges = [getattr(args, _RANGE_FLAG[axis]) for axis in canon]
    for name, axis, window in zip(names, canon, ranges):
        flag = "--" + _RANGE_FLAG[axis].replace("_", "-")
        if window is None:
            raise CliError(f"axis {name!r} needs {flag}")
        if axis in (args.r_params or {}):
            raise CliError(f"--r-params cannot set {axis}: the plane sweeps it over {flag}")
        field = _FIELD_FLAG.get(axis)
        if field is not None and getattr(args, field) is not None:
            raise CliError(f"--{field} cannot be set: the plane sweeps it over {flag}")
    n1, n2 = args.grid

    plane = PlaneSpec(
        axis1=canon[0],
        axis2=canon[1],
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

    settings = (_compound_settings(compound) if compound else [("two_s", str(rp.system.two_s))])
    settings += _reduced_settings(rp) + [
        ("axis1", names[0]),
        ("axis2", names[1]),
        ("range1", f"{ranges[0][0]!r}:{ranges[0][1]!r}"),
        ("range2", f"{ranges[1][0]!r}:{ranges[1][1]!r}"),
        ("grid", f"{n1}x{n2}"),
    ]
    columns = ["kind", "polyline", "vertex", names[0], names[1]]
    script = writers.gnuplot_separatrix_script(out.name, "separatrix")
    return [_Table(out, "separatrix", settings, columns, rows, script)]


# ------------------------------------------------------------- fidelity map


def _grid_axes(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray, dict[str, str]]:
    (z_lo, z_hi), (x_lo, x_hi), (n_z, n_x) = args.bz_range, args.bx_range, args.grid
    meta = {
        "bz_range": f"{z_lo!r}:{z_hi!r}",
        "bx_range": f"{x_lo!r}:{x_hi!r}",
        "grid": f"{n_z}x{n_x}",
    }
    return np.linspace(z_lo, z_hi, n_z), np.linspace(x_lo, x_hi, n_x), meta


def _map_rows(bz: np.ndarray, bx: np.ndarray, values: np.ndarray) -> list[list[float]]:
    return np.column_stack([np.tile(bz, bx.size), np.repeat(bx, bz.size), values.T.ravel()]).tolist()


def _cmd_fidelity_map(args: argparse.Namespace) -> list[_Table]:
    compound = _require_compound(args)
    out = _out_path(args)
    bz, bx, meta = _grid_axes(args)
    d, by = args.d_increment, args.by

    fmap = fidelity_map(
        compound.system, compound.aniso, bz, bx, by=by, axis=args.scan_axis, d=d
    )
    settings = _compound_settings(compound) + [
        ("by", repr(by)),
        ("scan_axis", args.scan_axis),
        ("d_increment", repr(d)),
        *meta.items(),
    ]
    rows = _map_rows(bz, bx, fmap.values)
    script = writers.gnuplot_map_script(out.name, "ground-state fidelity")
    return [_Table(out, "fidelity-map", settings, ["bz", "bx", "fidelity"], rows, script)]


# ------------------------------------------------------------ heat capacity


def _cmd_heatcap_map(args: argparse.Namespace) -> list[_Table]:
    compound = _require_compound(args)
    out = _out_path(args)
    bz, bx, meta = _grid_axes(args)
    temps, by = args.temps, args.by

    maps = heatcap_map(compound.system, compound.aniso, bz, bx, temps, by=by)
    tables: list[_Table] = []
    for t, values in zip(temps, maps):
        if len(temps) == 1:
            path = out
        else:
            path = out.with_name(f"{out.stem}-T{t!r}{out.suffix}")
        settings = _compound_settings(compound) + [
            ("by", repr(by)),
            ("temperature", repr(float(t))),
            *meta.items(),
        ]
        rows = _map_rows(bz, bx, values)
        script = writers.gnuplot_map_script(path.name, f"heat capacity, T={t!r} K")
        tables.append(_Table(path, "heatcap-map", settings, ["bz", "bx", "heat_capacity"], rows, script))
    return tables


# ---------------------------------------------------------------- compounds


def _cmd_compounds(args: argparse.Namespace) -> list[_Table]:
    if args.export:
        try:
            compound = lookup(args.export)
        except KeyError as exc:
            raise CliError(str(exc.args[0])) from None
        out = _out_path(args)
        out.write_text(dump_compound(compound), encoding="utf-8", newline="\n")
        return []

    fmt = "{:<12} {:>3} {:>9} {:>8} {:>12} {:>12} {:>8} {:>12}  {}"
    print(fmt.format("id", "2S", "d/K", "e/K", "b40/K", "b42/K", "b43/K", "b44/K", "source"))
    for c in catalog():
        a = c.aniso
        print(
            fmt.format(
                c.id,
                c.system.two_s,
                f"{a.d:g}",
                f"{a.e:g}",
                f"{a.b40:g}",
                f"{a.b42:g}",
                f"{a.b43:g}",
                f"{a.b44:g}",
                c.source,
            )
        )
    return []


# ------------------------------------------------------------------ parser


def _add_output_flags(p: argparse.ArgumentParser, out_required: bool = True) -> None:
    p.add_argument("--out", required=out_required, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument(
        "--plot-script",
        action="store_true",
        help="also write a gnuplot script next to the output (same stem, .gp)",
    )


def _add_compound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--compound", help="id of a built-in parameter set (see the compounds command)")
    p.add_argument("--compound-file", help="path to a key=value parameter file")


def _add_tesla_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tesla",
        action="store_true",
        help="field inputs are tesla instead of kelvin (times mu_B/k_B, about 0.6717 K/T)",
    )


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("spectrum", help="energy levels along an axial-field sweep")
    _add_compound_flags(p)
    p.add_argument("--bx", type=float, default=0.0, help="fixed transverse field (kelvin)")
    p.add_argument("--by", type=float, default=0.0, help="fixed transverse field (kelvin)")
    p.add_argument("--bz-range", type=_range, required=True, help="axial sweep window LO:HI")
    p.add_argument("--grid", type=_count, default="201", help="number of sweep points")
    p.add_argument("--r-params", type=_r_params, help="override reduced parameters for the sidecar (--by 0)")
    _add_tesla_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("potential", help="reduced polar potential on a theta grid")
    _add_compound_flags(p)
    p.add_argument("--two-s", type=int, default=10, help="2S when no compound is given")
    p.add_argument("--bx", type=float, default=0.0, help="transverse field (kelvin)")
    p.add_argument("--bz", type=float, default=0.0, help="axial field (kelvin)")
    p.add_argument("--r-params", type=_r_params, help="set reduced parameters, e.g. r3=-0.679,r4=0.0008")
    p.add_argument("--grid", type=_count, default="721", help="number of theta samples on [0, pi]")
    _add_tesla_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser("separatrix", help="transition curves in a two-parameter window")
    _add_compound_flags(p)
    p.add_argument("--two-s", type=int, default=10, help="2S when no compound is given")
    p.add_argument("--axes", default="bz,r3", help="the two swept axes, e.g. bz,r3 or bz,bx")
    p.add_argument("--bx", type=float, help="fixed transverse field when bx is not swept (default 0)")
    p.add_argument("--bz", type=float, help="fixed axial field when bz is not swept (default 0)")
    p.add_argument("--bz-range", type=_range, help="window for a swept bz axis, LO:HI")
    p.add_argument("--bx-range", type=_range, help="window for a swept bx axis, LO:HI")
    p.add_argument("--r3-range", type=_range, help="window for a swept r3 axis, LO:HI")
    p.add_argument("--r4-range", type=_range, help="window for a swept r4 axis, LO:HI")
    p.add_argument("--r5-range", type=_range, help="window for a swept r5 axis, LO:HI")
    p.add_argument("--r-params", type=_r_params, help="override fixed reduced parameters")
    p.add_argument("--grid", type=_grid, default="200", help="grid resolution N or N1xN2")
    _add_tesla_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_separatrix)

    p = sub.add_parser("fidelity-map", help="ground-state fidelity on a (bz, bx) grid")
    _add_compound_flags(p)
    p.add_argument("--bz-range", type=_range, required=True, help="axial window LO:HI")
    p.add_argument("--bx-range", type=_range, required=True, help="transverse window LO:HI")
    p.add_argument("--grid", type=_grid, default="101", help="grid resolution N or Nz x Nx (NzxNx)")
    p.add_argument("--by", type=float, default=0.0, help="fixed out-of-plane field (kelvin)")
    p.add_argument("--scan-axis", choices=("bx", "by", "bz"), default="bz", help="fidelity increment axis")
    p.add_argument("--d-increment", type=float, default=0.001, help="half-step of the fidelity stencil")
    _add_tesla_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_fidelity_map)

    p = sub.add_parser("heatcap-map", help="heat capacity on a (bz, bx) grid")
    _add_compound_flags(p)
    p.add_argument("--bz-range", type=_range, required=True, help="axial window LO:HI")
    p.add_argument("--bx-range", type=_range, required=True, help="transverse window LO:HI")
    p.add_argument("--grid", type=_grid, default="101", help="grid resolution N or NzxNx")
    p.add_argument("--by", type=float, default=0.0, help="fixed out-of-plane field (kelvin)")
    p.add_argument("--temps", type=_temps, required=True, help="comma-separated temperatures in kelvin")
    _add_tesla_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_heatcap_map)

    p = sub.add_parser("compounds", help="list built-in parameter sets or export one")
    p.add_argument("--export", metavar="ID", help="write this compound as a key=value file")
    _add_output_flags(p, out_required=False)
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
        # every table is computed before the first file is written
        for table in args.handler(args):
            head = [("tool", f"spinscape {__version__}"), ("command", table.command), *table.settings]
            writers.write_table(table.path, args.format, head, table.columns, table.rows)
            if args.plot_script and table.plot_script is not None:
                table.path.with_suffix(".gp").write_text(table.plot_script, encoding="utf-8", newline="\n")
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
