"""End-to-end command-line checks, all in-process via main()."""

import json

import numpy as np
import pytest

import spinscape.cli as cli
import spinscape.landscape as landscape
from spinscape import MU_B_OVER_KB
from spinscape.eig import ConvergenceError


def _data_lines(path):
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


def test_compounds_listing(capsys):
    assert cli.main(["compounds"]) == 0
    out = capsys.readouterr().out
    assert "3-trigonal" in out
    assert "ii" in out
    assert out.count("\n") >= 18  # header plus 17 entries


def test_compounds_export_and_reuse(tmp_path):
    f = tmp_path / "trig.txt"
    assert cli.main(["compounds", "--export", "3-trigonal", "--out", str(f)]) == 0
    assert "b43 = 0.01" in f.read_text()

    out = tmp_path / "pot.csv"
    code = cli.main([
        "potential", "--compound-file", str(f),
        "--grid", "41", "--out", str(out),
    ])
    assert code == 0
    assert len(_data_lines(out)) == 42  # column row + 41 samples


def test_compounds_export_unknown_id(tmp_path):
    code = cli.main(["compounds", "--export", "nope", "--out", str(tmp_path / "f.txt")])
    assert code == 2


def test_spectrum_output_and_sidecar(tmp_path):
    out = tmp_path / "levels.csv"
    args = [
        "spectrum", "--compound", "3-trigonal",
        "--bz-range=-4:4", "--grid", "17", "--out", str(out),
    ]
    assert cli.main(args) == 0

    lines = out.read_text().splitlines()
    assert lines[0] == "# tool: spinscape 0.1.0"
    data = _data_lines(out)
    assert data[0] == "bz," + ",".join(f"e{i}" for i in range(11))
    assert len(data) == 18
    first = [float(v) for v in data[1].split(",")]
    assert first[0] == -4.0
    assert all(first[i] <= first[i + 1] for i in range(1, 11))

    sidecar = tmp_path / "levels.crossings.csv"
    side = _data_lines(sidecar)
    assert side[0] == "kind,bz"
    kinds = {row.split(",")[0] for row in side[1:]}
    assert "bifurcation" in kinds
    assert "maxwell_minima" in kinds

    # byte-identical rerun
    before = out.read_bytes(), sidecar.read_bytes()
    assert cli.main(args) == 0
    assert (out.read_bytes(), sidecar.read_bytes()) == before


def test_spectrum_skips_sidecar_out_of_plane(tmp_path):
    out = tmp_path / "levels.csv"
    code = cli.main([
        "spectrum", "--compound", "3", "--by", "0.1",
        "--bz-range=-1:1", "--grid", "5", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "levels.crossings.csv").exists()


def test_spectrum_json_format(tmp_path):
    out = tmp_path / "levels.json"
    code = cli.main([
        "spectrum", "--compound", "3", "--bz-range", "0:1",
        "--grid", "4", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "spinscape 0.1.0"
    assert doc["columns"][0] == "bz"
    assert len(doc["rows"]) == 4
    side = json.loads((tmp_path / "levels.crossings.json").read_text())
    assert side["columns"] == ["kind", "bz"]


def test_potential_with_r_params(tmp_path):
    out = tmp_path / "v.csv"
    code = cli.main([
        "potential", "--r-params", "r3=-0.679,r4=0.00076,r5=0.01",
        "--grid", "64", "--out", str(out),
    ])
    assert code == 0
    data = _data_lines(out)
    assert data[0] == "theta,v_plus,v_minus"
    rows = np.array([[float(v) for v in line.split(",")] for line in data[1:]])
    assert rows.shape == (64, 3)
    assert rows[0, 0] == 0.0
    assert abs(rows[-1, 0] - np.pi) < 1e-12
    # the trigonal term separates the branches away from the poles
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) > 1e-3
    # both branches agree at the poles
    assert abs(rows[0, 1] - rows[0, 2]) < 1e-12
    assert abs(rows[-1, 1] - rows[-1, 2]) < 1e-12


_R_PARAMS_COMMANDS = [
    ["potential"],
    ["spectrum", "--compound", "3", "--bz-range", "0:1", "--grid", "3"],
    ["separatrix", "--compound", "3", "--axes", "bz,r3", "--bz-range=-0.5:0.5",
     "--r3-range=-0.9:-0.2", "--grid", "16"],
]


def test_r_params_errors(tmp_path, capsys):
    out = str(tmp_path / "v.csv")
    assert cli.main(["potential", "--r-params", "r3=-1,r3=2", "--out", out]) == 2
    assert cli.main(["potential", "--r-params", "r9=-1", "--out", out]) == 2
    assert cli.main(["potential", "--r-params", "r3=abc", "--out", out]) == 2
    assert cli.main(["potential", "--r-params", "r3", "--out", out]) == 2
    # every command that takes the flag rejects it by name at parse time
    for base in _R_PARAMS_COMMANDS:
        for value in ("r3=-1,r3=2", "r9=-1", "r3=abc", "r3", "", ","):
            assert cli.main(base + [f"--r-params={value}", "--out", out]) == 2, (base[0], value)
            assert "--r-params" in capsys.readouterr().err, (base[0], value)
    assert list(tmp_path.iterdir()) == []


def test_spectrum_rejects_r_params_off_the_bx_bz_plane(tmp_path, monkeypatch, capsys):
    # with by != 0 there is no crossings sidecar for --r-params to set,
    # and r1 and r2 belong to --bx and the swept --bz-range; the command
    # refuses before it diagonalises anything
    def refuse(h):
        raise AssertionError("diagonalised before the flags were checked")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    cases = [
        (["--by", "0.1", "--r-params", "r3=1"], "--by"),
        (["--r-params", "r1=3"], "--bx"),
        (["--r-params", "bx=3,r3=1"], "--bx"),
        (["--r-params", "r2=5"], "--bz-range"),
        (["--r-params", "bz=5,r4=0.001"], "--bz-range"),
    ]
    for extra, owner in cases:
        code = cli.main([
            "spectrum", "--compound", "3", "--bz-range", "0:1", "--grid", "3",
            *extra, "--out", str(tmp_path / "f.csv"),
        ])
        assert code == 2, extra
        err = capsys.readouterr().err
        assert "--r-params" in err and owner in err, extra
        assert list(tmp_path.iterdir()) == []


def _failing_sweep(*args, **kwargs):
    raise ConvergenceError("synthetic failure in the crossings sweep")


_SPECTRUM = ["spectrum", "--compound", "3", "--bz-range", "0:1", "--grid", "3"]
_SEPARATRIX = ["separatrix", "--compound", "3-trigonal", "--bz-range=-0.5:0.5", "--grid", "16"]
# --bx and --r-params r1 both fix r1
_FIELD_TWICE = [
    ["potential", "--compound", "3", "--grid", "3", "--bx", "1", "--r-params", "r1=2"],
    _SEPARATRIX + ["--axes", "bz,r3", "--r3-range", "0:1", "--bx", "1", "--r-params", "r1=2"],
]


@pytest.mark.parametrize(
    "argv, code, sweep",
    [
        (_SPECTRUM + ["--r-params", "r9=1"], 2, None),
        (_SPECTRUM, 3, _failing_sweep),
        (_SEPARATRIX + ["--axes", "bz"], 2, None),
        (_SEPARATRIX + ["--axes", "bz,r3"], 2, None),
        (_SPECTRUM + ["--r-params", "bz=5,bx=3"], 2, None),
        (_SEPARATRIX + ["--axes", "bz,bx", "--bx-range", "0:1", "--r-params", "bz=5"], 2, None),
        (_SEPARATRIX + ["--axes", "bx,bz", "--bx-range", "0:1", "--r-params", "r3=-1,r1=2"], 2, None),
        (_SEPARATRIX + ["--axes", "bz,bx", "--bx-range", "0:1", "--bz", "5"], 2, None),
        (_SEPARATRIX + ["--axes", "bz,bx", "--bx-range", "0:1", "--bx", "0"], 2, None),
        (_SEPARATRIX + ["--axes", "bz,bx", "--bx-range", "0:1", "--r3-range", "0:1"], 2, None),
        (_SEPARATRIX + ["--axes", "bz,r3", "--r3-range", "0:1", "--two-s", "20"], 2, None),
        (["potential", "--compound", "3", "--grid", "5", "--two-s", "20"], 2, None),
        (_FIELD_TWICE[0], 2, None),
        (_FIELD_TWICE[1], 2, None),
    ],
    ids=[
        "spectrum-bad-r-params", "spectrum-crossings-fail", "separatrix-one-axis",
        "separatrix-no-r3-range", "spectrum-r-params-sets-swept-axis",
        "separatrix-r-params-sets-axis2", "separatrix-r-params-sets-axis1",
        "separatrix-bz-sets-axis1", "separatrix-bx-sets-axis2",
        "separatrix-range-of-unswept-axis", "separatrix-two-s-with-compound",
        "potential-two-s-with-compound", "potential-bx-with-r-params-r1",
        "separatrix-bx-with-r-params-r1",
    ],
)
def test_failed_command_writes_nothing(tmp_path, monkeypatch, capsys, argv, code, sweep):
    # a command writes its files only once all of its tables are computed;
    # a configuration error (exit 2) stops it before any landscape or
    # diagonalisation
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the flags were checked")

    if sweep is not None:
        monkeypatch.setattr(cli, "sweep_crossings", sweep)
    if code == 2:
        # the one stationary-point kernel behind every landscape
        monkeypatch.setattr(landscape, "_stationary", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert cli.main(argv + ["--plot-script", "--out", str(tmp_path / "f.csv")]) == code
    assert list(tmp_path.iterdir()) == []
    if "--r-params" in argv and code == 2:
        assert "--r-params" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _FIELD_TWICE, ids=["potential", "separatrix"])
def test_a_fixed_field_set_twice_names_both_flags(tmp_path, capsys, argv):
    # neither flag silently overrides the other; either one alone is taken
    out = tmp_path / "f.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--bx" in err and "--r-params" in err
    i = argv.index("--bx")
    assert cli.main(argv[:i] + argv[i + 2:] + ["--out", str(out)]) == 0
    assert "# r1: 2.0" in out.read_text().splitlines()


def test_conflicting_compound_sources(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("id = x\ntwo_s = 10\nd = -0.5\n")
    code = cli.main([
        "potential", "--compound", "3", "--compound-file", str(f),
        "--out", str(tmp_path / "v.csv"),
    ])
    assert code == 2


def test_two_s_sets_the_spin_only_without_a_compound(tmp_path, capsys):
    # without a compound 2S is --two-s, 10 by default; a compound fixes
    # 2S, so --two-s beside it is an error rather than silently unused
    out = tmp_path / "p.csv"
    for extra, two_s in (([], "10"), (["--two-s", "20"], "20")):
        assert cli.main(["potential", *extra, "--r-params", "r3=-1", "--grid", "5", "--out", str(out)]) == 0
        assert f"# two_s: {two_s}" in out.read_text().splitlines()
    out.unlink()
    f = tmp_path / "c.txt"
    f.write_text("id = x\ntwo_s = 10\nd = -0.5\n")
    separatrix = ["separatrix", "--axes", "bz,r3", "--bz-range=-0.5:0.5", "--r3-range=-1:0", "--grid", "5"]
    for command in (["potential", "--grid", "5"], separatrix):
        for source in (["--compound", "3"], ["--compound-file", str(f)]):
            assert cli.main([*command, *source, "--two-s", "20", "--out", str(out)]) == 2
            assert "--two-s" in capsys.readouterr().err
            assert not out.exists()


def test_unknown_compound_exits_2(tmp_path):
    code = cli.main([
        "spectrum", "--compound", "unobtainium",
        "--bz-range", "0:1", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_unreadable_compound_file(tmp_path):
    code = cli.main([
        "potential", "--compound-file", str(tmp_path / "missing.txt"),
        "--out", str(tmp_path / "v.csv"),
    ])
    assert code == 2


def test_bad_ranges_and_grids(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert cli.main(["spectrum", "--compound", "3", "--bz-range", "1:-1", "--out", out]) == 2
    assert cli.main(["spectrum", "--compound", "3", "--bz-range", "zz", "--out", out]) == 2
    assert cli.main(["spectrum", "--compound", "3", "--bz-range", "0:1", "--grid", "1", "--out", out]) == 2
    assert cli.main([
        "fidelity-map", "--compound", "3", "--bz-range", "0:1",
        "--bx-range", "0:1", "--grid", "3x", "--out", out,
    ]) == 2
    # one-dimensional commands take a single point count
    assert cli.main(["spectrum", "--compound", "3", "--bz-range", "0:1", "--grid", "7x300", "--out", out]) == 2
    assert cli.main(["potential", "--compound", "3", "--grid", "5x9", "--out", out]) == 2
    capsys.readouterr()
    # non-finite bounds are rejected by name before any work is done
    for argv, flag in [
        (["spectrum", "--compound", "3", "--bz-range=0:inf"], "--bz-range"),
        (["fidelity-map", "--compound", "3", "--bz-range", "0:1", "--bx-range=0:inf"], "--bx-range"),
        (["separatrix", "--compound", "3", "--axes", "bz,r3", "--bz-range=-inf:1",
          "--r3-range=-0.9:-0.2", "--grid", "16"], "--bz-range"),
    ]:
        assert cli.main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert flag in err and "finite" in err
    assert list(tmp_path.iterdir()) == []


def test_missing_required_flag_exits_2(tmp_path, capsys):
    assert cli.main(["spectrum", "--compound", "3", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_unwritable_output_path(tmp_path):
    code = cli.main([
        "potential", "--compound", "3",
        "--out", str(tmp_path / "no" / "such" / "dir" / "v.csv"),
    ])
    assert code == 2


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    def explode(h):
        raise ConvergenceError("synthetic non-convergence")

    monkeypatch.setattr(np.linalg, "eigh", explode)
    monkeypatch.setattr(np.linalg, "eigvalsh", explode)
    code = cli.main([
        "spectrum", "--compound", "3", "--bz-range", "0:1",
        "--grid", "4", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3


def test_fidelity_map_grid(tmp_path):
    out = tmp_path / "f.csv"
    code = cli.main([
        "fidelity-map", "--compound", "3-trigonal",
        "--bz-range", "0.13:0.15", "--bx-range", "2.2:2.21",
        "--grid", "5x2", "--out", str(out),
    ])
    assert code == 0
    data = _data_lines(out)
    assert data[0] == "bz,bx,fidelity"
    rows = np.array([[float(v) for v in line.split(",")] for line in data[1:]])
    assert rows.shape == (10, 3)
    assert np.all(rows[:, 2] >= 0.0) and np.all(rows[:, 2] <= 1.0 + 1e-12)
    # bz varies fastest within one bx column
    assert rows[0, 1] == rows[4, 1] == 2.2
    assert rows[5, 1] == 2.21
    assert rows[0, 0] == 0.13 and rows[4, 0] == 0.15


def test_heatcap_map_single_and_multi_temp(tmp_path):
    out = tmp_path / "c.csv"
    base = [
        "heatcap-map", "--compound", "3-trigonal",
        "--bz-range=-0.1:0.4", "--bx-range", "2.2:2.21", "--grid", "4x2",
    ]
    assert cli.main(base + ["--temps", "0.05", "--out", str(out)]) == 0
    assert out.exists()

    assert cli.main(base + ["--temps", "0.05,0.1", "--out", str(out)]) == 0
    t1 = tmp_path / "c-T0.05.csv"
    t2 = tmp_path / "c-T0.1.csv"
    assert t1.exists() and t2.exists()
    for p in (t1, t2):
        rows = np.array([
            [float(v) for v in line.split(",")] for line in _data_lines(p)[1:]
        ])
        assert rows.shape == (8, 3)
        assert np.all(rows[:, 2] >= 0.0)

    assert cli.main(base + ["--temps", "0.05,-0.1", "--out", str(out)]) == 2


def test_separatrix_window(tmp_path):
    out = tmp_path / "sep.csv"
    code = cli.main([
        "separatrix", "--axes", "bz,bx",
        "--r-params", "r3=-0.679,r4=0.00076,r5=0.01",
        "--bz-range=-0.8:0.8", "--bx-range", "1.6:2.4",
        "--grid", "18x16", "--out", str(out),
    ])
    assert code == 0
    data = _data_lines(out)
    kinds = set()
    for line in data[1:]:
        kind, poly, vertex, v1, v2 = line.split(",")
        kinds.add(kind)
        assert -0.8 <= float(v1) <= 0.8
        assert 1.6 <= float(v2) <= 2.4
    assert "bifurcation" in kinds
    assert "maxwell_minima" in kinds


def test_separatrix_unknown_axis_exits_2(tmp_path, capsys):
    out = tmp_path / "sep.csv"
    code = cli.main([
        "separatrix", "--axes", "bz,r9",
        "--r-params", "r3=-0.679",
        "--bz-range=-0.8:0.8", "--grid", "16", "--out", str(out),
    ])
    assert code == 2
    assert "'r9'" in capsys.readouterr().err
    assert not out.exists()


def test_separatrix_rejects_the_range_of_an_unswept_axis(tmp_path, capsys):
    out = tmp_path / "sep.csv"
    code = cli.main([
        "separatrix", "--compound", "3-trigonal", "--axes", "bz,bx",
        "--bz-range=-0.3:0.3", "--bx-range=-1:1", "--r3-range=0:1", "--grid", "5", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--r3-range" in err and "r3" in err
    assert not out.exists()


# Each case: a subcommand's fixed flags, and its field flags with values
# in tesla (a pair is a LO:HI window). The kelvin run must write the
# same files byte for byte, headers included.
_TESLA_CASES = [
    (["potential", "--compound", "3", "--grid", "32"], {"--bz": 0.5, "--bx": 0.8}),
    (["spectrum", "--compound", "3-trigonal", "--grid", "9"],
     {"--bx": 0.3, "--bz-range": (-3.0, 3.0)}),
    (["spectrum", "--compound", "3", "--grid", "9"],
     {"--bx": 0.3, "--by": 0.1, "--bz-range": (-1.5, 1.5)}),
    (["separatrix", "--compound", "3-trigonal", "--axes", "bz,r3",
      "--r3-range=-0.9:-0.2", "--grid", "16"],
     {"--bx": 0.3, "--bz-range": (-0.5, 0.5)}),
    (["separatrix", "--compound", "3-trigonal", "--axes", "bx,r3",
      "--r3-range=-0.9:-0.2", "--grid", "16"],
     {"--bz": 0.05, "--bx-range": (0.2, 2.0)}),
    (["fidelity-map", "--compound", "3-trigonal", "--grid", "4x3"],
     {"--bz-range": (-0.1, 0.4), "--bx-range": (2.0, 2.2), "--by": 0.01, "--d-increment": 0.002}),
    (["heatcap-map", "--compound", "3-trigonal", "--grid", "4x3", "--temps", "0.05"],
     {"--bz-range": (-0.1, 0.4), "--bx-range": (2.0, 2.2), "--by": 0.01}),
]


def _field_args(fields, factor):
    args = []
    for flag, value in fields.items():
        if isinstance(value, tuple):
            args.append(f"{flag}={value[0] * factor!r}:{value[1] * factor!r}")
        else:
            args.append(f"{flag}={value * factor!r}")
    return args


def test_tesla_rescales_fields(tmp_path):
    for i, (base, fields) in enumerate(_TESLA_CASES):
        runs = []
        for tesla in (True, False):
            d = tmp_path / f"{i}-{'tesla' if tesla else 'kelvin'}"
            d.mkdir()
            if tesla:
                argv = base + _field_args(fields, 1.0) + ["--tesla"]
            else:
                argv = base + _field_args(fields, MU_B_OVER_KB)
            assert cli.main(argv + ["--out", str(d / "out.csv")]) == 0, base
            runs.append({p.name: p.read_bytes() for p in d.iterdir()})
        assert runs[0] == runs[1], base
        if base[0] == "spectrum" and "--by" not in fields:
            crossings = runs[0]["out.crossings.csv"].decode()
            assert "bifurcation" in crossings and "maxwell_minima" in crossings


def test_plot_script_sidecar(tmp_path):
    out = tmp_path / "v.csv"
    code = cli.main([
        "potential", "--compound", "3", "--grid", "16",
        "--plot-script", "--out", str(out),
    ])
    assert code == 0
    gp = tmp_path / "v.gp"
    assert gp.exists()
    assert "v.csv" in gp.read_text()


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_heatcap_map_diagonalises_each_node_once(tmp_path, monkeypatch):
    base = [
        "heatcap-map", "--compound", "3-trigonal",
        "--bz-range=-0.1:0.4", "--bx-range", "2.2:2.21", "--grid", "4x2",
    ]
    temps = ("0.05", "0.1", "0.7")
    for t in temps:
        assert cli.main(base + ["--temps", t, "--out", str(tmp_path / f"single-{t}.csv")]) == 0

    matrices = []

    def counting(original):
        def solve(h):
            matrices.append(int(np.prod(h.shape[:-2])))
            return original(h)
        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    assert cli.main(base + ["--temps", ",".join(temps), "--out", str(tmp_path / "c.csv")]) == 0
    assert sum(matrices) == 8
    for t in temps:
        multi = (tmp_path / f"c-T{float(t)!r}.csv").read_bytes()
        assert multi == (tmp_path / f"single-{t}.csv").read_bytes()


@pytest.mark.parametrize("temps", ["0.05,inf", "0.05,0.050"])
def test_heatcap_map_bad_temps_write_nothing(tmp_path, temps):
    code = cli.main([
        "heatcap-map", "--compound", "3-trigonal",
        "--bz-range=-0.1:0.4", "--bx-range", "2.2:2.21", "--grid", "4x2",
        "--temps", temps, "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("d", ["0", "-1", "nan", "inf"])
def test_fidelity_map_bad_d_increment_writes_nothing(tmp_path, d):
    code = cli.main([
        "fidelity-map", "--compound", "3-trigonal",
        "--bz-range", "0.13:0.15", "--bx-range", "2.2:2.21", "--grid", "3x2",
        f"--d-increment={d}", "--out", str(tmp_path / "f.csv"),
    ])
    assert code == 2
    assert list(tmp_path.iterdir()) == []
