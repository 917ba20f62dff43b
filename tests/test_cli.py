import importlib.util
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import holebox
import holebox.cli as cli
import holebox.sweeps as sweeps
from holebox.numeric import SolverError


def test_successful_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = cli.main(["materials-table", "--out", str(out)])
    assert rc == 0
    assert out.is_file()
    assert (tmp_path / "table.csv.cfg").is_file()
    assert str(out) in capsys.readouterr().out


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["materials-table"])          # --out is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command", "--out", "x.csv"])
    assert exc.value.code == 1


def test_config_error_exits_one(tmp_path, capsys):
    rc = cli.main(["e0-sweep", "--out", str(tmp_path / "x.csv"),
                   "--set", "material.name=Adamantium"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    rc = cli.main(["e0-sweep", "--out", str(tmp_path / "y.csv"),
                   "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    rc = cli.main(["lz-sweep", "--out", str(tmp_path / "z.csv"),
                   "--tier", "minimal_exact"])   # not a closed-form tier
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["lz-sweep", "--set", "fields.E0=nan"],
    ["e0-sweep", "--set", "sweep.e0_max=inf", "--set", "sweep.e0_count=2"],
])
def test_non_finite_setting_exits_one_without_csv(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # N = 9216 is past the dimension guard of HamiltonianMatrix
    ["angle-map", "--tier", "converged_full", "--set", "solver.cutoff=16,16,9"],
    ["e0-sweep", "--set", "material.name="],
    ["e0-sweep", "--set", "material.name=Si,Ge"],
    ["lz-sweep", "--set", "sweep.lz_min=0"],
    ["e0-sweep", "--set", "fields.E_ac=-1", "--set", "sweep.e0_count=2"],
    # lengths and static fields outside the input domain of resolve_spec
    ["e0-sweep", "--set", "geometry.L_z=1e-9", "--set", "sweep.e0_count=2"],
    ["lz-sweep", "--set", "sweep.lz_max=1e300", "--set", "sweep.lz_count=3"],
    ["lz-sweep", "--set", "geometry.L_x=1e-9", "--set", "sweep.lz_count=3"],
    ["e0-sweep", "--set", "sweep.e0_min=-2e3", "--set", "sweep.e0_count=2"],
    ["e0-sweep", "--set", "material.name=X", "--set", "material.file={file}"],
])
def test_bad_input_exits_one_without_csv(tmp_path, capsys, argv):
    materials = tmp_path / "m.cfg"
    materials.write_text("[material.X]\ngamma1 = 9\ngamma2 = 1\n"
                         "gamma3 = 1\nkappa = nan\n")
    out = tmp_path / "x.csv"
    argv = [a.format(file=materials) for a in argv]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_strain_sweep_without_strain_params_exits_one(tmp_path, capsys):
    # rejected at run time, once the command actually needs nu and b_v
    rc = cli.main(["strain-sweep", "--out", str(tmp_path / "x.csv"),
                   "--set", "material.name=Ge", "--set", "sweep.eps_count=2"])
    assert rc == 1
    assert "strain parameters" in capsys.readouterr().err


def test_unwritable_output_exits_one(tmp_path, capsys):
    rc = cli.main(["materials-table", "--out",
                   str(tmp_path / "no" / "such" / "dir" / "t.csv")])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


def test_solver_error_exits_two(tmp_path, capsys, monkeypatch):
    def boom(spec, out):
        raise SolverError("synthetic failure")
    monkeypatch.setitem(cli._RUNNERS, "e0-sweep", boom)
    rc = cli.main(["e0-sweep", "--out", str(tmp_path / "x.csv"),
                   "--set", "sweep.e0_count=2"])
    assert rc == 2
    assert "solver error" in capsys.readouterr().err


def test_runs_are_reproducible_end_to_end(tmp_path):
    args = ["lz-sweep", "--set", "sweep.lz_count=3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tier_flag_reaches_output(tmp_path):
    out = tmp_path / "lz.csv"
    rc = cli.main(["lz-sweep", "--out", str(out), "--tier", "analytic2",
                   "--set", "sweep.lz_count=2"])
    assert rc == 0
    text = out.read_text("utf-8")
    assert "# tiers: analytic2" in text
    assert "f_R_analytic4" not in text


def test_threads_flag_gives_identical_angle_map(tmp_path):
    base = ["angle-map", "--tier", "analytic2,minimal_exact",
            "--set", "sweep.theta_count=4", "--set", "sweep.phi_count=5"]
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy is imported only where the converged-basis numerics use it, so
    # importing the CLI, which every command pays for, loads none of it;
    # nor OpenSSL, as the config hash uses the built-in SHA-256
    src = str(Path(holebox.__file__).resolve().parents[1])
    code = ("import sys, holebox.cli; "
            "print('scipy.optimize' in sys.modules, "
            "'scipy.sparse.linalg' in sys.modules, "
            "any(m.startswith('scipy') for m in sys.modules), "
            "'_hashlib' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False False False False"


def test_closed_form_commands_and_cli_exits_never_load_numpy(tmp_path):
    # import, --help, a config error and every command at its default tiers
    # run on Python floats, the exact minimal route and the strain-sweep
    # optimum included, so none of them may load numpy, scipy or the
    # converged numerics; a converged angle-map must load numpy. Modules
    # only accumulate, so each step is checked after the ones before it
    steps = [["--help"],
             ["e0-sweep", "--set", "geometry.L_x=0"],
             ["materials-table"],
             ["lz-sweep"],
             ["e0-sweep", "--set", "sweep.e0_count=3"],
             ["angle-map", "--set", "sweep.theta_count=3",
              "--set", "sweep.phi_count=4"],
             ["strain-sweep", "--set", "sweep.eps_count=2"],
             ["angle-map", "--tier", "converged_full",
              "--set", "solver.cutoff=3,3,2", "--set", "sweep.theta_count=2",
              "--set", "sweep.phi_count=2"]]
    src = str(Path(holebox.__file__).resolve().parents[1])
    code = ("import contextlib, io, json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m in ('numpy', 'holebox.hamiltonian',\n"
            "                           'holebox.numeric')\n"
            "                  or m.split('.')[0] == 'scipy')\n"
            "import holebox.cli\n"
            "print(json.dumps(['import', 0, loaded()]))\n"
            "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    if argv[0] != '--help':\n"
            "        argv = argv + ['--out', f'{sys.argv[2]}/{k}.csv']\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            rc = holebox.cli.main(argv)\n"
            "        except SystemExit as exc:\n"
            "            rc = exc.code\n"
            "    print(json.dumps([argv[0], rc, loaded()]))")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(steps),
                          str(tmp_path)], cwd=src, capture_output=True,
                         text=True, check=True)
    assert [json.loads(line) for line in res.stdout.splitlines()] == [
        ["import", 0, []], ["--help", 0, []], ["e0-sweep", 1, []],
        ["materials-table", 0, []], ["lz-sweep", 0, []],
        ["e0-sweep", 0, []], ["angle-map", 0, []], ["strain-sweep", 0, []],
        ["angle-map", 0, ["holebox.hamiltonian", "holebox.numeric", "numpy",
                          "scipy.linalg._flapack"]]]


def test_only_the_closed_form_commands_load_the_closed_forms(tmp_path):
    # --help, a config error, the materials table and an angle-map with
    # converged tiers only never import holebox.minimal, in one process;
    # each closed-form command, in a fresh process, does
    quiet = ["--set", "solver.cutoff=2,2,2", "--set", "sweep.theta_count=2",
             "--set", "sweep.phi_count=2"]
    src = str(Path(holebox.__file__).resolve().parents[1])
    code = ("import contextlib, io, json, sys\n"
            "import holebox.cli\n"
            "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    if argv[0] != '--help':\n"
            "        argv = argv + ['--out', f'{sys.argv[2]}/{k}.csv']\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            rc = holebox.cli.main(argv)\n"
            "        except SystemExit as exc:\n"
            "            rc = exc.code\n"
            "    print(json.dumps([rc, 'holebox.minimal' in sys.modules]))")

    def run(*steps):
        res = subprocess.run([sys.executable, "-c", code, json.dumps(steps),
                              str(tmp_path)], cwd=src, capture_output=True,
                             text=True, check=True)
        return [json.loads(line) for line in res.stdout.splitlines()]

    assert run(["--help"], ["e0-sweep", "--set", "geometry.L_x=0"],
               ["materials-table"],
               ["angle-map", "--tier", "converged_zeeman,converged_full",
                *quiet]) == [[0, False], [1, False], [0, False], [0, False]]
    for argv in (["e0-sweep", "--set", "sweep.e0_count=2"],
                 ["lz-sweep", "--set", "sweep.lz_count=2"],
                 ["angle-map", *quiet],
                 ["angle-map", "--tier", "analytic2,converged_full", *quiet],
                 ["strain-sweep", "--set", "sweep.eps_count=2"]):
        assert run(argv) == [[0, True]], argv


def test_closed_form_and_default_converged_commands_never_load_scipy(
        tmp_path):
    # the closed-form commands load nothing of scipy; the default converged
    # angle-map loads only scipy's LAPACK extension, for dsyevr, never the
    # scipy package. No run needs numpy.ma either (np.unique imports it on
    # first use), nor OpenSSL's _hashlib (hashlib imports it)
    runs = [["materials-table"],
            ["e0-sweep", "--set", "sweep.e0_count=3"],
            ["lz-sweep", "--set", "sweep.lz_count=2"],
            ["angle-map", "--set", "sweep.theta_count=3",
             "--set", "sweep.phi_count=4"],
            ["strain-sweep", "--set", "sweep.eps_count=2"],
            ["angle-map", "--tier", "converged_zeeman,converged_full"]]
    src = str(Path(holebox.__file__).resolve().parents[1])
    code = ("import json, sys, holebox.cli\n"
            "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    out = f'{sys.argv[2]}/{k}.csv'\n"
            "    assert holebox.cli.main(argv + ['--out', out]) == 0\n"
            "    if k in (4, 5):\n"
            "        print(sorted(m for m in sys.modules\n"
            "                     if m.startswith('scipy')))\n"
            "print('numpy.ma' in sys.modules)\n"
            "print('_hashlib' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(runs),
                          str(tmp_path)], cwd=src, capture_output=True,
                         text=True, check=True)
    # each run prints the path it wrote
    assert res.stdout.splitlines()[-6:] == [
        f"{tmp_path}/4.csv", "[]", f"{tmp_path}/5.csv",
        "['scipy.linalg._flapack']", "False", "False"]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        f"{k}.csv" for k in range(len(runs))]


def test_converged_run_above_1024_rows_loads_no_scipy_package(tmp_path):
    # cutoff (10,10,6) has a 1200-row mirror block; solving it must not
    # import the scipy package, which would load numpy.random and OpenSSL
    argv = ["angle-map", "--tier", "converged_full",
            "--set", "material.name=Ge", "--set", "geometry.orientation=100",
            "--set", "solver.cutoff=10,10,6", "--set", "sweep.theta_count=2",
            "--set", "sweep.phi_count=2", "--out", str(tmp_path / "ge.csv")]
    src = str(Path(holebox.__file__).resolve().parents[1])
    code = ("import json, sys, holebox.cli\n"
            "assert holebox.cli.main(json.loads(sys.argv[1])) == 0\n"
            "print([m for m in ('scipy', 'scipy.linalg', 'numpy.random',\n"
            "                   '_hashlib', 'scipy.linalg._flapack')\n"
            "       if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                         cwd=src, capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "['scipy.linalg._flapack']"
    assert (tmp_path / "ge.csv").is_file()


_CUBE = ["--set", "geometry.L_x=20", "--set", "geometry.L_y=20",
         "--set", "geometry.L_z=20"]


def test_cube_dot_exits_zero_with_empty_cells_not_nan(tmp_path):
    # L_x = L_y = L_z makes Q1 = R1 = 0, so |1+> is degenerate with the
    # ground doublet: the linearized |1+> channel would divide by
    # E1- - E1+ = 0 at every E0, and the exact route by a zero gap at E0 = 0.
    # Those cells are empty, with no floating-point warning (an error here)
    e0, am, ss = (tmp_path / f"{name}.csv" for name in ("e0", "am", "ss"))
    assert cli.main(["e0-sweep", "--out", str(e0), "--set",
                     "sweep.e0_count=3"] + _CUBE) == 0
    assert cli.main(["angle-map", "--out", str(am), "--set", "fields.E0=0",
                     "--set", "sweep.theta_count=3",
                     "--set", "sweep.phi_count=3"] + _CUBE) == 0
    # strain splits |1+> off, so only the unstrained row has no optimum
    assert cli.main(["strain-sweep", "--out", str(ss), "--set", "fields.E0=0",
                     "--set", "sweep.eps_count=2"] + _CUBE) == 0
    for out in (e0, am, ss):
        assert "nan" not in out.read_text("utf-8")
    lines = e0.read_text("utf-8").splitlines()
    assert lines[4] == ("E0,f_L,f_R_minimal_exact,f_R_linearized,"
                        "f_R_renormalized")
    rows = [line.split(",") for line in lines[5:]]
    assert rows[0] == ["0.0", "", "", "0.0", "0.0"]
    for row in rows[1:]:
        assert float(row[1]) > 0 and row[2] != "" and row[3:] == ["", ""]
    lines = am.read_text("utf-8").splitlines()
    assert lines[4].endswith(",f_R_minimal_exact") and len(lines) == 5 + 9
    assert all(line.endswith(",") for line in lines[5:])
    rows = [line.split(",") for line in ss.read_text("utf-8").splitlines()[5:]]
    assert [row[0] for row in rows] == ["0.0", "0.001"]
    assert rows[0][2:6] == ["", "", "", ""]
    assert "" not in rows[1][2:6]


@pytest.mark.parametrize("setting", ["fields.E_ac=0", "fields.B=0"])
def test_strain_sweep_on_a_flat_map_reports_the_origin(tmp_path, setting):
    # without drive or field f_R is 0 in every direction, so no direction
    # beats another and every row reports the origin, (0, 0)
    out = tmp_path / "flat.csv"
    assert cli.main(["strain-sweep", "--out", str(out), "--set", setting,
                     "--set", "sweep.eps_count=2"]) == 0
    rows = [line.split(",")
            for line in out.read_text("utf-8").splitlines()[5:]]
    assert len(rows) == 2
    for row in rows:
        assert row[2] == "0.0" and row[4:6] == ["0.0", "0.0"]


_SMALL_CONVERGED_MAP = ["angle-map", "--set", "solver.cutoff=3,3,2",
                        "--set", "sweep.theta_count=3",
                        "--set", "sweep.phi_count=4"]


def test_converged_angle_map_empty_at_zero_field(tmp_path):
    out = tmp_path / "b0.csv"
    rc = cli.main(_SMALL_CONVERGED_MAP + [
        "--out", str(out), "--tier", "minimal_exact,converged_full",
        "--set", "fields.B=0"])
    assert rc == 0
    lines = out.read_text("utf-8").splitlines()
    header = lines[4].split(",")
    rows = [line.split(",") for line in lines[5:]]
    assert len(rows) == 12
    col = header.index("f_R_converged_full")
    assert all(row[col] == "" for row in rows)


def test_threads_flag_gives_identical_converged_angle_map(tmp_path):
    base = _SMALL_CONVERGED_MAP + [
        "--tier", "minimal_exact,converged_zeeman,converged_full"]
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert cli.main(base + ["--out", str(a), "--threads", "1"]) == 0
    assert cli.main(base + ["--out", str(b), "--threads", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_must_be_positive(tmp_path, capsys):
    # accepted and unused, but still validated by the argument parser
    with pytest.raises(SystemExit) as exc:
        cli.main(["e0-sweep", "--out", str(tmp_path / "x.csv"),
                  "--threads", "0"])
    assert exc.value.code == 1
    assert "--threads" in capsys.readouterr().err


_REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv,calls", [
    (["e0-sweep", "--set", "sweep.e0_count=5"],
     {"minimal.minimal_exact_qubit": 5, "minimal.rabi_linearized": 5}),
    (["lz-sweep", "--set", "sweep.lz_count=4"],
     {"minimal.rabi_thin_dot": 8, "minimal.rabi_linearized": 4}),
    (["angle-map", "--tier", "analytic2,minimal_exact,converged_full",
      "--set", "solver.cutoff=3,3,2", "--set", "sweep.theta_count=3",
      "--set", "sweep.phi_count=3"],
     {"minimal.rabi_thin_dot": 9, "numeric.reduce_model": 1,
      "numeric.solve_spectrum": 1, "hamiltonian.assemble_static": 1,
      "hamiltonian.magnetic_generators": 6}),
])
def test_traced_run_sees_every_model_call(tmp_path, argv, calls):
    # bench/tracer.py rebinds the model functions in holebox.sweeps, so each
    # tier must look them up there at call time for its calls to be counted
    spans = tmp_path / "spans.json"
    env = dict(os.environ,
               PYTHONPATH=str(Path(holebox.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, str(_REPO / "bench" / "traced_cli.py"),
                    str(spans), *argv, "--out", str(tmp_path / "t.csv")],
                   env=env, capture_output=True, text=True, check=True)
    counts = Counter(span[0] for span in json.loads(spans.read_text()))
    assert {name: counts[name] for name in calls} == calls


def _load_bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", _REPO / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_ladder_and_checks_find_their_names(tmp_path, monkeypatch):
    # bench/ladder.py reads each layer's span from a named source, and
    # bench/checks.py imports the public API it recomputes cells with; a
    # rename in holebox must fail here, not first in the benchmark
    monkeypatch.setattr(sys, "path", list(sys.path))
    checks = _load_bench_module(monkeypatch, "checks")
    assert callable(checks.converged_rabi)
    design = _load_bench_module(monkeypatch, "design")
    out = tmp_path / "ladder.json"
    env = dict(os.environ,
               PYTHONPATH=str(Path(holebox.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, str(_REPO / "bench" / "ladder.py"),
                    str(out), "2,2,2:cX"],
                   env=env, capture_output=True, text=True, check=True)
    metrics = json.loads(out.read_text())["metrics"]
    want = {f"{layer}.{quantity}.cX"
            for layer, quantity in design.LADDER_LAYERS}
    assert set(metrics) == want | {"minimal.minimal_exact_qubit.per_call_s"}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("overrides", [
    [], ["geometry.orientation=100"], ["fields.E0=0.8"],
    ["geometry.L_x=25", "geometry.L_y=22"]])
def test_bench_check_accepts_every_strain_sweep_row(tmp_path, monkeypatch,
                                                    overrides):
    # the benchmark recomputes a sample of 8 rows; every row must pass
    monkeypatch.setattr(sys, "path", list(sys.path))
    checks = _load_bench_module(monkeypatch, "checks")
    spec = sweeps.resolve_spec("strain-sweep", overrides=overrides)
    lines = sweeps.run_strain_sweep(spec, tmp_path / "st.csv").read_text(
        "utf-8").splitlines()
    columns = lines[4].split(",")
    problems = []
    for line in lines[5:]:
        cells = dict(zip(columns, line.split(",")))
        problems += [(line, column, want) for column, want in
                     checks.RECOMPUTE["strain-sweep"](spec, cells).items()
                     if checks._mismatch(cells[column], want)]
    assert len(lines) == 5 + 41 and problems == []


# every command on a tiny grid; the converged angle-map at a small cutoff
_EDGE_COMMANDS = {
    "materials-table": ["materials-table"],
    "e0-sweep": ["e0-sweep", "--set", "sweep.e0_count=2"],
    "lz-sweep": ["lz-sweep", "--set", "sweep.lz_count=2"],
    "angle-map": ["angle-map", "--set", "sweep.theta_count=2",
                  "--set", "sweep.phi_count=2"],
    "strain-sweep": ["strain-sweep", "--set", "sweep.eps_count=2"],
    "angle-map-converged": _SMALL_CONVERGED_MAP[:3] + [
        "--tier", "converged_zeeman,converged_full",
        "--set", "sweep.theta_count=2", "--set", "sweep.phi_count=2"],
}
_EDGE_VALUES = ("0", "-1", "1e-300", "1e300", "nan")


def _numeric_keys(command: str) -> list[str]:
    keys = []
    for section, settings in sweeps._default_config(command).items():
        for key, raw in settings.items():
            try:
                float(raw)
            except ValueError:
                continue
            keys.append(f"{section}.{key}")
    return keys


@pytest.mark.parametrize("name", sorted(_EDGE_COMMANDS))
def test_every_numeric_setting_at_its_edges_exits_cleanly(tmp_path, capsys,
                                                           name):
    """Each numeric setting at 0, -1, 1e-300, 1e300 and nan either gives
    exit 1 with a config error, or exit 0 with finite cells and frequencies
    that are non-negative or empty; never a traceback or a warning (pytest
    turns warnings into errors here)."""
    argv = _EDGE_COMMANDS[name]
    out = tmp_path / "x.csv"
    failures = []
    for key in _numeric_keys(argv[0]):
        for value in _EDGE_VALUES:
            setting = f"{key}={value}"
            out.unlink(missing_ok=True)
            try:
                rc = cli.main(argv + ["--set", setting, "--out", str(out)])
            except Exception as err:        # a traceback from the CLI
                failures.append(f"{setting}: {type(err).__name__}: {err}")
                continue
            err = capsys.readouterr().err
            if rc == 1 and "config error" in err:
                continue
            if rc != 0:
                failures.append(f"{setting}: exit {rc}: {err.strip()}")
                continue
            lines = out.read_text("utf-8").splitlines()
            header = lines[4].split(",")
            for row in lines[5:]:
                for column, cell in zip(header, row.split(",")):
                    if cell == "" or column == "material":
                        continue
                    x = float(cell)
                    if not math.isfinite(x) or (
                            column.startswith(("f_R", "f_L")) and x < 0):
                        failures.append(f"{setting}: {column} = {cell}")
    assert failures == []
