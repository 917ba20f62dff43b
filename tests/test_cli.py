import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import holebox
import holebox.cli as cli
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
    # importing the CLI, which every command pays for, loads none of it
    src = str(Path(holebox.__file__).resolve().parents[1])
    code = ("import sys, holebox.cli; "
            "print('scipy.optimize' in sys.modules, "
            "'scipy.sparse.linalg' in sys.modules, "
            "any(m.startswith('scipy') for m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False False False"


def test_closed_form_commands_never_load_scipy(tmp_path):
    runs = [["materials-table"],
            ["e0-sweep", "--set", "sweep.e0_count=3"],
            ["lz-sweep", "--set", "sweep.lz_count=2"],
            ["angle-map", "--set", "sweep.theta_count=3",
             "--set", "sweep.phi_count=4"],
            ["strain-sweep", "--set", "sweep.eps_count=2"]]
    src = str(Path(holebox.__file__).resolve().parents[1])
    code = ("import json, sys, holebox.cli\n"
            "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    out = f'{sys.argv[2]}/{k}.csv'\n"
            "    assert holebox.cli.main(argv + ['--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(runs),
                          str(tmp_path)], cwd=src, capture_output=True,
                         text=True, check=True)
    assert res.stdout.splitlines()[-1] == "[]"
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        f"{k}.csv" for k in range(len(runs))]


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
