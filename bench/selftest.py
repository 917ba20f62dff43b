"""Fast self-test of the benchmark, on shrunken grids.

    python3 bench/selftest.py

Checks that ``BENCHMARK.json`` mirrors ``design.py``; that every workload,
shrunk, reports all its metrics with no failed operation, traced and
untraced; that the output checks catch corrupted output; and that the
benchmark refuses to run without the holebox sources.  Takes about a
minute.  Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from design import END_TO_END, PER_LAYER, WORKLOADS, Command, Workload

SHRINK = {
    "materials-table": ("materials.names=Si,Ge",),
    "e0-sweep": ("sweep.e0_count=3",),
    "lz-sweep": ("sweep.lz_count=3",),
    "angle-map": ("sweep.theta_count=3", "sweep.phi_count=4",
                  "solver.cutoff=4,4,3"),
    "strain-sweep": ("sweep.eps_count=2",),
}
# same metric names as design.LADDER, smaller cutoffs
SMALL_LADDER = (("c655", (3, 3, 2)), ("c885", (4, 4, 2)),
                ("c10106", (4, 4, 3)))


def shrink(workload: Workload) -> Workload:
    return replace(workload, commands=tuple(
        replace(c, sets=c.sets + SHRINK[c.name]) for c in workload.commands))


def check_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"], doc["command"]
    assert doc["paths"] == ["bench"], doc["paths"]
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
    assert all(m.moves for m in END_TO_END + PER_LAYER)


def check_workload(workload: Workload) -> None:
    small = shrink(workload)
    record = run.run_benchmark(small, 1, 0.0, False, setup_probes=1)
    result = run.result_line(record)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] == run.MIN_ITERATIONS * len(small.commands)
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    assert all(v["value"] > 0 for v in result["metrics"].values()), result

    record = run.run_benchmark(small, 2, 0.0, True, ladder=SMALL_LADDER)
    result = run.result_line(record)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(m) == [p.name for p in PER_LAYER]
    converged = any(c.tiers for c in workload.commands)
    assert (m["numeric.reduced_rabi.calls"] > 0) == converged, m
    assert (m["minimal.minimal_exact_qubit.calls"] > 0) != converged, m
    # what the named layers and cli.import_s leave is the interpreter's
    # start and exit, plus the tracer's own probes
    gap = m["trace.unaccounted_s"] - m["cli.start_exit_s"]
    assert -1e-9 < gap < 0.02 * m["trace.wall_s"], (gap, m["trace.wall_s"])
    print(f"ok {workload.name}: untraced and traced, "
          f"{result['attempted']} operations")


def check_output_checks() -> None:
    import checks

    workdir = run.OUT / "selftest-checks"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = Command("e0-sweep", sets=("sweep.e0_count=4",))
    csv = workdir / "e0.csv"
    child = run.run_child(run.CLI + tuple(command.argv(str(csv))),
                          run.child_env(), workdir / "stderr")
    assert child.code == 0, child.stderr
    assert checks.check_output(command, csv, 1) == []
    good_csv = csv.read_text()
    good_cfg = csv.with_suffix(".csv.cfg").read_text()
    head, rows = good_csv.split("f_R_renormalized\n")
    corruptions = {
        # f_L is about 24 GHz on every row
        "value": (head + "f_R_renormalized\n" + rows.replace(",2", ",3"),
                  good_cfg),
        "row count": (good_csv.rsplit("\n", 2)[0] + "\n", good_cfg),
        "sidecar": (good_csv, good_cfg.replace("e0_count = 4",
                                               "e0_count = 5")),
        "truncated": (good_csv[:40], good_cfg),
    }
    for what, (text, cfg) in corruptions.items():
        assert (text, cfg) != (good_csv, good_cfg), what
        csv.write_text(text)
        csv.with_suffix(".csv.cfg").write_text(cfg)
        inv = run.Invocation(command, csv, child)
        assert run.output_problems(inv, None, 1), f"missed corrupted {what}"
    shutil.rmtree(workdir)
    print("ok output checks catch corrupted output")


def check_refuses_without_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "closed_form_sweeps", "--seed", "1", "--seconds",
                          "1", "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=170)
    shutil.rmtree(bare)
    assert res.returncode != 0 and res.stdout == "", (res.returncode,
                                                      res.stdout)
    print("ok refuses to run without the holebox sources")


def main() -> int:
    check_benchmark_json()
    print("ok BENCHMARK.json mirrors design.py")
    check_output_checks()
    check_refuses_without_sources()
    for workload in WORKLOADS.values():
        check_workload(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
