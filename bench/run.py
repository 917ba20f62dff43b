"""holebox benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  holebox runs from source, with
``PYTHONPATH=src``, as ``holebox`` CLI subprocesses with ``--threads 1``
and the BLAS thread default.  Workloads and metrics are defined in
``bench/design.py``.

``--trace 0`` measures set-up (``SETUP_PROBES`` fresh interpreters each
importing ``holebox.cli``), then repeats the workload's invocations until
``--seconds`` have passed, at least ``MIN_ITERATIONS`` times, and reports
medians.  ``--trace 1`` runs the workload once untraced and once with
spans around each layer (``bench/traced_cli.py``), then the cutoff ladder
(``bench/ladder.py``), and reports the per-layer metrics.

One operation is one CLI invocation plus its output check; see
``bench/checks.py``.  The last line of standard output is the JSON result.
The full result, with samples and provenance, goes to
``.bench_out/BENCH_<workload>_seed<N>_trace<T>.json`` and the spans of a
traced run to ``.bench_out/SPANS_<workload>_seed<N>.json``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from design import END_TO_END, LADDER, PER_LAYER, WORKLOADS, Command, Workload
from tracer import layer_totals

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 120
# what the installed ``holebox`` console script runs
CLI = (sys.executable, "-c",
       "import sys; from holebox.cli import main; sys.exit(main())")
IMPORT_CLI = (sys.executable, "-c", "import holebox.cli")
TRACED_CLI = (sys.executable, str(BENCH / "traced_cli.py"))
LAYER_PREFIXES = ("sweeps.", "minimal.", "hamiltonian.", "numeric.")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    t_spawn: float
    t_reap: float
    stderr: str


@dataclass
class Invocation:
    command: Command
    csv: Path
    child: Child
    spans: list = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env, stderr_path: Path) -> Child:
    """Run one process to completion; its own peak RSS comes from wait4."""
    with open(stderr_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    t_reap = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, t_reap - t_spawn,
                 usage.ru_maxrss / 1024, t_spawn, t_reap,
                 stderr_path.read_text(errors="replace")[-2000:])


def run_iteration(workload: Workload, env, workdir: Path,
                  traced: bool) -> list[Invocation]:
    workdir.mkdir(parents=True)
    out = []
    for i, command in enumerate(workload.commands):
        csv = workdir / f"{i}-{command.name}.csv"
        spans_path = workdir / f"{i}.spans.json"
        prefix = TRACED_CLI + (str(spans_path),) if traced else CLI
        child = run_child(prefix + tuple(command.argv(str(csv))), env,
                          workdir / f"{i}.stderr")
        inv = Invocation(command, csv, child)
        if traced and child.code == 0:
            inv.spans = json.loads(spans_path.read_text())
        out.append(inv)
    return out


def iteration_wall(invs: list[Invocation]) -> float:
    return sum(inv.child.wall_s for inv in invs)


def check_iterations(iterations: list[list[Invocation]], seed: int,
                     failures: list[str]) -> tuple[int, int]:
    """Full check of each command's first successful run; every other run
    must reproduce its CSV and sidecar byte for byte."""
    attempted = failed = 0
    for runs in zip(*iterations):
        reference = None
        for inv in runs:
            problems = output_problems(inv, reference, seed)
            if reference is None and inv.child.code == 0:
                reference = inv
            attempted += 1
            failed += bool(problems)
            failures.extend(f"{inv.command.key}: {p}" for p in problems)
    return attempted, failed


def output_problems(inv: Invocation, reference: Invocation | None,
                    seed: int) -> list[str]:
    import checks  # loads numpy and holebox, so only after the timed runs

    if inv.child.code != 0:
        return [f"exit {inv.child.code}: {inv.child.stderr.strip()}"]
    if reference is None:
        try:
            return checks.check_output(inv.command, inv.csv, seed)
        except Exception as err:  # a malformed output is a failed run
            return [f"unreadable output: {err!r}"]
    if any(_read(inv.csv, suffix) != _read(reference.csv, suffix)
           for suffix in ("", ".cfg")):
        return ["output differs from the first run"]
    return []


def _read(csv: Path, suffix: str) -> bytes | None:
    try:
        return Path(f"{csv}{suffix}").read_bytes()
    except OSError:
        return None


def preflight(env) -> None:
    if not (ROOT / "src" / "holebox" / "cli.py").is_file():
        raise BenchError(f"no holebox sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    # also fills the bytecode cache, which an installed package has
    child = run_child(IMPORT_CLI, env, OUT / "preflight.stderr")
    if child.code != 0:
        raise BenchError(f"cannot import holebox.cli:\n{child.stderr}")


def measure(workload: Workload, seed: int, seconds: float, env,
            workdir: Path, setup_probes: int) -> dict:
    setup = []
    for _ in range(setup_probes):
        child = run_child(IMPORT_CLI, env, workdir / "setup.stderr")
        if child.code != 0:
            raise BenchError(f"cannot import holebox.cli:\n{child.stderr}")
        setup.append(child.wall_s)
    iterations: list[list[Invocation]] = []
    started = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or (
            time.perf_counter() - started
            + statistics.mean(map(iteration_wall, iterations)) <= seconds):
        iterations.append(run_iteration(workload, env,
                                        workdir / f"it{len(iterations)}",
                                        traced=False))
    samples = {
        "wall_s": [iteration_wall(it) for it in iterations],
        "setup_s": setup,
        "peak_rss_mb": [max(inv.child.rss_mb for inv in it)
                        for it in iterations],
    }
    failures: list[str] = []
    attempted, failed = check_iterations(iterations, seed, failures)
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {m.name: statistics.median(samples[m.name])
                    for m in END_TO_END},
        "samples": samples,
        "per_command_wall_s": {
            inv.command.key: [it[i].child.wall_s for it in iterations]
            for i, inv in enumerate(iterations[0])},
    }


def merge_spans(invs: list[Invocation]) -> list[list]:
    """One span list for the traced iteration: each invocation becomes a
    ``cli.invocation`` root, spawn to reap, over the spans its child wrote."""
    spans: list[list] = []
    for inv in invs:
        root = len(spans)
        spans.append(["cli.invocation", -1, inv.child.t_spawn,
                      inv.child.t_reap, {"command": inv.command.key}])
        for name, parent, t0, t1, attrs in inv.spans:
            spans.append([name, root if parent < 0 else parent + root + 1,
                          t0, t1, attrs])
    return spans


def layer_metrics(spans: list[list], traced: list[Invocation],
                  untraced: list[Invocation]) -> dict[str, float]:
    totals = layer_totals(spans)

    def get(name: str, key: str):
        return totals.get(name, {}).get(key, 0)

    def attr(name: str, key: str) -> int:
        return totals.get(name, {}).get("attrs", {}).get(key, 0)

    dimension = attr("hamiltonian.assemble_static", "dimension")
    wall = iteration_wall(traced)
    layers_self = sum(t["self_s"] for name, t in totals.items()
                      if name.startswith(LAYER_PREFIXES))
    metrics = {
        "cli.import_s": get("cli.import", "self_s"),
        "cli.modules_loaded": attr("cli.import", "modules_loaded"),
        "cli.start_exit_s": get("cli.invocation", "self_s")
        + get("cli.main", "self_s"),
        "sweeps.resolve_spec_s": get("sweeps.resolve_spec", "self_s"),
        "sweeps.self_s": get("sweeps.run", "self_s"),
        "sweeps.csv_bytes": sum(inv.csv.stat().st_size for inv in traced
                                if inv.csv.is_file()),
        "sweeps.minimal_exact_rabi.calls": sum(
            1 for name, parent, *_ in spans
            if name == "minimal.minimal_exact_rabi" and parent >= 0
            and spans[parent][0] == "sweeps.run"),
        "hamiltonian.dimension": dimension,
        "hamiltonian.h0_nnz": attr("hamiltonian.assemble_static", "nnz"),
        "hamiltonian.dense_bytes": 16 * dimension ** 2,
        "numeric.solve_spectrum.n_states": attr("numeric.solve_spectrum",
                                                "n_states"),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - iteration_wall(untraced),
        "trace.unaccounted_s": wall - get("cli.import", "self_s")
        - layers_self,
        "trace.spans": len(spans),
    }
    for m in PER_LAYER:
        layer, _, quantity = m.name.rpartition(".")
        if m.name not in metrics and quantity in ("calls", "self_s"):
            metrics[m.name] = get(layer, quantity)
    return metrics


def trace_run(workload: Workload, seed: int, env, workdir: Path,
              ladder) -> dict:
    untraced = run_iteration(workload, env, workdir / "untraced", traced=False)
    traced = run_iteration(workload, env, workdir / "traced", traced=True)
    ladder_json = workdir / "ladder.json"
    rungs = tuple(f"{','.join(map(str, c))}:{s}" for s, c in ladder)
    child = run_child((sys.executable, str(BENCH / "ladder.py"),
                       str(ladder_json)) + rungs, env,
                      workdir / "ladder.stderr")
    if child.code != 0:
        raise BenchError(f"cutoff ladder failed:\n{child.stderr}")
    ladder_out = json.loads(ladder_json.read_text())
    spans = merge_spans(traced)
    metrics = layer_metrics(spans, traced, untraced)
    metrics.update(ladder_out["metrics"])
    failures: list[str] = []
    attempted, failed = check_iterations([untraced, traced], seed, failures)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics,
            "spans": {"workload": spans, "ladder": ladder_out["spans"]}}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": _openblas_threads(numpy),
        "cli_threads": 1,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "holebox_from": "src/ via PYTHONPATH=src; nothing is installed",
        "platform": platform.platform(),
    }


def _openblas_threads(numpy) -> int | None:
    """Threads the bundled OpenBLAS uses by default, if it can be asked."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return res.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  *, ladder=LADDER, setup_probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; returns the full result record."""
    env = child_env()
    preflight(env)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            record = trace_run(workload, seed, env, workdir, ladder)
        else:
            record = measure(workload, seed, seconds, env, workdir,
                             setup_probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(workload=workload.name, seed=seed, seconds=seconds,
                  trace=trace, provenance=provenance(seed))
    return record


def result_line(record: dict) -> dict:
    wanted = PER_LAYER if record["trace"] else END_TO_END
    missing = [m.name for m in wanted if m.name not in record["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {m.name: {"value": record["metrics"][m.name],
                                 "unit": m.unit} for m in wanted}}


def report(record: dict, result: dict, path: Path) -> None:
    print(f"holebox benchmark: workload {record['workload']}, seed "
          f"{record['seed']}, trace {int(record['trace'])}")
    for name, metric in result["metrics"].items():
        n = len(record.get("samples", {}).get(name, ()))
        samples = f"   median of {n}" if n else ""
        print(f"  {name:48s} {metric['value']:>14.6g} "
              f"{metric['unit']}{samples}")
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    p = record["provenance"]
    print(f"  host: nproc {p['nproc']}, python {p['python']}, numpy "
          f"{p['numpy']}, scipy {p['scipy']}, {p['blas']} with "
          f"{p['blas_threads']} threads; {p['holebox_from']}")
    print(f"  full record: {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace))
        result = result_line(record)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    stem = f"{args.workload}_seed{args.seed}"
    path = OUT / f"BENCH_{stem}_trace{args.trace}.json"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"SPANS_{stem}.json").write_text(json.dumps(spans))
    path.write_text(json.dumps({**record, "result": result}, indent=1))
    report(record, result, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
