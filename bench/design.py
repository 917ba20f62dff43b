"""The benchmark's design: workloads, metrics, and what each metric should
move.  ``BENCHMARK.json`` at the repository root mirrors these tables and
``selftest.py`` checks that the two agree.

Each workload is a list of ``holebox`` CLI invocations at fixed configs; the
seed only picks which output cells are recomputed for the correctness
check, so every seed runs the same work.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One ``holebox`` invocation: subcommand, optional tiers, overrides."""
    name: str
    tiers: str | None = None
    sets: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return self.name + (f"[{self.tiers}]" if self.tiers else "")

    def argv(self, out: str) -> list[str]:
        argv = [self.name, "--out", out, "--threads", "1"]
        if self.tiers:
            argv += ["--tier", self.tiers]
        for item in self.sets:
            argv += ["--set", item]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "closed_form_sweeps",
        "All five commands at their defaults: five interpreter start-ups and "
        "~15k minimal_exact_rabi calls, no full-basis matrix; the bypass case "
        "for hamiltonian/numeric work.",
        tuple(Command(c) for c in ("materials-table", "e0-sweep", "lz-sweep",
                                   "angle-map", "strain-sweep"))),
    Workload(
        "converged_angle_map",
        "One (8,8,5) static solve reused over 8,372 per-direction "
        "ReducedModel.rabi evaluations, so per-direction response work "
        "dominates.",
        (Command("angle-map", tiers="converged_zeeman,converged_full"),)),
    Workload(
        "converged_large_basis",
        "Ge [100] at cutoff (10,10,6) on a 3x3 grid: assembly, the dense "
        "solve and memory dominate, per-direction work is 9 calls.",
        (Command("angle-map", tiers="converged_full",
                 sets=("material.name=Ge", "geometry.orientation=100",
                       "solver.cutoff=10,10,6", "sweep.theta_count=3",
                       "sweep.phi_count=3")),)),
)}

# cutoff ladder of the traced run: (metric suffix, cutoff)
LADDER = (("c655", (6, 6, 5)), ("c885", (8, 8, 5)), ("c10106", (10, 10, 6)))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str          # the end-to-end metric and workload it should move
    bound: float | None = None


END_TO_END = (
    Metric("wall_s", "s", "lower",
           "all CLI invocations of one workload iteration, start-up included",
           bound=0.24),
    Metric("setup_s", "s", "lower",
           "a fresh interpreter importing holebox.cli, paid by every "
           "invocation", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "largest resident set of any CLI child in the iteration",
           bound=0.05),
)

_CLOSED = "wall_s on closed_form_sweeps; nothing elsewhere"
_ANGLE = "wall_s on converged_angle_map; nothing on closed_form_sweeps"
_LARGE = ("wall_s and peak_rss_mb on converged_large_basis; wall_s on "
          "converged_angle_map by about a fifth of that; nothing on "
          "closed_form_sweeps")
_SOLVE = "wall_s on converged_large_basis; nothing on closed_form_sweeps"
_LADDER = "per-layer scaling with the cutoff (ROADMAP item 1); no workload"
_TRACE = "describes the traced run itself"

_WORKLOAD_LAYERS = (
    Metric("cli.import_s", "s", "lower",
           "setup_s on every workload; wall_s on closed_form_sweeps"),
    Metric("cli.modules_loaded", "count", "lower",
           "setup_s on every workload; wall_s on closed_form_sweeps"),
    Metric("cli.start_exit_s", "s", "lower",
           "interpreter start and exit plus argument parsing; setup_s"),
    Metric("sweeps.resolve_spec_s", "s", "lower", _CLOSED),
    Metric("sweeps.self_s", "s", "lower", _CLOSED),
    Metric("sweeps.csv_bytes", "bytes", "lower", "none: output size check"),
    Metric("sweeps.minimal_exact_rabi.calls", "count", "lower", _CLOSED),
    Metric("minimal.minimal_exact_rabi.calls", "count", "lower", _CLOSED),
    Metric("minimal.minimal_exact_rabi.self_s", "s", "lower", _CLOSED),
    Metric("minimal.minimal_exact_qubit.calls", "count", "lower", _CLOSED),
    Metric("minimal.minimal_exact_qubit.self_s", "s", "lower", _CLOSED),
    Metric("minimal.rabi_thin_dot.self_s", "s", "lower", _CLOSED),
    Metric("minimal.rabi_linearized.self_s", "s", "lower", _CLOSED),
    Metric("hamiltonian.assemble_static.self_s", "s", "lower", _LARGE),
    Metric("hamiltonian.magnetic_generators.self_s", "s", "lower", _LARGE),
    Metric("hamiltonian.dimension", "count", "lower", _LARGE),
    Metric("hamiltonian.h0_nnz", "count", "lower", _LARGE),
    Metric("hamiltonian.dense_bytes", "bytes_computed", "lower", _LARGE),
    Metric("numeric.solve_spectrum.self_s", "s", "lower", _SOLVE),
    Metric("numeric.solve_spectrum.n_states", "count", "lower", _SOLVE),
    Metric("numeric.reduce_model.self_s", "s", "lower", _SOLVE),
    Metric("numeric.reduced_rabi.calls", "count", "lower", _ANGLE),
    Metric("numeric.reduced_rabi.self_s", "s", "lower", _ANGLE),
    Metric("numeric.rabi_sum_over_states.calls", "count", "lower", _ANGLE),
    Metric("numeric.rabi_sum_over_states.self_s", "s", "lower", _ANGLE),
    Metric("numeric.pair_doublets.calls", "count", "lower", _ANGLE),
    Metric("numeric.pair_doublets.self_s", "s", "lower", _ANGLE),
    Metric("trace.wall_s", "s", "lower", _TRACE + ": traced wall_s"),
    Metric("trace.overhead_s", "s", "lower",
           _TRACE + ": traced wall_s minus untraced wall_s"),
    Metric("trace.unaccounted_s", "s", "lower",
           _TRACE + ": traced wall_s minus cli.import_s and the self times "
           "of the sweeps, minimal, hamiltonian and numeric layers"),
    Metric("trace.spans", "count", "lower", _TRACE),
)

# (layer, quantity) timed at each cutoff of LADDER
LADDER_LAYERS = (
    ("hamiltonian.assemble_static", "self_s"),
    ("hamiltonian.magnetic_generators", "self_s"),
    ("numeric.solve_spectrum", "self_s"),
    ("numeric.reduce_model", "self_s"),
    ("numeric.reduced_rabi", "per_call_s"),
    ("numeric.pair_doublets", "self_s"),
    ("numeric.rabi_sum_over_states", "self_s"),
    ("numeric.converged_rabi", "per_call_s"),
)

PER_LAYER = _WORKLOAD_LAYERS + tuple(
    Metric(f"{layer}.{quantity}.{suffix}", "s", "lower", _LADDER)
    for suffix, _ in LADDER for layer, quantity in LADDER_LAYERS) + (
    Metric("minimal.minimal_exact_qubit.per_call_s", "s", "lower", _LADDER),
)
