"""Per-layer timings at the cutoffs of ``design.LADDER``.

    python bench/ladder.py OUT_JSON N_x,N_y,N_z:SUFFIX...

Metric names end in the cutoff's SUFFIX.  Uses the reference scenario
of ``holebox angle-map`` (its resolved default config).  At each cutoff
it runs, with every layer traced: ``reduce_model`` once,
``ReducedModel.rabi`` over a fixed set of field directions, and
``converged_rabi`` once.  It then times
``minimal_exact_qubit`` per call.  OUT_JSON receives the metrics and the
spans.  Needs holebox on PYTHONPATH.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from math import radians

import holebox.minimal
import holebox.numeric
from holebox.basis import BasisCutoff
from holebox.sweeps import resolve_spec

from design import LADDER_LAYERS  # bench/ is sys.path[0]
from tracer import Tracer, layer_totals

DIRECTIONS = tuple((t, p) for t in range(5, 90, 10) for p in range(0, 180, 18))
MINIMAL_CALLS = 1000


def run_ladder(ladder) -> tuple[dict[str, float], list[list]]:
    tracer = Tracer()
    tracer.install()
    metrics: dict[str, float] = {}
    spec = resolve_spec("angle-map")
    f = spec.fields
    for suffix, cutoff in ladder:
        cutoff = BasisCutoff(*cutoff)
        start = len(tracer.spans)
        reduced = holebox.numeric.reduce_model(
            spec.material, spec.geometry, spec.orientation, cutoff, f.E0,
            n_excited=spec.n_excited)
        reduce_totals = layer_totals(tracer.spans, start)

        start = len(tracer.spans)
        for t, p in DIRECTIONS:
            reduced.rabi(f.B, radians(t), radians(p), f.E_ac,
                         n_excited=spec.n_excited)
        rabi_totals = layer_totals(tracer.spans, start)

        start = len(tracer.spans)
        holebox.numeric.converged_rabi(
            spec.material, spec.geometry, spec.orientation, f, cutoff,
            n_excited=spec.n_excited)
        full_totals = layer_totals(tracer.spans, start)

        source = {"hamiltonian.assemble_static": reduce_totals,
                  "hamiltonian.magnetic_generators": reduce_totals,
                  "numeric.solve_spectrum": reduce_totals,
                  "numeric.reduce_model": reduce_totals,
                  "numeric.reduced_rabi": rabi_totals,
                  "numeric.pair_doublets": full_totals,
                  "numeric.rabi_sum_over_states": full_totals,
                  "numeric.converged_rabi": full_totals}
        for layer, quantity in LADDER_LAYERS:
            t = source[layer][layer]
            value = t["self_s"] if quantity == "self_s" \
                else t["total_s"] / t["calls"]
            metrics[f"{layer}.{quantity}.{suffix}"] = value

    start = len(tracer.spans)
    for k in range(MINIMAL_CALLS):
        fields = replace(f, theta=radians(90.0 * k / MINIMAL_CALLS))
        holebox.minimal.minimal_exact_qubit(spec.material, spec.geometry,
                                            spec.orientation, fields)
    t = layer_totals(tracer.spans, start)["minimal.minimal_exact_qubit"]
    metrics["minimal.minimal_exact_qubit.per_call_s"] = (t["total_s"]
                                                         / t["calls"])
    return metrics, tracer.spans


def main() -> int:
    ladder = []
    for item in sys.argv[2:]:
        cutoff, suffix = item.split(":")
        ladder.append((suffix, tuple(int(n) for n in cutoff.split(","))))
    metrics, spans = run_ladder(ladder)
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "spans": spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
