"""In-memory spans around holebox layers, installed from outside the package.

A span is a list ``[name, parent, t0, t1, attrs]``; its id is its index in
``Tracer.spans`` and ``parent`` is the id of the enclosing span (-1 at the
root).  Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans written by a child process line up
with the spawn and reap times taken by the benchmark driver.

The parent of a span is the innermost open span, kept on one stack, so the
tracer assumes a single thread: the benchmark runs the CLI with
``--threads 1``.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from functools import wraps

# (module, attribute path, span name).  Each function is wrapped where its
# caller looks it up: sweeps and cli import names into their own module
# namespace, and numeric calls the hamiltonian assemblers through its own.
TARGETS = (
    ("holebox.cli", "resolve_spec", "sweeps.resolve_spec"),
    ("holebox.sweeps", "minimal_exact_rabi", "minimal.minimal_exact_rabi"),
    ("holebox.sweeps", "minimal_exact_qubit", "minimal.minimal_exact_qubit"),
    ("holebox.minimal", "minimal_exact_qubit", "minimal.minimal_exact_qubit"),
    ("holebox.sweeps", "rabi_thin_dot", "minimal.rabi_thin_dot"),
    ("holebox.sweeps", "rabi_linearized", "minimal.rabi_linearized"),
    ("holebox.sweeps", "reduce_model", "numeric.reduce_model"),
    ("holebox.numeric", "reduce_model", "numeric.reduce_model"),
    ("holebox.numeric", "converged_rabi", "numeric.converged_rabi"),
    ("holebox.numeric", "assemble_static", "hamiltonian.assemble_static"),
    ("holebox.numeric", "assemble_zeeman", "hamiltonian.magnetic_generators"),
    ("holebox.numeric", "assemble_paramagnetic",
     "hamiltonian.magnetic_generators"),
    ("holebox.numeric", "solve_spectrum", "numeric.solve_spectrum"),
    ("holebox.numeric", "pair_doublets", "numeric.pair_doublets"),
    ("holebox.numeric", "rabi_sum_over_states",
     "numeric.rabi_sum_over_states"),
    ("holebox.numeric", "ReducedModel.rabi", "numeric.reduced_rabi"),
)


def _static_attrs(H) -> dict:
    # imported here, so that loading the tracer does not load numpy before
    # traced_cli.py times the import of holebox.cli
    import numpy as np
    return {"dimension": H.dimension,
            "nnz": int(np.count_nonzero(H.matrix))}


# counts read off a layer's result; they run in a "trace.probe" span so
# their cost is booked as tracing overhead, not to any layer
PROBES = {
    "hamiltonian.assemble_static": _static_attrs,
    "numeric.solve_spectrum": lambda spectrum: {"n_states": spectrum.n_states},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; yields its attribute dict."""
        rec = self._open(name)
        rec[4] = {}
        try:
            yield rec[4]
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if probe is not None:
                with self.span("trace.probe"):
                    rec[4] = probe(result)
            return result
        return traced

    def install(self) -> None:
        """Replace every binding in TARGETS, and the CLI's command table,
        with traced wrappers.  Needs holebox importable."""
        for module, path, name in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        # cli.main dispatches through this table, so its entries are the
        # only handle on the sweeps.run_* call that main makes
        runners = importlib.import_module("holebox.cli")._RUNNERS
        for command, fn in runners.items():
            runners[command] = self.wrap("sweeps.run", fn)

    def dump(self, path: str) -> None:
        # one write: json.dump's many small writes cost 3x more here
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans))


def layer_totals(spans: list[list], start: int = 0) -> dict[str, dict]:
    """Per span name over ``spans[start:]``: calls, total and self seconds,
    and the largest value of each attribute.  Self time is the span's
    duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for rec in spans[start:]:
        if rec[1] >= 0:
            child_time[rec[1]] = child_time.get(rec[1], 0.0) + rec[3] - rec[2]
    totals: dict[str, dict] = {}
    for i, (name, _, t0, t1, attrs) in enumerate(spans[start:], start):
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "attrs": {}})
        t["calls"] += 1
        t["total_s"] += t1 - t0
        t["self_s"] += t1 - t0 - child_time.get(i, 0.0)
        for key, value in (attrs or {}).items():
            t["attrs"][key] = max(value, t["attrs"].get(key, value))
    return totals
