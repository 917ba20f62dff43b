"""Output checks for one ``holebox`` CLI run.

A run passes when its CSV header quotes the hash of its ``.cfg`` sidecar,
the sidecar is the config the benchmark asked for, the row count matches
the grid, and a seeded sample of rows agrees with values recomputed through
the public API.  Byte identity between repeated runs is checked by the
caller.  Imports holebox from this checkout's ``src``.
"""
from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import replace
from math import inf, radians, sqrt
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
from holebox import (DegenerateQubitError, NearDegeneracyError, PairingError,
                     SolverError, StrainConfig, converged_rabi, e0_max,
                     figures_of_merit, minimal_exact_qubit, minimal_exact_rabi,
                     mixed_subbands, rabi_linearized, rabi_thin_dot,
                     renormalized_rabi, strain_equivalent_height,
                     subband_params)  # noqa: E402
from holebox.sweeps import resolve_spec  # noqa: E402

# the CLI leaves a cell empty when one of these is raised for it
POINT_ERRORS = (DegenerateQubitError, NearDegeneracyError, PairingError,
                SolverError)
# Closed forms are recomputed by the same code on the same inputs and agree
# exactly.  Converged cells come from the reduced model in the CLI and from
# the full-basis converged_rabi here, which agree to ~1e-14 relative; many
# of them are symmetry zeros around 1e-13 GHz, hence the absolute part.
RTOL = 1e-8
ATOL = 1e-10    # in the cell's unit, GHz for frequencies
SAMPLE_ROWS = 8
SAMPLE_ROWS_CONVERGED = 1


def _guard(fn):
    try:
        return fn()
    except POINT_ERRORS:
        return None


def _tier(tier, spec, geometry, fields):
    args = (spec.material, geometry, spec.orientation, fields)
    if tier in ("analytic2", "analytic4"):
        return lambda: rabi_thin_dot(*args, int(tier[-1]))
    if tier == "minimal_exact":
        return lambda: minimal_exact_rabi(*args)
    if tier == "linearized":
        return lambda: rabi_linearized(*args)
    return lambda: converged_rabi(
        *args, spec.cutoff, n_excited=spec.n_excited,
        include_paramagnetic=(tier == "converged_full")).f_R


def _materials_table(spec, cells):
    m = next(m for m in spec.table_materials if m.name == cells["material"])
    fom = figures_of_merit(m)
    return {"gamma1": m.gamma1, "gamma2": m.gamma2, "gamma3": m.gamma3,
            "kappa": m.kappa, "m_z": fom.m_z, "m_xy": fom.m_xy,
            "zeta_110_x100": 100 * fom.zeta_110,
            "zeta_100_x100": 100 * fom.zeta_100,
            "zeta_prime_110_x100": 100 * fom.zeta_prime_110,
            "zeta_prime_100_x100": 100 * fom.zeta_prime_100}


def _e0_sweep(spec, cells):
    e0 = float(cells["E0"])
    fields = replace(spec.fields, E0=e0)
    f_R, f_L = minimal_exact_qubit(spec.material, spec.geometry,
                                   spec.orientation, fields)
    lin = _guard(_tier("linearized", spec, spec.geometry, fields))
    ren = None if lin is None else renormalized_rabi(
        lin, e0, spec.geometry, spec.material, orientation=spec.orientation,
        e_max=e0_max(spec.material, spec.geometry, spec.orientation))
    value = {"minimal_exact": f_R, "linearized": lin, "renormalized": ren}
    return {"f_L": f_L, **{f"f_R_{t}": value[t] for t in spec.tiers}}


def _lz_sweep(spec, cells):
    geometry = replace(spec.geometry, L_z=float(cells["L_z"]))
    return {f"f_R_{t}": _guard(_tier(t, spec, geometry, spec.fields))
            for t in spec.tiers}


def _angle_map(spec, cells):
    fields = replace(spec.fields, theta=radians(float(cells["theta_deg"])),
                     phi=radians(float(cells["phi_deg"])))
    return {f"f_R_{t}": _guard(_tier(t, spec, spec.geometry, fields))
            for t in spec.tiers}


def _strain_sweep(spec, cells):
    eps = float(cells["eps_parallel"])
    strain = StrainConfig(eps_parallel=eps)
    args = (spec.material, spec.geometry, spec.orientation)
    lz2 = strain_equivalent_height(spec.material, spec.geometry.L_z, eps)
    out = {"hh_weight": mixed_subbands(
               subband_params(*args, strain=strain))[0].heavy_weight,
           "lz_eff": sqrt(lz2) if 0.0 < lz2 < inf else None,
           "is_reference": float(eps == 0.0)}
    if not cells["f_R"]:
        # the optimizer failed for this strain: the whole optimum is empty
        return {**out, "f_R": None, "f_L": None, "theta_opt_deg": None,
                "phi_opt_deg": None}
    t, p = float(cells["theta_opt_deg"]), float(cells["phi_opt_deg"])
    fields = replace(spec.fields, theta=radians(t), phi=radians(p))
    out["f_R"], out["f_L"] = minimal_exact_qubit(*args, fields, strain=strain)
    # the reported optimum must not lose to the optimizer's own coarse scan
    coarse = max(minimal_exact_rabi(*args, replace(
        spec.fields, theta=radians(ct), phi=radians(cp)), strain=strain)
        for ct in range(0, 91, 10) for cp in range(0, 181, 10))
    out["f_R"] = max(out["f_R"], coarse)
    return out


def _grid_rows(spec):
    g = spec.grid
    if spec.kind == "materials-table":
        return len(spec.table_materials)
    if spec.kind == "angle-map":
        return g["theta_count"] * g["phi_count"]
    if spec.kind == "strain-sweep":
        eps = np.linspace(g["eps_min"], g["eps_max"], g["eps_count"])
        return g["eps_count"] + (0 if np.any(np.abs(eps) < 1e-15) else 1)
    return g[{"e0-sweep": "e0_count", "lz-sweep": "lz_count"}[spec.kind]]


RECOMPUTE = {"materials-table": _materials_table, "e0-sweep": _e0_sweep,
             "lz-sweep": _lz_sweep, "angle-map": _angle_map,
             "strain-sweep": _strain_sweep}


def _mismatch(got: str, want) -> bool:
    if want is None or got == "":
        return (want is None) != (got == "")
    return not abs(float(got) - want) <= ATOL + RTOL * abs(want)


def check_output(command, csv_path: Path, seed: int) -> list[str]:
    """Problems found in one run's output; empty when it passes."""
    csv_path = Path(csv_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    cfg = Path(f"{csv_path}.cfg").read_bytes()
    digest = hashlib.sha256(cfg).hexdigest()[:12]
    spec = resolve_spec(command.name, overrides=list(command.sets),
                        tiers=command.tiers)
    problems = []
    if lines[:2] != [f"# holebox {command.name}", f"# config-hash: {digest}"]:
        problems.append(f"header {lines[:2]} does not quote the sidecar "
                        f"hash {digest}")
    if spec.config_hash != digest:
        problems.append(f"sidecar hash {digest} is not that of the requested "
                        f"config, {spec.config_hash}")
    columns = lines[4].split(",")
    rows = [line.split(",") for line in lines[5:]]
    if len(rows) != _grid_rows(spec):
        problems.append(f"{len(rows)} rows, grid has {_grid_rows(spec)}")
    converged = any(t.startswith("converged") for t in spec.tiers)
    rng = random.Random(f"{seed}:{command.key}")
    sample = rng.sample(rows, min(len(rows), SAMPLE_ROWS_CONVERGED if converged
                                  else SAMPLE_ROWS))
    for row in sample:
        cells = dict(zip(columns, row))
        for column, want in RECOMPUTE[command.name](spec, cells).items():
            if _mismatch(cells[column], want):
                problems.append(f"row {','.join(row[:2])}: {column} = "
                                f"{cells[column]!r}, recomputed {want!r}")
    return problems
