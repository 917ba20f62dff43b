"""Sweep orchestration and deterministic CSV emission.

A sweep is described by an INI config (same key = value format as the
material files). Built-in defaults describe the reference scenario: a
Si 40x30x10 nm box, B = 1 T along y+z (theta = 45, phi = 90 degrees,
azimuth from the x axis), E0 = 0.1 mV/nm, E_ac = 0.03 mV/nm.

CSV files are byte-deterministic: floats use the shortest round-trip
representation, absent values are empty cells, metadata lines are
prefixed with '#', and the fully resolved config is echoed to a sidecar
'<out>.cfg' whose hash is quoted in the CSV header.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import inf, radians, sqrt
from pathlib import Path

import numpy as np

from .basis import BasisCutoff
from .hamiltonian import BoxGeometry, FieldConfig, Orientation, StrainConfig
from .materials import (MaterialParams, builtin_materials, figures_of_merit,
                        get_material, load_materials)
from .minimal import (DegenerateQubitError, NearDegeneracyError,
                      e0_max, minimal_exact_qubit, minimal_exact_rabi,
                      mixed_subbands, rabi_linearized, rabi_thin_dot,
                      renormalized_rabi, strain_equivalent_height,
                      subband_params)
from .numeric import PairingError, SolverError, reduce_model

COMMANDS = ("materials-table", "e0-sweep", "lz-sweep", "angle-map",
            "strain-sweep")

ALLOWED_TIERS = {
    "materials-table": (),
    "e0-sweep": ("minimal_exact", "linearized", "renormalized"),
    "lz-sweep": ("analytic2", "analytic4", "linearized"),
    "angle-map": ("analytic2", "analytic4", "minimal_exact",
                  "converged_zeeman", "converged_full"),
    "strain-sweep": ("minimal_exact",),
}

DEFAULT_TIERS = {
    "materials-table": (),
    "e0-sweep": ("minimal_exact", "linearized", "renormalized"),
    "lz-sweep": ("analytic2", "analytic4", "linearized"),
    "angle-map": ("analytic2", "analytic4", "minimal_exact"),
    "strain-sweep": ("minimal_exact",),
}

_UNITS = ("L=nm, E0=mV/nm, E_ac=mV/nm, B=T, theta=deg, phi=deg, "
          "f_L=GHz, f_R=GHz, eps_parallel=dimensionless, lz_eff=nm")

_POINT_ERRORS = (DegenerateQubitError, NearDegeneracyError, PairingError,
                 SolverError)


class ConfigError(ValueError):
    """Invalid or inconsistent sweep configuration."""


def _default_config(command: str) -> dict[str, dict[str, str]]:
    cfg = {
        "material": {"name": "Si", "file": ""},
        "geometry": {"L_x": "40", "L_y": "30", "L_z": "10",
                     "orientation": "110"},
        "fields": {"B": "1.0", "theta_deg": "45", "phi_deg": "90",
                   "E0": "0.1", "E_ac": "0.03"},
        "solver": {"cutoff": "8,8,5", "n_excited": "40"},
    }
    if command == "materials-table":
        cfg["materials"] = {"names": "Si,Ge,InP,GaAs,InAs,InSb", "file": ""}
    sweep = {
        "e0-sweep": {"e0_min": "0.0", "e0_max": "1.0", "e0_count": "101"},
        "lz-sweep": {"lz_min": "1.0", "lz_max": "10.0", "lz_count": "10"},
        "angle-map": {"theta_min_deg": "0", "theta_max_deg": "90",
                      "theta_count": "46", "phi_min_deg": "0",
                      "phi_max_deg": "180", "phi_count": "91"},
        "strain-sweep": {"eps_min": "0.0", "eps_max": "0.001",
                         "eps_count": "41"},
    }.get(command)
    if sweep is not None:
        cfg["sweep"] = sweep
    return cfg


@dataclass(frozen=True)
class SweepSpec:
    """A fully resolved sweep: physics inputs, grid, tiers, provenance."""
    kind: str
    tiers: tuple[str, ...]
    material: MaterialParams
    geometry: BoxGeometry
    orientation: Orientation
    fields: FieldConfig
    cutoff: BasisCutoff
    n_excited: int
    grid: dict[str, float]
    threads: int
    resolved_text: str
    config_hash: str
    table_materials: tuple[MaterialParams, ...] = ()


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from err


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from err


def _canonical_text(cfg: dict[str, dict[str, str]]) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for section in sorted(cfg):
        parser[section] = dict(sorted(cfg[section].items()))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _resolve_material(cfg: dict[str, dict[str, str]],
                      section: str, name_key: str) -> list[MaterialParams]:
    file_path = cfg[section].get("file", "").strip()
    names = [n.strip() for n in cfg[section][name_key].split(",") if n.strip()]
    if file_path:
        pool = {m.name: m for m in load_materials(Path(file_path))}
        for m in builtin_materials():
            pool.setdefault(m.name, m)
    else:
        pool = {m.name: m for m in builtin_materials()}
    out = []
    for name in names:
        if name not in pool:
            raise ConfigError(
                f"unknown material {name!r}; available: {', '.join(sorted(pool))}")
        out.append(pool[name])
    return out


def resolve_spec(command: str, config_path: str | Path | None = None,
                 overrides: list[str] | None = None,
                 tiers: str | None = None, threads: int = 1) -> SweepSpec:
    """Merge defaults, config file and key=value overrides into a SweepSpec."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = _default_config(command)

    if config_path is not None:
        parser = configparser.ConfigParser(interpolation=None, strict=True)
        parser.optionxform = str
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        except configparser.Error as err:
            raise ConfigError(f"{path}: {err}") from err
        for section in parser.sections():
            if section not in cfg:
                raise ConfigError(f"{path}: unknown section [{section}] "
                                  f"for {command}")
            for key, value in parser[section].items():
                if key not in cfg[section]:
                    raise ConfigError(f"{path}: unknown key {key!r} in "
                                      f"[{section}]")
                cfg[section][key] = value

    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like "
                              "section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"override targets unknown setting "
                              f"[{section}] {key}")
        cfg[section][key] = value

    if tiers is None:
        tier_tuple = DEFAULT_TIERS[command]
    else:
        requested = [t.strip() for t in tiers.split(",") if t.strip()]
        allowed = ALLOWED_TIERS[command]
        for t in requested:
            if t not in allowed:
                raise ConfigError(
                    f"tier {t!r} not valid for {command}; allowed: "
                    f"{', '.join(allowed) or 'none'}")
        # canonical order, duplicates dropped
        tier_tuple = tuple(t for t in allowed if t in requested)
        if not tier_tuple and command != "materials-table":
            raise ConfigError("no valid tiers requested")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")

    material = _resolve_material(cfg, "material", "name")[0]
    table = ()
    if command == "materials-table":
        table = tuple(_resolve_material(cfg, "materials", "names"))

    g = cfg["geometry"]
    try:
        geometry = BoxGeometry(_parse_float("geometry", "L_x", g["L_x"]),
                               _parse_float("geometry", "L_y", g["L_y"]),
                               _parse_float("geometry", "L_z", g["L_z"]))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    try:
        orientation = Orientation(g["orientation"].strip())
    except ValueError as err:
        raise ConfigError(f"[geometry] orientation must be 110 or 100, "
                          f"got {g['orientation']!r}") from err

    f = cfg["fields"]
    try:
        fields = FieldConfig(
            B=_parse_float("fields", "B", f["B"]),
            theta=radians(_parse_float("fields", "theta_deg", f["theta_deg"])),
            phi=radians(_parse_float("fields", "phi_deg", f["phi_deg"])),
            E0=_parse_float("fields", "E0", f["E0"]),
            E_ac=_parse_float("fields", "E_ac", f["E_ac"]))
    except ValueError as err:
        raise ConfigError(str(err)) from err

    s = cfg["solver"]
    parts = [p.strip() for p in s["cutoff"].split(",")]
    if len(parts) != 3:
        raise ConfigError(f"[solver] cutoff must be three integers, "
                          f"got {s['cutoff']!r}")
    try:
        cutoff = BasisCutoff(*(_parse_int("solver", "cutoff", p) for p in parts))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    n_excited = _parse_int("solver", "n_excited", s["n_excited"])
    if n_excited < 1:
        raise ConfigError(f"[solver] n_excited must be >= 1, got {n_excited}")

    grid: dict[str, float] = {}
    if "sweep" in cfg:
        for key, raw in cfg["sweep"].items():
            grid[key] = (_parse_int("sweep", key, raw) if key.endswith("_count")
                         else _parse_float("sweep", key, raw))
        for key, value in grid.items():
            if key.endswith("_count") and value < 2:
                raise ConfigError(f"[sweep] {key} must be >= 2, got {value}")

    text = _canonical_text(cfg)
    return SweepSpec(
        kind=command, tiers=tier_tuple, material=material, geometry=geometry,
        orientation=orientation, fields=fields, cutoff=cutoff,
        n_excited=n_excited, grid=grid,
        threads=threads, resolved_text=text,
        config_hash=hashlib.sha256(text.encode("utf-8")).hexdigest()[:12],
        table_materials=table)


# ---------------------------------------------------------------------------
# CSV plumbing

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(out: str | Path, spec: SweepSpec, columns: list[str],
               rows: list[list]) -> Path:
    out = Path(out)
    lines = [f"# holebox {spec.kind}",
             f"# config-hash: {spec.config_hash}",
             f"# tiers: {','.join(spec.tiers) if spec.tiers else 'none'}",
             f"# units: {_UNITS}",
             ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(str(out) + ".cfg", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(spec.resolved_text)
    return out


def _linspace(lo: float, hi: float, count: int) -> np.ndarray:
    return np.linspace(lo, hi, int(count))


# ---------------------------------------------------------------------------
# commands

def run_materials_table(spec: SweepSpec, out: str | Path) -> Path:
    columns = ["material", "gamma1", "gamma2", "gamma3", "kappa",
               "m_z", "m_xy", "zeta_110_x100", "zeta_100_x100",
               "zeta_prime_110_x100", "zeta_prime_100_x100"]
    rows = []
    for m in spec.table_materials:
        fom = figures_of_merit(m)
        rows.append([m.name, m.gamma1, m.gamma2, m.gamma3, m.kappa,
                     fom.m_z, fom.m_xy, 100 * fom.zeta_110, 100 * fom.zeta_100,
                     100 * fom.zeta_prime_110, 100 * fom.zeta_prime_100])
    return _write_csv(out, spec, columns, rows)


def run_e0_sweep(spec: SweepSpec, out: str | Path) -> Path:
    grid = _linspace(spec.grid["e0_min"], spec.grid["e0_max"],
                     spec.grid["e0_count"])
    emax = e0_max(spec.material, spec.geometry, spec.orientation)
    columns = ["E0", "f_L"] + [f"f_R_{t}" for t in spec.tiers]
    rows = []
    for e0 in grid:
        fields = replace(spec.fields, E0=float(e0))
        f_R_exact, f_L = minimal_exact_qubit(
            spec.material, spec.geometry, spec.orientation, fields)
        cells: dict[str, float | None] = {"minimal_exact": f_R_exact}
        if "linearized" in spec.tiers or "renormalized" in spec.tiers:
            try:
                lin = rabi_linearized(spec.material, spec.geometry,
                                      spec.orientation, fields)
                cells["linearized"] = lin
                cells["renormalized"] = renormalized_rabi(
                    lin, float(e0), spec.geometry, spec.material,
                    orientation=spec.orientation, e_max=emax)
            except _POINT_ERRORS:
                cells["linearized"] = cells["renormalized"] = None
        rows.append([float(e0), f_L] + [cells.get(t) for t in spec.tiers])
    return _write_csv(out, spec, columns, rows)


def run_lz_sweep(spec: SweepSpec, out: str | Path) -> Path:
    grid = _linspace(spec.grid["lz_min"], spec.grid["lz_max"],
                     spec.grid["lz_count"])
    columns = ["L_z"] + [f"f_R_{t}" for t in spec.tiers]
    rows = []
    for lz in grid:
        geometry = replace(spec.geometry, L_z=float(lz))
        cells: dict[str, float | None] = {}
        for tier in spec.tiers:
            try:
                if tier == "analytic2":
                    cells[tier] = rabi_thin_dot(spec.material, geometry,
                                                spec.orientation, spec.fields, 2)
                elif tier == "analytic4":
                    cells[tier] = rabi_thin_dot(spec.material, geometry,
                                                spec.orientation, spec.fields, 4)
                else:
                    cells[tier] = rabi_linearized(spec.material, geometry,
                                                  spec.orientation, spec.fields)
            except _POINT_ERRORS:
                cells[tier] = None
        rows.append([float(lz)] + [cells.get(t) for t in spec.tiers])
    return _write_csv(out, spec, columns, rows)


def run_angle_map(spec: SweepSpec, out: str | Path) -> Path:
    thetas = _linspace(spec.grid["theta_min_deg"], spec.grid["theta_max_deg"],
                       spec.grid["theta_count"])
    phis = _linspace(spec.grid["phi_min_deg"], spec.grid["phi_max_deg"],
                     spec.grid["phi_count"])
    points = [(float(t), float(p)) for t in thetas for p in phis]
    # converged tiers: one static solve, then one batched pass over the grid
    converged_f_R: dict[str, list[float | None]] = {}
    converged = [t for t in spec.tiers if t.startswith("converged")]
    if converged:
        reduced = reduce_model(spec.material, spec.geometry, spec.orientation,
                               spec.cutoff, spec.fields.E0,
                               n_excited=spec.n_excited)
        th = np.array([radians(t) for t, _ in points])
        ph = np.array([radians(p) for _, p in points])
        for tier in converged:
            try:
                _, f_R = reduced.rabi_grid(
                    spec.fields.B, th, ph, spec.fields.E_ac,
                    include_paramagnetic=(tier == "converged_full"),
                    n_excited=spec.n_excited)
                converged_f_R[tier] = [None if np.isnan(v) else float(v)
                                       for v in f_R]
            except _POINT_ERRORS:
                converged_f_R[tier] = [None] * len(points)

    def point(k: int) -> list:
        t_deg, p_deg = points[k]
        fields = replace(spec.fields, theta=radians(t_deg), phi=radians(p_deg))
        cells = {tier: values[k] for tier, values in converged_f_R.items()}
        for tier in spec.tiers:
            if tier in cells:
                continue
            try:
                if tier == "analytic2":
                    cells[tier] = rabi_thin_dot(spec.material, spec.geometry,
                                                spec.orientation, fields, 2)
                elif tier == "analytic4":
                    cells[tier] = rabi_thin_dot(spec.material, spec.geometry,
                                                spec.orientation, fields, 4)
                else:
                    cells[tier] = minimal_exact_rabi(
                        spec.material, spec.geometry, spec.orientation, fields)
            except _POINT_ERRORS:
                cells[tier] = None
        return [t_deg, p_deg] + [cells[t] for t in spec.tiers]

    # threads spread the closed-form tiers; the converged cells are known
    if spec.threads > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            rows = list(pool.map(point, range(len(points))))
    else:
        rows = [point(k) for k in range(len(points))]
    columns = ["theta_deg", "phi_deg"] + [f"f_R_{t}" for t in spec.tiers]
    return _write_csv(out, spec, columns, rows)


def _optimal_direction(spec: SweepSpec,
                       strain: StrainConfig) -> tuple[float, float, float]:
    """(f_R, theta_deg, phi_deg) maximizing the exact minimal-basis Rabi
    frequency; coarse 10-degree scan, then local refinement."""
    # imported here: no other command needs it, and it is slow to load
    import scipy.optimize

    def f_of(theta_deg: float, phi_deg: float) -> float:
        fields = replace(spec.fields, theta=radians(theta_deg),
                         phi=radians(phi_deg))
        return minimal_exact_rabi(spec.material, spec.geometry,
                                  spec.orientation, fields, strain=strain)

    best = (-1.0, 0.0, 0.0)
    for t in range(0, 91, 10):
        for p in range(0, 181, 10):
            val = f_of(float(t), float(p))
            if val > best[0]:
                best = (val, float(t), float(p))

    def negated(x: np.ndarray) -> float:
        t = float(np.clip(x[0], 0.0, 90.0))
        p = float(np.clip(x[1], 0.0, 180.0))
        return -f_of(t, p)

    res = scipy.optimize.minimize(
        negated, x0=np.array(best[1:]), method="Nelder-Mead",
        options={"xatol": 1e-3, "fatol": 1e-12, "maxiter": 400})
    t = float(np.clip(res.x[0], 0.0, 90.0))
    p = float(np.clip(res.x[1], 0.0, 180.0))
    val = f_of(t, p)
    if val >= best[0]:
        return val, t, p
    return best


def run_strain_sweep(spec: SweepSpec, out: str | Path) -> Path:
    spec.material.require_strain()
    grid = list(_linspace(spec.grid["eps_min"], spec.grid["eps_max"],
                          spec.grid["eps_count"]))
    if not any(abs(e) < 1e-15 for e in grid):
        grid.append(0.0)
    grid.sort()
    columns = ["eps_parallel", "hh_weight", "f_R", "f_L",
               "theta_opt_deg", "phi_opt_deg", "lz_eff", "is_reference"]
    rows = []
    for eps in grid:
        eps = float(eps)
        strain = StrainConfig(eps_parallel=eps)
        sp = subband_params(spec.material, spec.geometry, spec.orientation,
                            strain=strain)
        hh = mixed_subbands(sp)[0].heavy_weight
        f_R = f_L = t_opt = p_opt = None
        try:
            f_R, t_opt, p_opt = _optimal_direction(spec, strain)
            fields = replace(spec.fields, theta=radians(t_opt),
                             phi=radians(p_opt))
            _, f_L = minimal_exact_qubit(spec.material, spec.geometry,
                                         spec.orientation, fields,
                                         strain=strain)
        except _POINT_ERRORS:
            pass
        lz2 = strain_equivalent_height(spec.material, spec.geometry.L_z, eps)
        lz_eff = sqrt(lz2) if 0.0 < lz2 < inf else None
        rows.append([eps, hh, f_R, f_L, t_opt, p_opt, lz_eff, eps == 0.0])
    return _write_csv(out, spec, columns, rows)
