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
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import groupby, product
from math import inf, isfinite, isnan, radians, sqrt
from pathlib import Path

import numpy as np

from .basis import BasisCutoff
from .hamiltonian import BoxGeometry, FieldConfig, Orientation, StrainConfig
from .materials import (MaterialParams, builtin_materials, figures_of_merit,
                        load_materials)
# minimal_exact_rabi is not called here; bench/tracer.py wraps it by this name
from .minimal import (DegenerateQubitError, NearDegeneracyError,  # noqa: F401
                      e0_max, minimal_exact_model, minimal_exact_qubit,
                      minimal_exact_rabi, mixed_subbands, rabi_linearized,
                      rabi_thin_dot, renormalized_rabi,
                      strain_equivalent_height, subband_params)
from .numeric import PairingError, ReducedModel, SolverError, reduce_model

COMMANDS = ("materials-table", "e0-sweep", "lz-sweep", "angle-map",
            "strain-sweep")


@dataclass(frozen=True)
class Tier:
    """Commands accepting a tier, whether it is on by default, and its column."""
    commands: tuple[str, ...]
    column: Callable[[_Sweep], list]
    default: bool = True


# The result tiers in canonical column order. Each column calls its model
# by this module's name at call time, so rebinding the name sees the call.
TIERS = {
    "analytic2": Tier(("lz-sweep", "angle-map"), lambda s: s.closed_form(
        lambda *point: rabi_thin_dot(*point, 2))),
    "analytic4": Tier(("lz-sweep", "angle-map"), lambda s: s.closed_form(
        lambda *point: rabi_thin_dot(*point, 4))),
    "minimal_exact": Tier(("e0-sweep", "angle-map", "strain-sweep"),
                          lambda s: [f_R for f_R, _ in s.exact]),
    "linearized": Tier(("e0-sweep", "lz-sweep"), lambda s: s.linearized),
    "renormalized": Tier(("e0-sweep",), lambda s: s.renormalized()),
    "converged_zeeman": Tier(("angle-map",), lambda s: s.converged(False),
                             default=False),
    "converged_full": Tier(("angle-map",), lambda s: s.converged(True),
                           default=False),
}

_UNITS = ("L=nm, E0=mV/nm, E_ac=mV/nm, B=T, theta=deg, phi=deg, "
          "f_L=GHz, f_R=GHz, eps_parallel=dimensionless, lz_eff=nm")

# raised by a model on inputs it cannot solve
SOLVER_ERRORS = (DegenerateQubitError, NearDegeneracyError, PairingError,
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
    resolved_text: str
    config_hash: str
    table_materials: tuple[MaterialParams, ...] = ()


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from err
    if not isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


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
    # a material in the file replaces the builtin of the same name
    extra = load_materials(Path(file_path)) if file_path else []
    pool = {m.name: m for m in builtin_materials() + extra}
    out = []
    for name in names:
        if name not in pool:
            raise ConfigError(
                f"unknown material {name!r}; available: {', '.join(sorted(pool))}")
        out.append(pool[name])
    return out


def resolve_spec(command: str, config_path: str | Path | None = None,
                 overrides: list[str] | None = None,
                 tiers: str | None = None) -> SweepSpec:
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

    allowed = [t for t, tier in TIERS.items() if command in tier.commands]
    requested = ([t for t in allowed if TIERS[t].default] if tiers is None
                 else [t.strip() for t in tiers.split(",") if t.strip()])
    for t in requested:
        if t not in allowed:
            raise ConfigError(f"tier {t!r} not valid for {command}; allowed: "
                              f"{', '.join(allowed) or 'none'}")
    # canonical order, duplicates dropped
    tier_tuple = tuple(t for t in allowed if t in requested)
    if not tier_tuple and command != "materials-table":
        raise ConfigError("no valid tiers requested")

    material = _resolve_material(cfg, "material", "name")[0]
    table = ()
    if command == "materials-table":
        table = tuple(_resolve_material(cfg, "materials", "names"))

    g = cfg["geometry"]
    try:
        geometry = BoxGeometry(*(_parse_float("geometry", key, g[key])
                                 for key in ("L_x", "L_y", "L_z")))
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
        n_excited=n_excited, grid=grid, resolved_text=text,
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
               rows: Iterable[Sequence]) -> Path:
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


def _axis(spec: SweepSpec, name: str, unit: str = "") -> list[float]:
    g = spec.grid
    return np.linspace(g[f"{name}_min{unit}"], g[f"{name}_max{unit}"],
                       int(g[f"{name}_count"])).tolist()


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


class _Sweep:
    """The (geometry, fields) points of one sweep and the results that
    several tier columns share. A run of points that differ only in field
    direction shares one static problem: its exact minimal and converged
    models are built once and evaluate the run in one batched call."""

    def __init__(self, spec: SweepSpec,
                 points: list[tuple[BoxGeometry, FieldConfig]]):
        self.spec, self.points = spec, points
        runs = [list(run) for _, run in groupby(
            points, lambda p: (p[0], p[1].B, p[1].E0, p[1].E_ac))]
        self.static = [(*run[0], np.array([f.theta for _, f in run]),
                        np.array([f.phi for _, f in run])) for run in runs]

    def closed_form(self, fn) -> list[float | None]:
        """fn(material, geometry, orientation, fields) at each point, or None."""
        s, cells = self.spec, []
        for geometry, fields in self.points:
            try:
                cells.append(fn(s.material, geometry, s.orientation, fields))
            except SOLVER_ERRORS:
                cells.append(None)
        return cells

    @cached_property
    def exact(self) -> list[tuple[float, float]]:
        """(f_R, f_L) of the exact minimal route."""
        s, cells = self.spec, []
        for g, f, thetas, phis in self.static:
            dot = (s.material, g, s.orientation)
            if thetas.size == 1:    # the one-direction case of qubit_grid
                cells.append(minimal_exact_qubit(*dot, f))
                continue
            f_R, f_L = minimal_exact_model(*dot, f.E0).qubit_grid(
                f.B, thetas, phis, f.E_ac)
            cells += zip(f_R.tolist(), f_L.tolist())
        return cells

    @cached_property
    def linearized(self) -> list[float | None]:
        return self.closed_form(lambda *point: rabi_linearized(*point))

    def renormalized(self) -> list[float | None]:
        s = self.spec
        e_max = cache(lambda g: e0_max(s.material, g, s.orientation))
        return [None if lin is None else renormalized_rabi(
            lin, f.E0, g, s.material, orientation=s.orientation,
            e_max=e_max(g)) for (g, f), lin in zip(self.points, self.linearized)]

    @cached_property
    def _reduced(self) -> list[ReducedModel]:
        s = self.spec
        return [reduce_model(s.material, g, s.orientation, s.cutoff, f.E0,
                             n_excited=s.n_excited) for g, f, *_ in self.static]

    def converged(self, include_paramagnetic: bool) -> list[float | None]:
        """A point error of a model empties the cells of all its directions."""
        cells = []
        for model, (_, f, thetas, phis) in zip(self._reduced, self.static):
            try:
                f_R = model.rabi_grid(
                    f.B, thetas, phis, f.E_ac, n_excited=self.spec.n_excited,
                    include_paramagnetic=include_paramagnetic)[1]
            except SOLVER_ERRORS:
                f_R = np.full(thetas.size, np.nan)
            cells += [None if isnan(v) else v for v in f_R.tolist()]
        return cells

    def write(self, out: str | Path, leading: dict[str, list]) -> Path:
        """The CSV: the leading columns, then the f_R column of each tier."""
        columns = {**leading, **{f"f_R_{t}": TIERS[t].column(self)
                                 for t in self.spec.tiers}}
        return _write_csv(out, self.spec, list(columns), zip(*columns.values()))


def run_e0_sweep(spec: SweepSpec, out: str | Path) -> Path:
    grid = _axis(spec, "e0")
    sweep = _Sweep(spec, [(spec.geometry, replace(spec.fields, E0=e0))
                          for e0 in grid])
    return sweep.write(out, {"E0": grid, "f_L": [f_L for _, f_L in sweep.exact]})


def run_lz_sweep(spec: SweepSpec, out: str | Path) -> Path:
    grid = _axis(spec, "lz")
    return _Sweep(spec, [(replace(spec.geometry, L_z=lz), spec.fields)
                         for lz in grid]).write(out, {"L_z": grid})


def run_angle_map(spec: SweepSpec, out: str | Path) -> Path:
    thetas, phis = zip(*product(_axis(spec, "theta", "_deg"),
                                _axis(spec, "phi", "_deg")))
    sweep = _Sweep(spec, [(spec.geometry, replace(
        spec.fields, theta=radians(t), phi=radians(p)))
        for t, p in zip(thetas, phis)])
    return sweep.write(out, {"theta_deg": thetas, "phi_deg": phis})


# The strain-sweep optimum is searched on grids of whole millidegrees, so
# every reported angle is an exact decimal with at most three places.
_MDEG = 1000
_STEPS = (5000, 1000, 100, 10, 1)  # the global grid, then each refinement
_MAX_STARTS = 4  # a flat map (B, E0 or E_ac zero) is all local maxima


def _local_maxima(f: np.ndarray) -> np.ndarray:
    """Flat indices of the points of a 2D grid that no neighbour (the
    diagonals included) exceeds, highest first."""
    pad = np.pad(f, 1, constant_values=-np.inf)
    keep = np.ones(f.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            keep &= f >= pad[di:di + f.shape[0], dj:dj + f.shape[1]]
    idx = np.flatnonzero(keep)
    return idx[np.argsort(-f.flat[idx], kind="stable")]


def _optimal_direction(spec: SweepSpec,
                       strain: StrainConfig) -> tuple[float, float]:
    """(theta_deg, phi_deg) maximizing the exact minimal-basis Rabi
    frequency over theta and phi in [0, 90] degrees.

    f_R(theta, phi) = f_R(theta, 180 - phi) (the mirror x -> -x combined
    with time reversal), so phi in [0, 90] covers every direction and the
    two mirror optima, which tie at theta = 90, resolve to one. A 5-degree
    grid finds the local maxima; each is refined by nested grids, each
    ten times finer than the last and spanning one step of it, down to
    0.001 degrees. Near the heavy/light crossing two maxima lie within
    1e-4 of each other and tens of degrees apart, hence every start.
    """
    f = spec.fields
    model = minimal_exact_model(spec.material, spec.geometry,
                                spec.orientation, f.E0, strain=strain)

    def scan(ts: np.ndarray, ps: np.ndarray):
        t, p = np.meshgrid(ts, ps, indexing="ij")
        f_R, _ = model.qubit_grid(f.B, np.radians(t / _MDEG),
                                  np.radians(p / _MDEG), f.E_ac)
        return t.reshape(-1), p.reshape(-1), f_R.reshape(-1)

    def window(x: int, span: int, step: int) -> np.ndarray:
        return np.unique(np.clip(np.arange(x - span, x + span + 1, step),
                                 0, 90 * _MDEG))

    axis = np.arange(0, 90 * _MDEG + 1, _STEPS[0])
    grid_t, grid_p, grid_f = scan(axis, axis)
    best = (-1.0, 0, 0)
    for k in _local_maxima(grid_f.reshape(axis.size, axis.size))[:_MAX_STARTS]:
        t0, p0 = int(grid_t[k]), int(grid_p[k])
        for span, step in zip(_STEPS, _STEPS[1:]):
            t, p, f_R = scan(window(t0, span, step), window(p0, span, step))
            k = int(np.argmax(f_R))
            t0, p0 = int(t[k]), int(p[k])
        if f_R[k] > best[0]:
            best = (f_R[k], t0, p0)
    return best[1] / _MDEG, best[2] / _MDEG


def run_strain_sweep(spec: SweepSpec, out: str | Path) -> Path:
    spec.material.require_strain()
    grid = _axis(spec, "eps")
    if not any(abs(e) < 1e-15 for e in grid):
        grid.append(0.0)
    grid.sort()
    columns = ["eps_parallel", "hh_weight", "f_R", "f_L",
               "theta_opt_deg", "phi_opt_deg", "lz_eff", "is_reference"]
    rows = []
    for eps in grid:
        strain = StrainConfig(eps_parallel=eps)
        sp = subband_params(spec.material, spec.geometry, spec.orientation,
                            strain=strain)
        hh = mixed_subbands(sp)[0].heavy_weight
        t_opt, p_opt = _optimal_direction(spec, strain)
        fields = replace(spec.fields, theta=radians(t_opt),
                         phi=radians(p_opt))
        f_R, f_L = minimal_exact_qubit(spec.material, spec.geometry,
                                       spec.orientation, fields,
                                       strain=strain)
        lz2 = strain_equivalent_height(spec.material, spec.geometry.L_z, eps)
        lz_eff = sqrt(lz2) if 0.0 < lz2 < inf else None
        rows.append([eps, hh, f_R, f_L, t_opt, p_opt, lz_eff, eps == 0.0])
    return _write_csv(out, spec, columns, rows)
