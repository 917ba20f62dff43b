"""Sweep orchestration and deterministic CSV emission.

A sweep is described by an INI config, read by holebox.inputs.read_ini
like the material files. Built-in defaults describe the reference
scenario: a Si 40x30x10 nm box, B = 1 T along y+z (theta = 45, phi = 90
degrees, azimuth from the x axis), E0 = 0.1 mV/nm, E_ac = 0.03 mV/nm.

Each command is written once, in COMMANDS (help line, runner, own config
sections), and each result tier once, in TIERS (commands, default, column).

CSV files are byte-deterministic: floats use the shortest round-trip
representation, absent values are empty cells, metadata lines are
prefixed with '#', and the fully resolved config is echoed to a sidecar
'<out>.cfg'. The CSV header quotes the first 12 hex digits of the
sidecar's SHA-256, computed with the interpreter's built-in SHA-256
module rather than hashlib, which would load OpenSSL into every run.
Rows are streamed into the file, so a table is never held whole as text.

Both qubit routes give each run of directions one (g, p) pair, the
diagonals of its (gm, gp), and one holebox.gmatrix.frequencies call, so
where the splitting vanishes both leave the cell empty.

Importing this module loads no numpy: the spec, the grids, the CSV code,
the closed forms, the exact minimal route and the strain-sweep optimum run
on Python floats, so no command loads it at its default tiers. Only an
angle-map that requests a converged tier imports numpy and the converged
route, first thing, before it builds its grid. The closed forms
(holebox.minimal) are imported by the commands that use them, so an
angle-map with converged tiers only, --help, a configuration error and the
materials table never load them; holebox.gmatrix comes with either route.
"""
from __future__ import annotations

import configparser
import io
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import product
from operator import attrgetter
from math import inf, isfinite, isnan, nan, radians, sqrt
from pathlib import Path
from typing import TYPE_CHECKING

from .inputs import (DEFAULT_N_EXCITED, BasisCutoff, BoxGeometry,
                     DegenerateQubitError, FieldConfig, NearDegeneracyError,
                     Orientation, SolverError, StrainConfig, read_ini)
from .materials import (MaterialParams, builtin_materials, figures_of_merit,
                        load_materials)

if TYPE_CHECKING:
    from .numeric import ReducedModel

try:  # the interpreter's own SHA-256 (3.12+, then 3.10/3.11), not OpenSSL's
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


@dataclass(frozen=True)
class Command:
    """A command's --help line, runner and own config sections."""
    help: str
    run: Callable[[SweepSpec, str | Path], Path]
    sections: dict[str, dict[str, str]]


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
                          lambda s: s.exact[0]),
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
SOLVER_ERRORS = (DegenerateQubitError, NearDegeneracyError, SolverError)


class ConfigError(ValueError):
    """Invalid or inconsistent sweep configuration."""


def _import_numerics() -> None:
    """Import numpy and the converged route, and bind reduce_model here
    unless it was rebound first (as a tracer or a test does). angle-map
    calls this before it builds its grid when a converged tier is
    requested: numpy's import allocates enough to start garbage-collector
    passes, and each pass walks every live grid point."""
    from . import numeric
    globals().setdefault("reduce_model", numeric.reduce_model)


# the closed forms the commands call, bound here by _import_closed_forms;
# minimal_exact_rabi is not called here, but bench/tracer.py wraps it by
# this name
_CLOSED_FORMS = ("e0_max", "minimal_exact_model", "minimal_exact_qubit",
                 "minimal_exact_rabi", "mixed_subbands", "rabi_linearized",
                 "rabi_thin_dot", "renormalized_rabi",
                 "strain_equivalent_height", "subband_params")


def _import_closed_forms() -> None:
    """Import holebox.minimal and bind each of _CLOSED_FORMS here unless it
    was rebound first, as _import_numerics binds reduce_model. Each command
    that evaluates a closed-form tier calls this before its first point."""
    from . import minimal
    for name in _CLOSED_FORMS:
        globals().setdefault(name, getattr(minimal, name))


def __getattr__(name: str):
    # PEP 562: the models are bound on first access, so that importing this
    # module loads neither numpy nor the closed forms
    if name == "reduce_model":
        _import_numerics()
    elif name in _CLOSED_FORMS:
        _import_closed_forms()
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


# The input domain: every geometry length and dot height (nm), and every
# static field magnitude (mV/nm). Far outside it the closed forms overflow,
# underflow or divide by zero, and no rectangular quantum dot lives there.
LENGTH_RANGE = (0.1, 1e4)
MAX_E0 = 1e3


def _check_range(section: str, key: str, value: float, low: float,
                 high: float) -> None:
    if not low <= value <= high:
        raise ConfigError(f"[{section}] {key} = {value!r} is outside "
                          f"[{low!r}, {high!r}]")


def _default_config(command: str) -> dict[str, dict[str, str]]:
    """The shared defaults plus copies of the command's own sections."""
    cfg = {
        "material": {"name": "Si", "file": ""},
        "geometry": {"L_x": "40", "L_y": "30", "L_z": "10",
                     "orientation": "110"},
        "fields": {"B": "1.0", "theta_deg": "45", "phi_deg": "90",
                   "E0": "0.1", "E_ac": "0.03"},
        "solver": {"cutoff": "8,8,5", "n_excited": str(DEFAULT_N_EXCITED)},
    }
    cfg.update((section, dict(keys))
               for section, keys in COMMANDS[command].sections.items())
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
        path = Path(config_path)
        for section, items in read_ini(path, ConfigError).items():
            if section not in cfg:
                raise ConfigError(f"{path}: unknown section [{section}] "
                                  f"for {command}")
            for key, value in items.items():
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
    if not tier_tuple and allowed:
        raise ConfigError("no valid tiers requested")

    materials = _resolve_material(cfg, "material", "name")
    if len(materials) != 1:
        raise ConfigError(f"[material] name must name exactly one material, "
                          f"got {cfg['material']['name']!r}")
    material = materials[0]
    table = ()
    if "materials" in cfg:
        table = tuple(_resolve_material(cfg, "materials", "names"))

    g = cfg["geometry"]
    try:
        geometry = BoxGeometry(*(_parse_float("geometry", key, g[key])
                                 for key in ("L_x", "L_y", "L_z")))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    for key in ("L_x", "L_y", "L_z"):
        _check_range("geometry", key, getattr(geometry, key), *LENGTH_RANGE)
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
    _check_range("fields", "E0", fields.E0, -MAX_E0, MAX_E0)

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
            if key in ("lz_min", "lz_max"):
                if value <= 0:
                    raise ConfigError(f"[sweep] {key} must be > 0, got {value}")
                _check_range("sweep", key, value, *LENGTH_RANGE)
            if key in ("e0_min", "e0_max"):
                _check_range("sweep", key, value, -MAX_E0, MAX_E0)

    text = _canonical_text(cfg)
    return SweepSpec(
        kind=command, tiers=tier_tuple, material=material, geometry=geometry,
        orientation=orientation, fields=fields, cutoff=cutoff,
        n_excited=n_excited, grid=grid, resolved_text=text,
        config_hash=sha256(text.encode("utf-8")).hexdigest()[:12],
        table_materials=table)


# ---------------------------------------------------------------------------
# CSV plumbing

def _fmt(value) -> str:
    if value.__class__ is float:    # nearly every cell: test it first
        return repr(value)
    if value is None or isinstance(value, str):
        return value or ""
    if isinstance(value, int):      # a bool as 1 or 0
        return str(int(value))
    return repr(float(value))


def _write_csv(out: str | Path, spec: SweepSpec, columns: list[str],
               rows: Iterable[Sequence]) -> Path:
    out = Path(out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# holebox {spec.kind}\n"
                 f"# config-hash: {spec.config_hash}\n"
                 f"# tiers: {','.join(spec.tiers) if spec.tiers else 'none'}\n"
                 f"# units: {_UNITS}\n"
                 f"{','.join(columns)}\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
    with open(str(out) + ".cfg", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(spec.resolved_text)
    return out


def _axis(spec: SweepSpec, name: str, unit: str = "") -> list[float]:
    """The grid's <name>_count points from <name>_min to <name>_max, both
    included, equal to numpy.linspace bit for bit: point i is
    i * step + start, or (i / (count - 1)) * delta + start where the step
    underflows to zero, and the last point is exactly the maximum."""
    g = spec.grid
    start, stop = g[f"{name}_min{unit}"], g[f"{name}_max{unit}"]
    div = int(g[f"{name}_count"]) - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    return points + [stop]


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


_Run = tuple[BoxGeometry, FieldConfig, list[float], list[float]]


def _one_point(geometry: BoxGeometry, fields: FieldConfig) -> _Run:
    """The run of a single point, in its own field direction."""
    return geometry, fields, [fields.theta], [fields.phi]


class _Sweep:
    """The points of one sweep and the results that several tier columns
    share. The points come as runs (geometry, fields, thetas, phis) that
    share one static problem and differ only in field direction, given as
    two lists of radians (fields' own direction is not used). Each route
    builds a run's diagonal (g, p) once and evaluates all its directions in
    one gmatrix.frequencies call. The per-point FieldConfig objects are built
    only if a closed-form tier asks for them."""

    def __init__(self, spec: SweepSpec, static: list[_Run]):
        self.spec, self.static = spec, static

    @cached_property
    def points(self) -> list[tuple[BoxGeometry, FieldConfig]]:
        """(geometry, fields) at every point, in row order."""
        return [(g, FieldConfig(B=f.B, theta=t, phi=p, E0=f.E0, E_ac=f.E_ac))
                for g, f, thetas, phis in self.static
                for t, p in zip(thetas, phis)]

    def closed_form(self, fn) -> list[float | None]:
        """fn(material, geometry, orientation, fields) at each point, or None."""
        s, cells = self.spec, []
        for geometry, fields in self.points:
            try:
                cells.append(fn(s.material, geometry, s.orientation, fields))
            except SOLVER_ERRORS:
                cells.append(None)
        return cells

    def _frequencies(self, pair: Callable, point: Callable | None = None,
                     ) -> tuple[list[float | None], list[float | None]]:
        """The f_R and f_L columns: pair(geometry, fields) is a run's
        (g, p), and one gmatrix.frequencies call evaluates all its
        directions; point(geometry, fields), if given, evaluates a run of one
        direction instead. A cell is empty where the qubit splitting
        vanishes, and a point error of a run empties both cells of all its
        directions."""
        from . import gmatrix
        f_R, f_L = [], []
        for g, f, thetas, phis in self.static:
            try:
                if point is not None and len(thetas) == 1:
                    run_R, run_L = ([x] for x in point(g, f))   # lists of one
                else:
                    run_R, run_L = gmatrix.frequencies(
                        *pair(g, f), f.B, thetas, phis, f.E_ac)
            except SOLVER_ERRORS:
                run_R = run_L = [nan] * len(thetas)
            f_R.extend(None if isnan(x) else x for x in run_R)
            f_L.extend(None if isnan(x) else x for x in run_L)
        return f_R, f_L

    @cached_property
    def exact(self) -> tuple[list[float | None], list[float | None]]:
        """The f_R and f_L columns of the exact minimal route; a run of one
        direction calls minimal_exact_qubit, which builds the same model."""
        s, pair = self.spec, attrgetter("g", "p")
        return self._frequencies(
            lambda g, f: pair(minimal_exact_model(s.material, g,
                                                  s.orientation, f.E0)),
            lambda g, f: minimal_exact_qubit(s.material, g, s.orientation, f))

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
    def _reduced(self) -> dict[tuple[BoxGeometry, float], ReducedModel]:
        s = self.spec
        return {(g, f.E0): reduce_model(s.material, g, s.orientation, s.cutoff,
                                        f.E0, n_excited=s.n_excited)
                for g, f, *_ in self.static}

    def converged(self, include_paramagnetic: bool) -> list[float | None]:
        # failed solves (outside _frequencies) and off-axis pairs stop the
        # command; g_matrices sums over the spec.n_excited excited doublets
        # that reduce_model kept (all of them where the dimension caps it)
        from . import gmatrix
        models = self._reduced
        return self._frequencies(lambda g, f: gmatrix.diagonal(
            *models[g, f.E0].g_matrices(include_paramagnetic)))[0]

    def write(self, out: str | Path, leading: dict[str, list]) -> Path:
        """The CSV: the leading columns, then the f_R column of each tier."""
        columns = {**leading, **{f"f_R_{t}": TIERS[t].column(self)
                                 for t in self.spec.tiers}}
        return _write_csv(out, self.spec, list(columns), zip(*columns.values()))


def run_e0_sweep(spec: SweepSpec, out: str | Path) -> Path:
    _import_closed_forms()
    grid = _axis(spec, "e0")
    sweep = _Sweep(spec, [_one_point(spec.geometry,
                                     replace(spec.fields, E0=e0))
                          for e0 in grid])
    return sweep.write(out, {"E0": grid, "f_L": sweep.exact[1]})


def run_lz_sweep(spec: SweepSpec, out: str | Path) -> Path:
    _import_closed_forms()
    grid = _axis(spec, "lz")
    return _Sweep(spec, [_one_point(replace(spec.geometry, L_z=lz), spec.fields)
                         for lz in grid]).write(out, {"L_z": grid})


def run_angle_map(spec: SweepSpec, out: str | Path) -> Path:
    converged = [t.startswith("converged_") for t in spec.tiers]
    if any(converged):
        _import_numerics()
    if not all(converged):
        _import_closed_forms()
    thetas, phis = zip(*product(_axis(spec, "theta", "_deg"),
                                _axis(spec, "phi", "_deg")))
    # one run: every direction shares the static problem of spec.fields
    sweep = _Sweep(spec, [(spec.geometry, spec.fields,
                           [radians(t) for t in thetas],
                           [radians(p) for p in phis])])
    return sweep.write(out, {"theta_deg": thetas, "phi_deg": phis})


def _optimal_direction(spec: SweepSpec, strain: StrainConfig
                       ) -> tuple[float, float, float, float]:
    """(theta_deg, phi_deg, f_R, f_L) at the direction maximizing the exact
    minimal-basis Rabi frequency: gmatrix.best_direction of the model's
    (g, p), or (0, 0) where E_ac = 0 makes f_R vanish in every direction.
    f_R and f_L are gmatrix.qubit at the reported angles, so they equal
    minimal_exact_qubit there bit for bit, and raise DegenerateQubitError
    where the qubit does not split, as at B = 0."""
    from . import gmatrix
    f = spec.fields
    model = minimal_exact_model(spec.material, spec.geometry,
                                spec.orientation, f.E0, strain=strain)
    t_opt, p_opt = ((0.0, 0.0) if f.E_ac == 0
                    else gmatrix.best_direction(model.g, model.p))
    return (t_opt, p_opt, *gmatrix.qubit(model.g, model.p, f.B,
                                         radians(t_opt), radians(p_opt),
                                         f.E_ac))


def run_strain_sweep(spec: SweepSpec, out: str | Path) -> Path:
    spec.material.require_strain()
    _import_closed_forms()
    grid = _axis(spec, "eps")
    # the point nearest zero is the unstrained reference when it misses zero
    # only by rounding (-1.08e-19 on some grids); snapping one point keeps
    # the rows of a grid finer than 1e-15 distinct
    k = min(range(len(grid)), key=lambda i: abs(grid[i]))
    if abs(grid[k]) < 1e-15:
        grid[k] = 0.0
    else:
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
        try:
            t_opt, p_opt, f_R, f_L = _optimal_direction(spec, strain)
        except SOLVER_ERRORS:   # no optimum: empty cells, like a sweep's
            t_opt = p_opt = f_R = f_L = None
        lz2 = strain_equivalent_height(spec.material, spec.geometry.L_z, eps)
        lz_eff = sqrt(lz2) if 0.0 < lz2 < inf else None
        rows.append([eps, hh, f_R, f_L, t_opt, p_opt, lz_eff, eps == 0.0])
    return _write_csv(out, spec, columns, rows)


# The commands in --help order, after the runners they name
COMMANDS = {
    "materials-table": Command(
        "figures of merit for a list of materials", run_materials_table,
        {"materials": {"names": "Si,Ge,InP,GaAs,InAs,InSb", "file": ""}}),
    "e0-sweep": Command(
        "Rabi and Larmor frequencies versus the static field E0", run_e0_sweep,
        {"sweep": {"e0_min": "0.0", "e0_max": "1.0", "e0_count": "101"}}),
    "lz-sweep": Command(
        "closed-form Rabi frequency versus dot height", run_lz_sweep,
        {"sweep": {"lz_min": "1.0", "lz_max": "10.0", "lz_count": "10"}}),
    "angle-map": Command(
        "Rabi frequency over magnetic field directions", run_angle_map,
        {"sweep": {"theta_min_deg": "0", "theta_max_deg": "90",
                   "theta_count": "46", "phi_min_deg": "0",
                   "phi_max_deg": "180", "phi_count": "91"}}),
    "strain-sweep": Command(
        "qubit properties versus in-plane biaxial strain", run_strain_sweep,
        {"sweep": {"eps_min": "0.0", "eps_max": "0.001", "eps_count": "41"}}),
}
