"""Material parameter records and figures of merit for orientation screening.

The builtin table carries the six reference materials with their Luttinger
parameters gamma1..gamma3, the Zeeman parameter kappa, and (for Si) the
biaxial Poisson ratio nu and deformation potential b_v used by the strain
model.  E_g and Delta_SO are stored for completeness but enter no
computation here (four-band model, split-off band not coupled).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from pathlib import Path

from .inputs import read_ini


class MaterialError(ValueError):
    """Invalid material parameters or material file."""


@dataclass(frozen=True)
class MaterialParams:
    name: str
    gamma1: float          # dimensionless
    gamma2: float          # dimensionless
    gamma3: float          # dimensionless
    kappa: float           # dimensionless, may be negative (Si)
    E_g: float | None = None       # eV, metadata only
    Delta_SO: float | None = None  # eV, metadata only
    nu: float | None = None        # biaxial Poisson ratio eps_perp = -nu eps_par
    b_v: float | None = None       # eV, uniaxial deformation potential
    a_v: float = 0.0               # eV, hydrostatic; rigid shift only

    def __post_init__(self):
        if not self.name:
            raise MaterialError("material name must be non-empty")
        if not self.gamma2 > 0:
            raise MaterialError(f"{self.name}: gamma2 > 0 violated (gamma2 = {self.gamma2})")
        if not self.gamma1 > 2 * self.gamma2:
            raise MaterialError(
                f"{self.name}: gamma1 > 2*gamma2 violated "
                f"(gamma1 = {self.gamma1}, gamma2 = {self.gamma2})")
        if not self.gamma3 > 0:
            raise MaterialError(f"{self.name}: gamma3 > 0 violated (gamma3 = {self.gamma3})")

    @property
    def has_strain_params(self) -> bool:
        return self.nu is not None and self.b_v is not None

    def require_strain(self) -> None:
        if not self.has_strain_params:
            raise MaterialError(
                f"material '{self.name}' has no strain parameters (nu, b_v required)")


@dataclass(frozen=True)
class FigureOfMerit:
    zeta_110: float        # gamma3 |kappa| / (gamma2 (gamma1+gamma2)^2)
    zeta_100: float        # |kappa| / (gamma1+gamma2)^2
    zeta_prime_110: float  # zeta_110 (gamma1+gamma2) / |kappa|
    zeta_prime_100: float  # zeta_100 (gamma1+gamma2) / |kappa|
    m_z: float             # heavy-hole mass along z, units of m0
    m_xy: float            # heavy-hole in-plane mass, units of m0


def figures_of_merit(m: MaterialParams) -> FigureOfMerit:
    """Rabi-speed figures of merit and heavy-hole masses for one material."""
    if m.gamma2 == 0:
        raise MaterialError(f"{m.name}: gamma2 = 0, figures of merit undefined")
    gp = m.gamma1 + m.gamma2
    ak = abs(m.kappa)
    return FigureOfMerit(
        zeta_110=m.gamma3 * ak / (m.gamma2 * gp ** 2),
        zeta_100=ak / gp ** 2,
        zeta_prime_110=m.gamma3 / (m.gamma2 * gp),
        zeta_prime_100=1.0 / gp,
        m_z=1.0 / (m.gamma1 - 2 * m.gamma2),
        m_xy=1.0 / gp,
    )


_BUILTINS = (
    #              name    gamma1  gamma2  gamma3  kappa   E_g    Delta_SO
    MaterialParams("Si",   4.285,  0.339,  1.446,  -0.42,  4.34,  0.044,
                   nu=0.77, b_v=-2.1),
    MaterialParams("Ge",   13.38,  4.24,   5.69,   3.41,   0.89,  0.29),
    MaterialParams("InP",  4.95,   1.65,   2.35,   0.97,   1.42,  0.11),
    MaterialParams("GaAs", 6.85,   2.10,   2.90,   1.20,   1.52,  0.34),
    MaterialParams("InAs", 20.40,  8.30,   9.10,   7.60,   0.42,  0.41),
    MaterialParams("InSb", 37.10,  16.50,  17.70,  15.60,  0.24,  0.80),
)


def builtin_materials() -> list[MaterialParams]:
    """The six reference materials. Si carries strain parameters, the rest do not."""
    return list(_BUILTINS)


def get_material(name: str) -> MaterialParams:
    for m in _BUILTINS:
        if m.name == name:
            return m
    known = ", ".join(m.name for m in _BUILTINS)
    raise MaterialError(f"unknown material '{name}' (builtin: {known})")


_FLOAT_FIELDS = ("gamma1", "gamma2", "gamma3", "kappa",
                 "E_g", "Delta_SO", "nu", "b_v", "a_v")
_REQUIRED_FIELDS = ("gamma1", "gamma2", "gamma3", "kappa")
_SECTION_PREFIX = "material."


def load_materials(path: str | Path) -> list[MaterialParams]:
    """Load and validate the [material.<name>] sections of key = value in a
    material file. An empty file gives an empty list."""
    origin = Path(path)
    out: list[MaterialParams] = []
    for section, items in read_ini(origin, MaterialError).items():
        if not section.startswith(_SECTION_PREFIX):
            raise MaterialError(
                f"{origin}: section [{section}] does not match [{_SECTION_PREFIX}<name>]")
        name = section[len(_SECTION_PREFIX):]
        kwargs: dict[str, float] = {}
        for key, raw in items.items():
            if key not in _FLOAT_FIELDS:
                raise MaterialError(f"{origin}: [{section}] unknown field '{key}'")
            try:
                kwargs[key] = float(raw)
            except ValueError as err:
                raise MaterialError(
                    f"{origin}: [{section}] field '{key}': not a number: {raw!r}") from err
            if not isfinite(kwargs[key]):
                raise MaterialError(
                    f"{origin}: [{section}] field '{key}': not finite: {raw!r}")
        missing = [k for k in _REQUIRED_FIELDS if k not in kwargs]
        if missing:
            raise MaterialError(
                f"{origin}: [{section}] missing required fields: {', '.join(missing)}")
        out.append(MaterialParams(name=name, **kwargs))
    return out


__all__ = [
    "MaterialError", "MaterialParams", "FigureOfMerit", "figures_of_merit",
    "builtin_materials", "get_material", "load_materials",
]
