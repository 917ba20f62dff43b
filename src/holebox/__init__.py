"""Hole spin qubits in rectangular quantum dots.

Closed-form minimal-basis theory and a converged numerical solver for
the Larmor and electrically driven Rabi frequencies of the heavy-hole
ground doublet, plus sweep tooling behind the ``holebox`` command.

Each exported name is imported from its module on first access (PEP 562),
so ``import holebox`` loads nothing, and numpy loads with the first name
whose module needs it: the closed forms, the input types and the material
tables run without it.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "constants": ("CONST", "PhysicalConstants"),
    "inputs": ("AssemblyError", "BasisCutoff", "BoxGeometry",
               "DegenerateQubitError", "FieldConfig", "NearDegeneracyError",
               "Orientation", "PairingError", "SolverError", "StrainConfig",
               "bhat_from_angles"),
    "hamiltonian": ("HamiltonianMatrix", "assemble_paramagnetic",
                    "assemble_static", "assemble_zeeman", "dipole_y"),
    "materials": ("FigureOfMerit", "MaterialError", "MaterialParams",
                  "builtin_materials", "figures_of_merit", "get_material",
                  "load_materials"),
    "minimal": ("ElectricMixing", "MinimalExactModel", "MixedSubband",
                "QubitCoefficients", "SubbandParams", "e0_max", "e0_max_thin",
                "electric_mixing", "light_hole_rabi", "minimal_exact_model",
                "minimal_exact_qubit", "minimal_exact_rabi", "mixed_subbands",
                "qubit_coefficients", "rabi_linearized", "rabi_thin_dot",
                "renormalized_rabi", "strain_divergence_eps",
                "strain_equal_mixing_eps", "strain_equivalent_height",
                "strain_transition_eps", "subband_params"),
    "numeric": ("KramersDoublet", "RabiResult", "ReducedModel",
                "SpinorSpectrum", "converged_rabi", "pair_doublets",
                "rabi_sum_over_states", "reduce_model", "solve_spectrum"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
