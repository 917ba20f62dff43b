"""Hole spin qubits in rectangular quantum dots.

Closed-form minimal-basis theory and a converged numerical solver for
the Larmor and electrically driven Rabi frequencies of the heavy-hole
ground doublet, plus sweep tooling behind the ``holebox`` command.
"""
from .basis import BasisCutoff
from .constants import CONST, PhysicalConstants
from .hamiltonian import (AssemblyError, BoxGeometry, FieldConfig,
                          HamiltonianMatrix, Orientation, StrainConfig,
                          assemble_paramagnetic, assemble_static,
                          assemble_zeeman, bhat_from_angles, dipole_y)
from .materials import (FigureOfMerit, MaterialError, MaterialParams,
                        builtin_materials, figures_of_merit, get_material,
                        load_materials)
from .minimal import (DegenerateQubitError, ElectricMixing, MinimalExactModel,
                      MixedSubband, NearDegeneracyError, QubitCoefficients,
                      SubbandParams, e0_max, e0_max_thin, electric_mixing,
                      light_hole_rabi, minimal_exact_model,
                      minimal_exact_qubit, minimal_exact_rabi, mixed_subbands,
                      qubit_coefficients, rabi_linearized, rabi_thin_dot,
                      renormalized_rabi, strain_divergence_eps,
                      strain_equal_mixing_eps, strain_equivalent_height,
                      strain_transition_eps, subband_params)
from .numeric import (KramersDoublet, PairingError, RabiResult, ReducedModel,
                      SolverError, SpinorSpectrum, converged_rabi,
                      pair_doublets, rabi_sum_over_states, reduce_model,
                      solve_spectrum)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "BasisCutoff", "BoxGeometry", "CONST",
    "DegenerateQubitError", "ElectricMixing", "FieldConfig", "FigureOfMerit",
    "HamiltonianMatrix", "KramersDoublet", "MaterialError", "MaterialParams",
    "MinimalExactModel", "MixedSubband", "NearDegeneracyError", "Orientation", "PairingError",
    "PhysicalConstants", "QubitCoefficients", "RabiResult", "ReducedModel",
    "SolverError", "SpinorSpectrum", "StrainConfig", "SubbandParams",
    "assemble_paramagnetic", "assemble_static", "assemble_zeeman",
    "bhat_from_angles", "builtin_materials", "converged_rabi", "dipole_y",
    "e0_max", "e0_max_thin", "electric_mixing", "figures_of_merit",
    "get_material", "light_hole_rabi", "load_materials",
    "minimal_exact_model", "minimal_exact_qubit", "minimal_exact_rabi",
    "mixed_subbands", "pair_doublets", "qubit_coefficients", "rabi_linearized",
    "rabi_sum_over_states", "rabi_thin_dot", "reduce_model",
    "renormalized_rabi", "solve_spectrum", "strain_divergence_eps",
    "strain_equal_mixing_eps", "strain_equivalent_height",
    "strain_transition_eps", "subband_params",
]
