import pytest

import holebox
import holebox.basis as basis
import holebox.hamiltonian as hamiltonian
import holebox.inputs as inputs
import holebox.numeric as numeric
import holebox.sweeps as sweeps


def test_every_export_resolves_lazily():
    namespace = {}
    exec("from holebox import *", namespace)
    listing = dir(holebox)
    for name in holebox.__all__:
        value = getattr(holebox, name)
        assert namespace[name] is value
        assert name in listing


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        holebox.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        sweeps.no_such_name
    with pytest.raises(ImportError):
        exec("from holebox import no_such_name", {})


@pytest.mark.parametrize("module,names", [
    (basis, ["BasisCutoff"]),
    (hamiltonian, ["AssemblyError", "BasisCutoff", "BoxGeometry",
                   "FieldConfig", "Orientation", "StrainConfig",
                   "bhat_from_angles"]),
    (numeric, ["BasisCutoff", "BoxGeometry", "FieldConfig", "Orientation",
               "PairingError", "SolverError", "StrainConfig"]),
    (sweeps, ["BasisCutoff", "BoxGeometry", "FieldConfig", "Orientation",
              "PairingError", "SolverError", "StrainConfig"]),
    (holebox, ["AssemblyError", "BasisCutoff", "BoxGeometry", "FieldConfig",
               "Orientation", "PairingError", "SolverError", "StrainConfig",
               "bhat_from_angles"]),
])
def test_old_import_paths_name_the_same_objects(module, names):
    for name in names:
        assert getattr(module, name) is getattr(inputs, name)


def test_sweeps_binds_the_converged_route_on_first_access():
    assert sweeps.reduce_model is numeric.reduce_model
    assert holebox.reduce_model is numeric.reduce_model
