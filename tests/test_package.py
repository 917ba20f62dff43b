import ast
from pathlib import Path

import pytest

import holebox
import holebox.basis as basis
import holebox.hamiltonian as hamiltonian
import holebox.inputs as inputs
import holebox.minimal as minimal
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
    (numeric, ["BasisCutoff", "BoxGeometry", "DegenerateQubitError",
               "FieldConfig", "Orientation", "SolverError", "StrainConfig"]),
    (sweeps, ["BasisCutoff", "BoxGeometry", "DegenerateQubitError",
              "FieldConfig", "NearDegeneracyError", "Orientation",
              "SolverError", "StrainConfig"]),
    (holebox, ["AssemblyError", "BasisCutoff", "BoxGeometry",
               "DegenerateQubitError", "FieldConfig", "NearDegeneracyError",
               "Orientation", "PairingError", "SolverError", "StrainConfig",
               "bhat_from_angles"]),
    (minimal, ["BoxGeometry", "DegenerateQubitError", "FieldConfig",
               "NearDegeneracyError", "Orientation", "StrainConfig"]),
])
def test_old_import_paths_name_the_same_objects(module, names):
    for name in names:
        assert getattr(module, name) is getattr(inputs, name)


def test_sweeps_binds_the_converged_route_on_first_access():
    assert sweeps.reduce_model is numeric.reduce_model
    assert holebox.reduce_model is numeric.reduce_model


def test_sweeps_binds_the_closed_forms_on_first_access():
    # each name bench/tracer.py wraps in holebox.sweeps resolves there
    for name in sweeps._CLOSED_FORMS:
        assert getattr(sweeps, name) is getattr(minimal, name)


def test_package_source_imports_no_scipy():
    # the package runs on numpy alone; scipy is a test dependency only
    modules = sorted(Path(holebox.__file__).parent.glob("**/*.py"))
    assert Path(numeric.__file__) in modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (
                f"{path.name}:{node.lineno} imports scipy")
