"""The array-form scheme in ``oracles.py`` stays a test oracle: independent
of the step kernel it checks, and no longer part of the library."""

import ast
import importlib
from pathlib import Path

import pytest

import bdli

ORACLES = Path(__file__).with_name("oracles.py")
MOVED = ("dli_residual", "weighted_gradient", "grad_energy", "k_matrix",
         "vector_field", "hat")


def _from_integrators(node) -> list[str]:
    """Names an import statement takes from ``bdli.integrators``."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names
                if a.name == "bdli.integrators"
                or a.name.startswith("bdli.integrators.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.module == "bdli.integrators":
        return [a.name for a in node.names]
    if node.module == "bdli":  # the package re-exports the kernel
        return [a.name for a in node.names if a.name == "integrators"
                or getattr(getattr(bdli, a.name, None), "__module__", None)
                == "bdli.integrators"]
    return []


def test_oracle_is_independent_of_the_kernel():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    taken = [name for node in ast.walk(tree) for name in _from_integrators(node)]
    assert taken == []
    for name in MOVED:
        assert not hasattr(bdli, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("bdli.linalg")


def test_import_guard_catches_kernel_imports():
    for src in ("import bdli.integrators", "from bdli.integrators import dli_step",
                "from bdli import integrators", "from bdli import dli_step"):
        (node,) = ast.parse(src).body
        assert _from_integrators(node), src
    (node,) = ast.parse("from bdli import PhaseState, builtin_rule").body
    assert _from_integrators(node) == []
