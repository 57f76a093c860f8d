"""The test oracles in ``oracles.py``: the array-form scheme stays
independent of the step kernel it checks and no longer part of the library,
and the hat map is the cross product in matrix form."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import bdli
from oracles import hat

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


def test_hat_layout():
    H = hat((1.0, 2.0, 3.0))
    assert np.array_equal(H, [[0, 3, -2], [-3, 0, 1], [2, -1, 0]])


def test_hat_zero():
    assert np.array_equal(hat((0, 0, 0)), np.zeros((3, 3)))


def test_hat_matches_cross():
    v = np.array([0.1, 0.01, 0.0])
    B = np.array([0.0, 0.0, 0.1])
    assert hat(B) @ v == pytest.approx([0.001, -0.01, 0.0], rel=1e-15)
    assert hat(B) @ v == pytest.approx(np.cross(v, B), rel=1e-15)


def test_hat_cross_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        B = rng.normal(size=3)
        v = rng.normal(size=3)
        lhs = hat(B) @ v
        rhs = np.cross(v, B)
        scale = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-15 * scale


def test_hat_is_exactly_skew():
    rng = np.random.default_rng(11)
    for _ in range(50):
        H = hat(rng.normal(size=3))
        assert np.array_equal(H + H.T, np.zeros((3, 3)))
