import math

import numpy as np
import pytest

from bdli import (
    ChargedParticleSystem,
    CylindricalDriftField,
    PhaseState,
    QuarticWellField,
    TokamakField,
    UniformField,
)
from one_state import energy, from_vector
from oracles import grad_energy, hat, k_matrix, vector_field


@pytest.fixture
def drift_sys():
    return ChargedParticleSystem(1.0, 1.0, CylindricalDriftField())


@pytest.fixture
def tok_sys():
    return ChargedParticleSystem(1.0, 1.0, TokamakField())


def test_system_validation():
    with pytest.raises(ValueError, match="mass"):
        ChargedParticleSystem(0.0, 1.0, UniformField())
    with pytest.raises(ValueError, match="field"):
        ChargedParticleSystem(1.0, 1.0, None)


def test_phase_state_roundtrip_and_validation():
    z = PhaseState((1, 2, 3), (4, 5, 6))
    assert np.array_equal(z.as_vector(), [1, 2, 3, 4, 5, 6])
    assert np.array_equal(from_vector(z.as_vector()).x, z.x)
    with pytest.raises(ValueError):
        PhaseState((1, 2), (3, 4, 5))
    with pytest.raises(ValueError):
        PhaseState((1, 2, math.inf), (0, 0, 0))


def test_energy_drift_initial_condition(drift_sys):
    z = PhaseState((0.0, 0.1, 0.0), (0.1, 0.01, 0.0))
    # kinetic (0.01 + 0.0001)/2 plus 1e-2 / 0.1
    assert energy(drift_sys, z) == pytest.approx(0.10505, rel=1e-14)


def test_energy_tokamak_banana(tok_sys):
    z = PhaseState((1.05, 0.0, 0.0), (0.0, 4.816e-4, 2.059e-3))
    expect = 0.5 * (4.816e-4**2 + 2.059e-3**2)
    assert energy(tok_sys, z) == pytest.approx(expect, rel=1e-15)
    assert expect == pytest.approx(2.2357e-6, rel=1e-4)


def test_energy_zero_velocity_zero_potential():
    sys = ChargedParticleSystem(3.0, 2.0, UniformField(B=(0, 0, 1), E=(0, 0, 0)))
    assert energy(sys, PhaseState((5, 5, 5), (0, 0, 0))) == 0.0


def test_grad_energy_values(drift_sys, tok_sys):
    z = PhaseState((0.0, 0.1, 0.0), (0.1, 0.01, 0.0))
    assert grad_energy(drift_sys, z) == pytest.approx(
        [0.0, -1.0, 0.0, 0.1, 0.01, 0.0], rel=1e-14
    )
    sys0 = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0, 0, 1)))
    assert np.array_equal(
        grad_energy(sys0, PhaseState((1, 1, 1), (0, 0, 0))), np.zeros(6)
    )
    zt = PhaseState((0.7, 0.7, 0.1), (0.0, 4.816e-4, 2.059e-3))
    g = grad_energy(tok_sys, zt)
    assert np.array_equal(g[:3], [0.0, 0.0, 0.0])
    assert g[3:] == pytest.approx([0.0, 4.816e-4, 2.059e-3], abs=0.0)


def test_k_matrix_blocks():
    sys = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0.0, 0.0, 0.1)))
    K = k_matrix(sys, (0.3, 0.2, 0.1))
    assert np.array_equal(K[:3, 3:], np.eye(3))
    assert np.array_equal(K[3:, :3], -np.eye(3))
    assert np.array_equal(K[3:, 3:], hat([0.0, 0.0, 0.1]))
    assert np.array_equal(K[:3, :3], np.zeros((3, 3)))

    sys2 = ChargedParticleSystem(2.0, 0.0, UniformField(B=(0.0, 0.0, 0.1)))
    K2 = k_matrix(sys2, (0, 0, 0))
    assert np.array_equal(K2[3:, 3:], np.zeros((3, 3)))
    assert np.array_equal(K2[:3, 3:], 0.5 * np.eye(3))
    assert np.array_equal(K2[3:, :3], -0.5 * np.eye(3))


def skew_quadratic_form(K, u):
    """u^T K u accumulated over (i, j)/(j, i) pairs.

    Each pair cancels exactly in floating point (products commute and the
    matrix stores literal negatives), so the sum is 0.0 exactly iff K is
    exactly skew with zero diagonal.
    """
    s = 0.0
    n = len(u)
    for i in range(n):
        s += K[i, i] * u[i] * u[i]
        for j in range(i + 1, n):
            s += K[i, j] * (u[i] * u[j]) + K[j, i] * (u[j] * u[i])
    return s


def test_k_matrix_exactly_skew(drift_sys):
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(0.3, 1.5, 3)
        K = k_matrix(drift_sys, x)
        assert np.array_equal(K + K.T, np.zeros((6, 6)))
        u = rng.normal(size=6)
        assert skew_quadratic_form(K, u) == 0.0


def test_vector_field_drift_value(drift_sys):
    z = PhaseState((0.0, 0.1, 0.0), (0.1, 0.01, 0.0))
    # E = (0,1,0), v x B = (0.001, -0.01, 0)
    assert vector_field(drift_sys, z) == pytest.approx(
        [0.1, 0.01, 0.0, 0.001, 0.99, 0.0], rel=1e-14
    )


def test_vector_field_zero():
    sys = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0, 0, 0), E=(0, 0, 0)))
    assert np.array_equal(
        vector_field(sys, PhaseState((1, 2, 3), (0, 0, 0))), np.zeros(6)
    )


def _random_states(rng, n):
    for _ in range(n):
        ang = rng.uniform(0, 2 * math.pi)
        R = rng.uniform(0.3, 1.8)
        x = (R * math.cos(ang), R * math.sin(ang), rng.uniform(-0.4, 0.4))
        yield PhaseState(x, rng.normal(0.0, 0.2, 3))


@pytest.mark.parametrize(
    "field",
    [CylindricalDriftField(), TokamakField(), UniformField(E=(0.1, 0.0, -0.2)),
     QuarticWellField()],
    ids=lambda f: f.name,
)
def test_vector_field_is_K_grad_H(field):
    sys = ChargedParticleSystem(1.3, -0.7, field)
    rng = np.random.default_rng(17)
    for z in _random_states(rng, 1000):
        f = vector_field(sys, z)
        g = k_matrix(sys, z.x) @ grad_energy(sys, z)
        scale = max(1.0, float(np.abs(g).max()))
        assert np.abs(f - g).max() <= 1e-13 * scale


@pytest.mark.parametrize(
    "field", [CylindricalDriftField(), QuarticWellField()], ids=lambda f: f.name
)
def test_gradient_matches_directional_derivative(field):
    # central difference of H along random directions converges at order 2
    sys = ChargedParticleSystem(1.0, 1.0, field)
    rng = np.random.default_rng(29)
    for z in _random_states(rng, 10):
        d = rng.normal(size=6)
        d /= np.linalg.norm(d)
        g = float(grad_energy(sys, z) @ d)
        errs = []
        for eps in (1e-3, 1e-4, 1e-5):
            zp = from_vector(z.as_vector() + eps * d)
            zm = from_vector(z.as_vector() - eps * d)
            fd = (energy(sys, zp) - energy(sys, zm)) / (2 * eps)
            errs.append(abs(fd - g))
        # order-2 slope between the two coarse steps; only meaningful while
        # the error is well above the difference quotient's round-off floor
        if errs[1] > 1e-12:
            slope = math.log10(errs[0] / errs[1])
            assert 1.7 <= slope <= 2.3
        floor = 1e-11 * (1.0 + abs(energy(sys, z)))
        assert errs[2] <= errs[1] + floor
