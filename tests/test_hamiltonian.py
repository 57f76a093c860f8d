import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import bdli
from bdli import (
    ChargedParticleSystem,
    ConfigError,
    CylindricalDriftField,
    FieldModel,
    PhaseState,
    QuarticWellField,
    TokamakField,
    UniformField,
    integrate,
    quantity_series,
    rk4_step,
    series_errors,
)
from bdli.hamiltonian import magnetic_moments
from one_state import energy, from_vector, magnetic_moment, toroidal_momentum
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


@pytest.mark.parametrize("mass,charge,fld,message", [
    (math.inf, math.nan, TokamakField(), "mass: must be positive and finite, got inf"),
    (-1, 1.0, TokamakField(), "mass: must be positive and finite, got -1.0"),
    (1.0, math.nan, TokamakField(), "charge: must be finite, got nan"),
    (1.0, -math.inf, TokamakField(), "charge: must be finite, got -inf"),
    (True, 1.0, TokamakField(), "mass: expected a number, got True"),
    (Decimal("1"), 1.0, TokamakField(), "mass: expected a number, got Decimal('1')"),
    (1.0, "1", TokamakField(), "charge: expected a number, got '1'"),
    (1.0, 1.0, "tokamak", "field: expected a FieldModel, got 'tokamak'"),
], ids=["inf-nan", "negative-mass", "nan-charge", "inf-charge", "bool-mass",
        "decimal-mass", "string-charge", "field-name"])
def test_system_refuses_a_bad_value_naming_its_key(mass, charge, fld, message):
    # such a system used to be built, and its run then failed as a solver
    # failure at step 0 (inf, nan) or an AttributeError (a field name)
    with pytest.raises(ConfigError) as info:
        ChargedParticleSystem(mass, charge, fld)
    assert str(info.value) == message


def test_system_holds_mass_and_charge_as_floats():
    sys = ChargedParticleSystem(Fraction(1, 2), 2, TokamakField())
    assert (type(sys.mass), type(sys.charge)) == (float, float)
    assert (sys.mass, sys.charge) == (0.5, 2.0)


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


def test_toroidal_momentum_drift_start(drift_sys):
    z = PhaseState((0.0, 0.1, 0.0), (0.1, 0.01, 0.0))
    # m (x vy - y vx) = -0.01, q R A_xi = R^3/3 = 1e-3/3
    expect = -0.01 + 0.001 / 3.0
    assert toroidal_momentum(drift_sys, z) == pytest.approx(expect, rel=1e-14)


def test_toroidal_momentum_banana_start():
    sys = ChargedParticleSystem(1.0, 1.0, TokamakField())
    z = PhaseState((1.05, 0.0, 0.0), (0.0, 4.816e-4, 2.059e-3))
    # m x vy + q ((1-R)^2 + z^2)/4
    expect = 1.05 * 4.816e-4 + 0.05**2 / 4.0
    assert toroidal_momentum(sys, z) == pytest.approx(expect, rel=1e-14)


def test_toroidal_momentum_zero_case():
    sys = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0, 0, 0), E=(0, 0, 0)))
    assert toroidal_momentum(sys, PhaseState((0.4, 0.2, 0.0), (0, 0, 0))) == 0.0


def test_toroidal_momentum_needs_vector_potential():
    class NoA(UniformField):  # the base class's a_at: no vector potential
        a_at = FieldModel.a_at

    sys = ChargedParticleSystem(1.0, 1.0, NoA())
    assert math.isnan(toroidal_momentum(sys, PhaseState((1, 0, 0), (0, 1, 0))))


def test_magnetic_moment_values(drift_sys):
    z = PhaseState((0.0, 0.1, 0.0), (0.1, 0.01, 0.0))
    # B || e_z so v_perp = v, |v|^2 = 0.0101, |B| = 0.1
    assert magnetic_moment(drift_sys, z) == pytest.approx(0.0505, rel=1e-14)

    sysu = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0, 0, 1)))
    assert magnetic_moment(sysu, PhaseState((0, 0, 0), (3.0, 4.0, 12.0))) == (
        pytest.approx(12.5, rel=1e-15)
    )
    # v parallel to B
    assert magnetic_moment(sysu, PhaseState((0, 0, 0), (0, 0, 5.0))) == (
        pytest.approx(0.0, abs=1e-15)
    )


def test_magnetic_moments_nan_where_b_vanishes():
    sys = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0, 0, 0)))
    mu = magnetic_moments(sys, [(0, 0, 0, 1, 0, 0), (1, 2, 3, 0, 0, 0)])
    assert len(mu) == 2 and all(map(math.isnan, mu))


def test_magnetic_moment_invariant_under_gyro_rotation(drift_sys):
    # rotating v about the local field direction must not change mu
    rng = np.random.default_rng(47)
    for _ in range(25):
        x = np.array([rng.uniform(0.4, 1.5), rng.uniform(-0.5, 0.5), 0.2])
        v = rng.normal(0, 0.3, 3)
        b = np.array(drift_sys.field.b_at(*x))
        b = b / np.linalg.norm(b)
        ang = rng.uniform(0, 2 * math.pi)
        # Rodrigues rotation about b
        vrot = (
            v * math.cos(ang)
            + np.cross(b, v) * math.sin(ang)
            + b * (b @ v) * (1 - math.cos(ang))
        )
        m0 = magnetic_moment(drift_sys, PhaseState(x, v))
        m1 = magnetic_moment(drift_sys, PhaseState(x, vrot))
        assert abs(m1 - m0) <= 1e-14 * max(m0, 1e-30)


def test_error_series_constant_trajectory():
    sys = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0, 0, 1), E=(0, 0, 0)))
    traj = integrate(sys, rk4_step, PhaseState((1.0, 0.0, 0.0), (0, 0, 0)), 0.1, 20)
    for q in ("H", "p_xi", "mu"):
        e = series_errors(quantity_series(sys, traj.states, q))
        assert np.array_equal(e, np.zeros(21))


def test_error_series_first_entry_zero(drift2d_bdli):
    sys, traj = drift2d_bdli
    for q in ("H", "p_xi", "mu"):
        e = series_errors(quantity_series(sys, traj.states, q))
        assert e[0] == 0.0


def test_error_series_banana_energy_roundoff(banana_bdli):
    sys, traj = banana_bdli
    e = series_errors(quantity_series(sys, traj.states, "H"))
    assert np.abs(e).max() <= 1e-12


def test_error_series_unknown_quantity(drift2d_bdli):
    sys, traj = drift2d_bdli
    with pytest.raises(ValueError, match="unknown quantity"):
        quantity_series(sys, traj.states, "Lz")


def test_energy_error_per_step_polynomial_field(banana_bdli):
    sys, traj = banana_bdli
    e = series_errors(quantity_series(sys, traj.states, "H"))
    tol = 1e-14
    H0 = abs(energy(sys, from_vector(traj.states[0])))
    assert np.abs(np.diff(e)).max() <= 100 * tol * (1 + H0)


def test_bounded_invariant_errors_on_drift_runs(drift2d_bdli, drift2d_boris):
    # non-secular behaviour: second-half max <= 2x first-half max
    for sys, traj in (drift2d_bdli, drift2d_boris):
        for q in ("p_xi", "mu"):
            e = series_errors(quantity_series(sys, traj.states, q))
            n = len(e) // 2
            first = np.abs(e[:n]).max()
            second = np.abs(e[n:]).max()
            assert second <= 2.0 * first


def _row_oracle(sys, states):
    """H, p_xi and mu state by state, with the scalar field evaluators."""
    f, m, q = sys.field, sys.mass, sys.charge
    out = {"H": [], "p_xi": [], "mu": []}
    for row in states:
        x, y, z = (float(c) for c in row[:3])
        v = row[3:]
        vv = float(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        out["H"].append(0.5 * m * vv + q * f.phi_at(x, y, z))
        ax, ay, _ = f.a_at(x, y, z)
        out["p_xi"].append(m * (x * v[1] - y * v[0]) + q * (x * ay - y * ax))
        bx, by, bz = f.b_at(x, y, z)
        bnorm = math.sqrt(bx * bx + by * by + bz * bz)
        vpar = (v[0] * bx + v[1] * by + v[2] * bz) / bnorm
        out["mu"].append((vv - vpar * vpar) / (2.0 * bnorm))
    return {k: np.array(vals) for k, vals in out.items()}


def test_quantity_series_matches_row_oracle_bitwise():
    rng = np.random.default_rng(53)
    n = 300
    ang = rng.uniform(0, 2 * math.pi, n)
    R = rng.uniform(0.5, 1.5, n)
    states = np.column_stack([
        R * np.cos(ang), R * np.sin(ang), rng.uniform(-0.3, 0.3, n),
        rng.normal(0, 0.3, (n, 3)),
    ])
    fields = (
        CylindricalDriftField(epsilon=1e-2),
        TokamakField(),
        UniformField(B=(0.3, -0.2, 1.0), E=(0.1, 0.2, -0.3)),
        QuarticWellField(B=(0.1, 0.2, 1.0), strength=0.7),
    )
    for fld in fields:
        sys = ChargedParticleSystem(1.7, -0.8, fld)
        expect = _row_oracle(sys, states)
        for q in ("H", "p_xi", "mu"):
            assert np.array_equal(quantity_series(sys, states, q), expect[q]), (
                fld.name, q)
        # one state is the one-row case, to the bit
        z = PhaseState(states[7, :3], states[7, 3:])
        assert energy(sys, z) == expect["H"][7]
        assert toroidal_momentum(sys, z) == expect["p_xi"][7]
        assert magnetic_moment(sys, z) == expect["mu"][7]


def test_banana_drift_orbit_closes():
    """The trapped orbit's (R, z) curve re-approaches its start.

    The poloidal circuit of this orbit takes ~1.3e5 steps at h = pi/10
    (measured; the bounce period is ~2.6x the 5e4-step reference run), so
    the closure is checked on a run long enough to contain one circuit.
    """
    scn = bdli.builtin_scenario("banana")
    sys = scn.system()
    traj = integrate(sys, scn.stepper, scn.initial_state(), scn.h, 140_000, scn.solver)
    s = np.asarray(traj.states)
    R, zc = np.hypot(s[:, 0], s[:, 1]), s[:, 2]
    assert R.min() > 0.9 and R.max() < 1.2
    d = np.hypot(R - R[0], zc - zc[0])
    far = d.max() / 2.0
    ifar = int(np.argmax(d > far))
    assert ifar > 0
    assert d[ifar:].min() < 1e-2
