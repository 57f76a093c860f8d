import math

import numpy as np
import pytest

import bdli
from bdli import (
    ChargedParticleSystem,
    CylindricalDriftField,
    PhaseState,
    PotentialUnavailableError,
    QuarticWellField,
    TokamakField,
    UniformField,
    integrate,
    quantity_series,
    series_errors,
)
from bdli.diagnostics import magnetic_moments
from one_state import energy, from_vector, magnetic_moment, toroidal_momentum


@pytest.fixture
def drift_sys():
    return ChargedParticleSystem(1.0, 1.0, CylindricalDriftField())


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
    class NoA(UniformField):
        def a_at(self, x, y, z):
            raise PotentialUnavailableError("no A")

    sys = ChargedParticleSystem(1.0, 1.0, NoA())
    with pytest.raises(PotentialUnavailableError):
        toroidal_momentum(sys, PhaseState((1, 0, 0), (0, 1, 0)))


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
    traj = integrate(sys, "rk4", PhaseState((1.0, 0.0, 0.0), (0, 0, 0)), 0.1, 20)
    for q in ("H", "p_xi", "mu"):
        e = series_errors(quantity_series(sys, traj, q))
        assert np.array_equal(e, np.zeros(21))


def test_error_series_first_entry_zero(drift2d_bdli):
    sys, traj = drift2d_bdli
    for q in ("H", "p_xi", "mu"):
        e = series_errors(quantity_series(sys, traj, q))
        assert e[0] == 0.0


def test_error_series_banana_energy_roundoff(banana_bdli):
    sys, traj = banana_bdli
    e = series_errors(quantity_series(sys, traj, "H"))
    assert np.abs(e).max() <= 1e-12


def test_error_series_relative_flag(banana_bdli):
    sys, traj = banana_bdli
    abs_e = series_errors(quantity_series(sys, traj, "H"))
    rel_e = series_errors(quantity_series(sys, traj, "H"), relative=True)
    H0 = energy(sys, from_vector(traj.states[0]))
    assert rel_e == pytest.approx(np.asarray(abs_e) / abs(H0), rel=1e-12)


def test_error_series_unknown_quantity(drift2d_bdli):
    sys, traj = drift2d_bdli
    with pytest.raises(ValueError, match="unknown quantity"):
        quantity_series(sys, traj, "Lz")


def test_energy_error_per_step_polynomial_field(banana_bdli):
    sys, traj = banana_bdli
    e = series_errors(quantity_series(sys, traj, "H"))
    tol = 1e-14
    H0 = abs(energy(sys, from_vector(traj.states[0])))
    assert np.abs(np.diff(e)).max() <= 100 * tol * (1 + H0)


def test_bounded_invariant_errors_on_drift_runs(drift2d_bdli, drift2d_boris):
    # non-secular behaviour: second-half max <= 2x first-half max
    for sys, traj in (drift2d_bdli, drift2d_boris):
        for q in ("p_xi", "mu"):
            e = series_errors(quantity_series(sys, traj, q))
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
    traj = bdli.Trajectory(0.1, states, np.zeros(n - 1, dtype=int), np.zeros(n - 1))
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
            assert np.array_equal(quantity_series(sys, traj, q), expect[q]), (
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
    traj = integrate(sys, "bdli", scn.initial_state(), scn.h, 140_000, scn.solver)
    s = np.asarray(traj.states)
    R, zc = np.hypot(s[:, 0], s[:, 1]), s[:, 2]
    assert R.min() > 0.9 and R.max() < 1.2
    d = np.hypot(R - R[0], zc - zc[0])
    far = d.max() / 2.0
    ifar = int(np.argmax(d > far))
    assert ifar > 0
    assert d[ifar:].min() < 1e-2
