import functools
import hashlib
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bdli
from bdli import (
    FIELD_MODELS,
    ChargedParticleSystem,
    ConfigError,
    CylindricalDriftField,
    NonConvergenceError,
    PhaseState,
    QuadratureRule,
    QuarticWellField,
    SingularityError,
    SolverOptions,
    TokamakField,
    UniformField,
    boris_step,
    builtin_rule,
    dli_kernel,
    dli_step,
    integrate,
    resolve_method,
    rk4_step,
)
from bdli.hamiltonian import energies
from one_state import energy, from_vector
from oracles import (
    dli_residual,
    dli_step_reference,
    grad_energy,
    rk4_step_reference,
    weighted_gradient,
)

BOOLE = builtin_rule("boole")
TOL = SolverOptions()


def free_system():
    return ChargedParticleSystem(1.0, 1.0, UniformField(B=(0, 0, 0), E=(0, 0, 0)))


def uniform_b_system(b=(0.0, 0.0, 1.0)):
    return ChargedParticleSystem(1.0, 1.0, UniformField(B=b, E=(0, 0, 0)))


# --- solver options / step report -----------------------------------------

def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan, True, False, "8"])
def test_solver_options_max_iterations_must_be_an_integer(value):
    with pytest.raises(ConfigError, match="^max_iterations: expected an integer"):
        SolverOptions(max_iterations=value)


@pytest.mark.parametrize("value", [8.0])
def test_solver_options_max_iterations_takes_an_integral_float(value):
    # as a config's 8.0 (JSON writes 1e4 as a float) always was
    n = SolverOptions(max_iterations=value).max_iterations
    assert type(n) is int and n == 8


@pytest.mark.parametrize("value", [True, False, "1e-14", Decimal("1e-14"), 1e-14j,
                                   None], ids=repr)
def test_solver_options_tolerance_must_be_a_real_number(value):
    with pytest.raises(ConfigError, match="^tolerance: expected a number"):
        SolverOptions(tolerance=value)


@pytest.mark.parametrize("value", [np.float32(0.5), Fraction(1, 4), 1])
def test_solver_options_tolerance_is_stored_as_a_float(value):
    tol = SolverOptions(tolerance=value).tolerance
    assert type(tol) is float and tol == float(value)


def test_solver_options_max_iterations_takes_any_integral_type():
    assert SolverOptions(max_iterations=np.int64(8)).max_iterations == 8


def test_step_report_residual_consistent_with_convergence():
    sys = uniform_b_system()
    z0 = PhaseState((0.3, 0.0, 0.0), (0.2, 0.1, 0.05))
    rep = dli_step(dli_kernel(sys, BOOLE, 0.1, TOL), z0.as_vector())
    assert rep.converged
    scale = TOL.tolerance * (1.0 + np.abs(z0.as_vector()).max())
    assert rep.residual_norm <= scale


# --- dli_residual -----------------------------------------------------------

def test_residual_zero_fields_free_streaming():
    sys = free_system()
    h = 0.37
    z0 = PhaseState((0.1, -0.2, 0.5), (1.0, 0.5, -0.3))
    z1 = PhaseState(np.asarray(z0.x) + h * np.asarray(z0.v), z0.v)
    r = dli_residual(sys, BOOLE, z0, z1, h)
    assert np.abs(r).max() <= 1e-16


def test_residual_zero_for_zero_step():
    sys = ChargedParticleSystem(1.0, 1.0, CylindricalDriftField())
    z0 = PhaseState((0.0, 0.1, 0.0), (0.1, 0.01, 0.0))
    assert np.abs(dli_residual(sys, BOOLE, z0, z0, 0.0)).max() == 0.0


@pytest.mark.parametrize("rule", ["trapezoid", "simpson", "boole"])
def test_residual_position_block_is_midpoint_rule(rule):
    # for palindromic rules the position block must equal
    # x_t - x0 - h (v0 + v_t)/2 regardless of the field
    sys = ChargedParticleSystem(1.7, -0.4, CylindricalDriftField())
    rng = np.random.default_rng(13)
    for _ in range(25):
        z0 = PhaseState((0.9, 0.1, 0.0) + rng.normal(0, 0.05, 3), rng.normal(0, 0.1, 3))
        zt = PhaseState((0.9, 0.1, 0.0) + rng.normal(0, 0.05, 3), rng.normal(0, 0.1, 3))
        h = rng.uniform(-0.3, 0.3)
        r = dli_residual(sys, builtin_rule(rule), z0, zt, h)
        expect = np.asarray(zt.x) - z0.x - h * 0.5 * (np.asarray(z0.v) + zt.v)
        assert r[:3] == pytest.approx(expect, rel=1e-13, abs=1e-16)


def test_step_satisfies_residual_postcondition():
    scn_fields = [
        ChargedParticleSystem(1.0, 1.0, CylindricalDriftField()),
        ChargedParticleSystem(1.0, 1.0, TokamakField()),
        ChargedParticleSystem(1.0, 1.0, QuarticWellField()),
    ]
    starts = [
        PhaseState((0.0, 0.1, 0.0), (0.1, 0.01, 0.0)),
        PhaseState((1.05, 0.0, 0.0), (0.0, 4.816e-4, 2.059e-3)),
        PhaseState((1.0, 0.0, 0.0), (0.2, 0.2, 0.1)),
    ]
    for sys, z0 in zip(scn_fields, starts):
        rep = dli_step(dli_kernel(sys, BOOLE, math.pi / 10, TOL), z0.as_vector())
        assert rep.converged
        z1 = from_vector(rep.state)
        res = dli_residual(sys, BOOLE, z0, z1, math.pi / 10)
        scale = TOL.tolerance * (1.0 + np.abs(z0.as_vector()).max())
        assert np.abs(res).max() <= 10.0 * scale


# --- dli_step ---------------------------------------------------------------

def test_step_zero_fields_free_streaming():
    sys = free_system()
    z0 = PhaseState((0.0, 1.0, 2.0), (0.3, -0.1, 0.2))
    rep = dli_step(dli_kernel(sys, BOOLE, 0.25, TOL), z0.as_vector())
    assert rep.converged
    z1 = from_vector(rep.state)
    assert z1.x == pytest.approx(np.asarray(z0.x) + 0.25 * np.asarray(z0.v), rel=1e-15)
    assert z1.v == pytest.approx(z0.v, rel=1e-15)


def test_step_h_zero_is_identity():
    sys = uniform_b_system()
    z0 = PhaseState((0.3, 0.0, 0.0), (0.2, 0.1, 0.05))
    rep = dli_step(dli_kernel(sys, BOOLE, 0.0, TOL), z0.as_vector())
    assert rep.converged and rep.iterations == 1
    assert np.array_equal(from_vector(rep.state).as_vector(), z0.as_vector())


def test_step_samples_only_the_rules_nodes():
    # two-point Gauss has no node at c = 0: each iterate evaluates E at its
    # two nodes, and the step never evaluates E at x0
    g = math.sqrt(3.0) / 6.0
    gauss2 = QuadratureRule("gauss2", (0.5 - g, 0.5 + g), (0.5, 0.5), 3)
    points = []

    class Counted(CylindricalDriftField):
        def e_at(self, x, y, z):
            points.append((x, y, z))
            return super().e_at(x, y, z)

    sys = ChargedParticleSystem(1.0, 1.0, Counted())
    z0 = (0.0, 1.0, 0.0, 0.1, 0.01, 0.0)
    for rule, per_iterate, at_x0 in ((gauss2, 2, 0), (BOOLE, 4, 1)):
        points.clear()
        rep = dli_step(dli_kernel(sys, rule, 0.1, TOL), z0)
        assert rep.converged
        assert len(points) == per_iterate * rep.iterations + at_x0
        assert points.count(z0[:3]) == at_x0


def test_step_uniform_field_conserves_speed_and_energy():
    sys = uniform_b_system()
    z = PhaseState((0.0, 0.0, 0.0), (0.7, -0.2, 0.1))
    H0 = energy(sys, z)
    v0 = np.linalg.norm(z.v)
    Hp = H0
    for _ in range(100):
        rep = dli_step(dli_kernel(sys, BOOLE, 0.1, TOL), z.as_vector())
        assert rep.converged
        z = from_vector(rep.state)
        H = energy(sys, z)
        assert abs(np.linalg.norm(z.v) - v0) <= 1e-13 * v0
        assert abs(H - Hp) <= 1e-14 * abs(H0)  # per-step change
        Hp = H
    assert abs(Hp - H0) <= 1e-13 * abs(H0)  # accumulated over the run


def test_step_energy_change_equals_quadrature_defect():
    """Independent oracle for the per-step energy change.

    H(z1) - H(z0) equals the line integral of grad H along the segment;
    the step enforces orthogonality of (z1 - z0) to the *discrete* segment
    average, so the energy change must equal the quadrature defect
    (I_exact - I_boole) . (z1 - z0) up to the solver residual.  The 1/R
    potential makes this large (~1e-7) for the near-axis reference start.
    """
    quad = pytest.importorskip("scipy.integrate")
    sys = ChargedParticleSystem(1.0, 1.0, CylindricalDriftField())
    z0 = PhaseState((0.0, 0.1, 0.0), (0.1, 0.01, 0.0))
    h = math.pi / 10
    rep = dli_step(dli_kernel(sys, BOOLE, h, TOL), z0.as_vector())
    assert rep.converged
    z1 = from_vector(rep.state)

    a0, a1 = np.asarray(z0.as_vector()), np.asarray(z1.as_vector())
    exact = np.empty(6)
    for i in range(6):
        exact[i] = quad.quad(
            lambda c, i=i: grad_energy(
                sys, from_vector((1 - c) * a0 + c * a1)
            )[i],
            0.0,
            1.0,
            epsabs=1e-15,
            epsrel=1e-13,
            limit=200,
        )[0]
    defect = float((exact - weighted_gradient(sys, BOOLE, z0, z1)) @ (a1 - a0))
    dH = energy(sys, z1) - energy(sys, z0)
    assert dH == pytest.approx(defect, rel=1e-6, abs=1e-15)
    # honest single-step magnitude for this start: ~1.7e-7, not round-off
    assert 1e-9 < abs(dH) < 1e-6


def test_discrete_line_integral_orthogonality():
    # on converged steps the increment is orthogonal to the discrete
    # segment-averaged gradient (the mechanism that conserves H)
    systems = [
        (ChargedParticleSystem(1.0, 1.0, CylindricalDriftField()),
         PhaseState((0.0, 1.0, 0.0), (0.1, 0.01, 0.0))),
        (ChargedParticleSystem(1.0, 1.0, TokamakField()),
         PhaseState((1.05, 0.0, 0.0), (0.0, 4.816e-4, 2.059e-3))),
        (ChargedParticleSystem(1.0, 1.0, QuarticWellField()),
         PhaseState((1.0, 0.0, 0.0), (0.2, 0.2, 0.1))),
    ]
    for sys, z in systems:
        for _ in range(50):
            rep = dli_step(dli_kernel(sys, BOOLE, 0.1, TOL), z.as_vector())
            assert rep.converged
            z1 = from_vector(rep.state)
            g = weighted_gradient(sys, BOOLE, z, z1)
            dz = np.asarray(z1.as_vector()) - z.as_vector()
            # dz differs from h K g only by the solver residual
            # (<= 10 tol (1+|z0|)), so |g.dz| <= |g|_1 |residual|_inf
            scale = np.abs(g).sum() * (1.0 + np.abs(z.as_vector()).max())
            assert abs(float(g @ dz)) <= 1e-13 * scale
            z = z1


# --- step-kernel properties -------------------------------------------------
#
# Random states, step sizes and fields; these guard the kernel's fixed point
# independently of its bits.  The tokamak case adds a B that varies along the
# segment, and a first moment s != 1/2 makes the residual property see the
# roles of (1 - s) and s, which coincide for the built-in rules.

RULES = [builtin_rule(name) for name in ("trapezoid", "simpson", "boole")]
SKEWED = QuadratureRule("skewed", (0.0, 1.0), (0.25, 0.75), 0)

_unit = st.floats(-1.0, 1.0)
_vec = st.tuples(_unit, _unit, _unit)
_signed = lambda a, b: st.floats(a, b).flatmap(  # noqa: E731
    lambda v: st.sampled_from((v, -v)))
_h = _signed(0.02, 0.2)


@st.composite
def _starts(draw, electric=True):
    """(system, row): uniform or quartic_well fields (E = 0 unless
    ``electric``), or the tokamak with the start kept off its axis; the
    mass and the signed charge are drawn too, so that q/m is not 1."""
    B, x0, v0 = draw(_vec), draw(_vec), draw(_vec)
    kind = draw(st.sampled_from(("uniform", "quartic_well", "tokamak")))
    if kind == "uniform":
        fld = UniformField(B=B, E=draw(_vec) if electric else (0.0, 0.0, 0.0))
    elif kind == "quartic_well":
        strength = draw(st.floats(0.5, 1.0)) if electric else 0.0
        fld = QuarticWellField(B=B, strength=strength)
    else:
        fld = TokamakField()
        x0 = (1.0 + 0.5 * x0[0], 0.5 * x0[1], 0.5 * x0[2])
    mass, charge = draw(st.floats(0.5, 3.0)), draw(_signed(0.5, 2.0))
    return ChargedParticleSystem(mass, charge, fld), x0 + v0


def _scale(z0):
    return TOL.tolerance * (1.0 + np.abs(z0).max())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_starts(), st.sampled_from(RULES + [SKEWED]), _h)
def test_property_step_solves_the_scheme(start, rule, h):
    sys, z0 = start
    rep = dli_step(dli_kernel(sys, rule, h, TOL), z0)
    assert rep.converged
    res = dli_residual(sys, rule, from_vector(z0),
                       from_vector(rep.state), h)
    assert np.abs(res).max() <= 10.0 * _scale(z0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_vec, _vec, _vec, st.floats(0.5, 1.0), _h)
def test_property_quartic_energy_boole_exact_trapezoid_not(B, x0, v0, k, h):
    # H = |v|^2/2 + k |x|^4 has degree 4; trapezoid's energy change is its
    # quadrature defect of phi along the segment, -k |dx|^2 (|x1|^2 - |x0|^2)
    sys = ChargedParticleSystem(1.0, 1.0, QuarticWellField(B=B, strength=k))
    z0 = PhaseState(x0, v0)
    H0 = energy(sys, z0)
    bound = 10.0 * _scale(z0.as_vector()) * (1.0 + np.abs(grad_energy(sys, z0)).sum())
    z1 = {}
    for name in ("trapezoid", "boole"):
        rep = dli_step(dli_kernel(sys, builtin_rule(name), h, TOL), z0.as_vector())
        assert rep.converged
        z1[name] = from_vector(rep.state)
    assert abs(energy(sys, z1["boole"]) - H0) <= bound
    x0, x1 = np.asarray(z0.x), np.asarray(z1["trapezoid"].x)
    defect = -k * ((x1 - x0) @ (x1 - x0)) * (x1 @ x1 - x0 @ x0)
    assume(abs(defect) > 100.0 * bound)
    assert energy(sys, z1["trapezoid"]) - H0 == pytest.approx(defect, rel=1e-6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_starts(), st.sampled_from(RULES), _h)
def test_property_step_is_time_symmetric(start, rule, h):
    sys, z0 = start
    fwd = dli_step(dli_kernel(sys, rule, h, TOL), z0)
    back = dli_step(dli_kernel(sys, rule, -h, TOL), fwd.state)
    assert fwd.converged and back.converged
    assert np.abs(np.subtract(back.state, z0)).max() <= 10.0 * _scale(z0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_starts(electric=False), st.sampled_from(RULES), _h)
def test_property_speed_preserved_without_E(start, rule, h):
    # with s = 1/2 each iterate is an exact rotation of v0
    sys, z0 = start
    rep = dli_step(dli_kernel(sys, rule, h, TOL), z0)
    assert rep.converged
    speed0 = math.sqrt(sum(c * c for c in z0[3:]))
    speed1 = math.sqrt(sum(c * c for c in rep.state[3:]))
    assert abs(speed1 - speed0) <= 8 * math.ulp(speed0)


_offset = st.tuples(_unit, _unit, _unit, st.floats(-12.0, 0.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_starts(), st.sampled_from(RULES), _h, _offset)
def test_property_start_does_not_move_the_step(start, rule, h, offset):
    # a start near the answer (as the extrapolation in integrate gives) or
    # far from it reaches the same fixed point, and a start whose iteration
    # overflows falls back to v0 and returns the unstarted step's state
    sys, z0 = start
    ref = dli_step(dli_kernel(sys, rule, h, TOL), z0)
    assert ref.converged
    size = 10.0 ** offset[3]
    v_start = tuple(v + size * d for v, d in zip(ref.state[3:], offset[:3]))
    rep = dli_step(dli_kernel(sys, rule, h, TOL), z0, v_start)
    assert rep.converged
    assert np.abs(np.subtract(rep.state, ref.state)).max() <= 10.0 * _scale(z0)
    far = dli_step(dli_kernel(sys, rule, h, TOL), z0, (1e200, 0.0, 0.0))
    assert far.converged and far.state == ref.state


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_starts(), st.sampled_from(RULES), _h, _offset)
# the tokamak step at m = 0.875, q = -0.5 whose strict run's last iterate
# moves by 8.1e-16, 7.3 ulp of its largest component
@example((ChargedParticleSystem(0.875, -0.5, TokamakField()),
          (1.0, -0.125, 0.0, 0.75, -0.625, -0.0625)), RULES[0], -0.1875,
         (0.0, 0.0, 0.0, -12.0))
def test_property_contraction_stop_stays_near_the_strict_state(start, rule, h, offset):
    # the oracle with kappa = 0 applies only the strict test, whatever the
    # library's stop reads; the contraction estimate may stop earlier, but
    # only on a state within a small multiple of KAPPA tol (1 + |z0|) of the
    # strict one, plus the round-off of an iterate: a few ulp of the state's
    # largest component, since each velocity component sums terms of that size
    sys, z0 = start
    kernel = dli_kernel(sys, rule, h, TOL)
    size = 10.0 ** offset[3]
    ref = dli_step(kernel, z0)
    v_start = tuple(v + size * d for v, d in zip(ref.state[3:], offset[:3]))
    for start_v in (None, v_start):
        rep = dli_step(kernel, z0, start_v)
        strict, iterations, _, converged = dli_step_reference(kernel, z0, start_v, 0.0)
        assert rep.converged and converged
        assert rep.iterations <= iterations
        gap = np.abs(np.subtract(rep.state, strict)).max()
        round_off = 4.0 * math.ulp(np.abs(strict).max())
        assert gap <= 4.0 * bdli.integrators.KAPPA * _scale(z0) + round_off


def _extrapolated_start(states, k, degree):
    """The start of step k of the module docstring, as grouped there."""
    q = states[k::-1]  # newest first
    if degree == 8:
        return tuple(
            9.0 * (q[0][i] - q[7][i]) - 36.0 * (q[1][i] - q[6][i])
            + 84.0 * (q[2][i] - q[5][i]) - 126.0 * (q[3][i] - q[4][i]) + q[8][i]
            for i in (3, 4, 5))
    return tuple(
        7.0 * (q[0][i] - q[5][i]) - 21.0 * (q[1][i] - q[4][i])
        + 35.0 * (q[2][i] - q[3][i]) + q[6][i]
        for i in (3, 4, 5))


@pytest.mark.parametrize("opts,degree", [
    (SolverOptions(), 8),  # degree 8 from step 8 on
    (SolverOptions(1e-15), 6),  # degree 6 from step 6 on
], ids=["degree8", "degree6"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_starts(), st.sampled_from(RULES + [SKEWED]), _h)
def test_property_kernel_holds_no_per_step_state(opts, degree, start, rule, h):
    # integrate steps every row with one kernel; a fresh kernel per row,
    # from the same row and the same extrapolated start, gives the same step
    # bit for bit, so nothing of one step carries over to the next
    sys, z0 = start
    try:
        traj = integrate(sys, rule, from_vector(z0), h, 30, opts)
    except bdli.IntegrationError:
        assume(False)
    states = traj.states
    for k in range(30):
        v_start = _extrapolated_start(states, k, degree) if k >= degree else None
        rep = dli_step(dli_kernel(sys, rule, h, opts), states[k], v_start)
        assert rep.state == states[k + 1]
        assert rep.iterations == traj.iterations[k]
        assert rep.residual_norm == traj.residuals[k]


MILNE = QuadratureRule("milne", (0.25, 0.5, 0.75), (2 / 3, -1 / 3, 2 / 3), 3)


@pytest.mark.parametrize("rule", RULES + [MILNE], ids=lambda r: r.name)
@pytest.mark.parametrize("electric", [True, False])
def test_kernel_view_of_the_rule_is_bitwise_its_nodes_and_weights(rule, electric):
    # w0 is the weight of a leading c = 0 node, pairs the other (c, w) in
    # order, both dropped without E; s is sum w_i c_i in node order
    E = (0.1, -0.2, 0.3) if electric else (0.0, 0.0, 0.0)
    sys = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0.0, 0.0, 1.0), E=E))
    kernel = dli_kernel(sys, rule, 0.1, TOL)
    pairs = list(zip(rule.nodes, rule.weights))
    w0 = pairs.pop(0)[1] if electric and rule.nodes[0] == 0.0 else None
    s = 0.0
    for c, w in zip(rule.nodes, rule.weights):
        s += w * c
    assert kernel.w0 == w0
    assert kernel.pairs == (tuple(pairs) if electric else ())
    assert kernel.s.hex() == s.hex() and kernel.r.hex() == (1.0 - s).hex()


@functools.cache  # several tests read the same runs; none changes them
def _trajectory(name, h, n_steps, opts=None):
    scn = bdli.builtin_scenario(name)
    return integrate(scn.system(), BOOLE, scn.initial_state(), h or scn.h,
                     n_steps, opts or scn.solver)


def _mean_iterations(name, h, n_steps, opts=None):
    return np.mean(_trajectory(name, h, n_steps, opts).iterations)


def test_bdli_drift2d_fine_step_iteration_count():
    # at h = pi/1280 the extrapolated start is usually within the tolerance,
    # so ~1.01 iterations per step are left (from v0 it takes ~3.1)
    assert _mean_iterations("drift2d", math.pi / 1280, 2000) <= 2.5


@pytest.mark.parametrize("name,h,n_steps,bound", [
    # 3.64 and 2.16 with the strict test alone and the quadratic start (3.00
    # and 2.03 with the contraction estimate); 2.02 and 1.01 here
    ("banana", None, 500, 3.2),
    ("drift2d", math.pi / 1280, 2000, 2.1),
])
def test_contraction_stop_saves_the_confirming_iterate(name, h, n_steps, bound):
    assert _mean_iterations(name, h, n_steps) <= bound


@pytest.mark.parametrize("name,h,n_steps,bound", [
    # 2.02 and 1.01 here, where the default tolerance starts from degree 8;
    # 2.68 and 1.09 from degree 6 and 3.00 and 2.03 from the quadratic start
    ("banana", None, 500, 2.85),
    ("drift2d", math.pi / 1280, 2000, 1.2),
])
def test_degree6_start_saves_the_correcting_iterate(name, h, n_steps, bound):
    assert _mean_iterations(name, h, n_steps) <= bound


def test_degree6_start_is_accepted_on_the_first_iterate():
    # from step 6 on, the start is the extrapolation; on the fine rung it is
    # usually already within the tolerance (99.8% of the steps here from the
    # default tolerance's degree-8 start, 92% from degree 6)
    iters = np.array(_trajectory("drift2d", math.pi / 1280, 2000).iterations)
    assert np.mean(iters[6:] == 1) >= 0.85


@pytest.mark.parametrize("tol,bound", [
    # the round-off in the accepted velocities, amplified by the
    # extrapolation's coefficients (their absolute sum is 2^(p+1) for degree
    # p), is near these tolerances.  Over these 2000 steps degree 6 takes
    # 1.304 and 1.9785 iterations; the quadratic start 2.0325 and 2.0895,
    # degree 7 1.843 and 2.001 (its coefficients paired as in the degree-6
    # form; 1.7255 at 1e-15 summed in order), and degree 8, run below
    # DEGREE8_TOLERANCE, 1.8285 and 2.004.  At 1e-16 the contraction
    # estimate caps every degree near 2, so 1e-15 is where a start of too
    # high a degree shows.
    (1e-15, 1.55),
    (1e-16, 2.05),
])
def test_degree6_start_is_not_swamped_by_round_off(tol, bound):
    opts = SolverOptions(tolerance=tol)
    assert _mean_iterations("drift2d", math.pi / 1280, 2000, opts) <= bound


def test_degree8_start_leaves_two_iterates_on_banana():
    # at the default tolerance the degree-8 start is close enough for the
    # contraction estimate to stop at the second iterate: 2.02 here (2.68
    # from degree 6)
    assert _mean_iterations("banana", None, 500) <= 2.05


def test_degree8_start_is_accepted_on_the_first_iterate():
    # on the fine rung 99.95% of the steps from step 8 on (91.7% from degree 6)
    iters = np.array(_trajectory("drift2d", math.pi / 1280, 2000).iterations)
    assert np.mean(iters[8:] == 1) >= 0.98


# sha256 of the states, the int64 iteration counts and the float64 residuals
# of 2000 drift2d steps at h = pi/1280 and tolerance 1e-15, taken when every
# tolerance started from the degree-6 extrapolation.  Below DEGREE8_TOLERANCE
# the start is still degree 6, so not one bit of these steps may move.
DEGREE6_DIGESTS = (
    "5e6b1b04ce682299f792bdc6bfda072b6f7080d4e8159ad8909a0629b3937d4f",
    "c2844bd4f4ea6524f25481b50612d62bda7b71fdd72ea7b6da2c248cdc9e8f62",
    "e951859a2ca237b33cb876b05f38ba404fa200c59aa367529a1f66360f1a1e65")


def test_degree6_start_below_the_gate_is_bitwise_unchanged():
    traj = _trajectory("drift2d", math.pi / 1280, 2000, SolverOptions(1e-15))
    got = (np.array(traj.states), np.array(traj.iterations, dtype=np.int64),
           np.array(traj.residuals))
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in got) == DEGREE6_DIGESTS


def test_integrate_keeps_each_steps_residual():
    scn = bdli.builtin_scenario("drift2d")
    traj = _trajectory("drift2d", math.pi / 1280, 2000)
    assert len(traj.residuals) == len(traj.iterations)
    bounds = scn.solver.tolerance * (
        1.0 + np.abs(np.array(traj.states[:-1])).max(axis=1))
    assert np.all(np.array(traj.residuals) <= bounds)
    assert max(traj.residuals) > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonconvergence_is_reported():
    sys = ChargedParticleSystem(1.0, 1.0, QuarticWellField(strength=50.0))
    z0 = PhaseState((2.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    kernel = dli_kernel(sys, BOOLE, 1.0, SolverOptions(max_iterations=10))
    rep = dli_step(kernel, z0.as_vector())
    assert not rep.converged
    # the second iterate difference is not below the first, so the attempt
    # ends there, far from the fixed point
    assert rep.iterations == 2 and f"{rep.residual_norm:.3e}" == "1.299e+10"


def test_fixed_point_independent_of_solver_tolerance():
    sys = ChargedParticleSystem(1.0, 1.0, CylindricalDriftField())
    z0 = PhaseState((0.0, 1.0, 0.0), (0.1, 0.01, 0.0))
    reps = {}
    for tol in (1e-12, 1e-15):
        kernel = dli_kernel(sys, BOOLE, 0.1, SolverOptions(tolerance=tol))
        rep = dli_step(kernel, z0.as_vector())
        assert rep.converged
        z1 = from_vector(rep.state)
        r = dli_residual(sys, BOOLE, z0, z1, 0.1)
        assert np.abs(r).max() <= tol * (1.0 + np.abs(z0.as_vector()).max())
        reps[tol] = z1.as_vector()
    assert reps[1e-12] == pytest.approx(reps[1e-15], abs=5e-14)


# --- boris ------------------------------------------------------------------

def test_boris_preserves_speed_without_E():
    sys = ChargedParticleSystem(1.0, 1.0, TokamakField())
    rng = np.random.default_rng(19)
    for _ in range(50):
        ang = rng.uniform(0, 2 * math.pi)
        R = rng.uniform(0.7, 1.3)
        z = PhaseState(
            (R * math.cos(ang), R * math.sin(ang), rng.uniform(-0.2, 0.2)),
            rng.normal(0, 1e-3, 3),
        )
        z1 = from_vector(boris_step(sys, z.as_vector(), math.pi / 10))
        s0, s1 = np.linalg.norm(z.v), np.linalg.norm(z1.v)
        assert abs(s1 - s0) <= 1e-15 * s0


def test_boris_zero_fields_free_streaming():
    sys = free_system()
    z0 = PhaseState((1.0, 2.0, 3.0), (0.5, -0.5, 0.25))
    z1 = from_vector(boris_step(sys, z0.as_vector(), 0.4))
    assert np.array_equal(z1.v, z0.v)
    assert z1.x == pytest.approx(np.asarray(z0.x) + 0.4 * np.asarray(z0.v), rel=1e-16)


@pytest.mark.parametrize("mass,charge", [(1.0, 1.0), (2.0, 3.0), (0.5, -0.8)])
def test_boris_rotation_angle_uniform_B(mass, charge):
    # per-step planar rotation angle is exactly 2 arctan(q B h / (2 m)) for
    # B = e_z, clockwise for q > 0
    sys = ChargedParticleSystem(mass, charge, UniformField(B=(0.0, 0.0, 1.0)))
    h = 0.3
    z = PhaseState((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    expected = 2.0 * math.atan(charge * h / (2.0 * mass))
    total = 0.0
    prev = math.atan2(z.v[1], z.v[0])
    for _ in range(20):
        z = from_vector(boris_step(sys, z.as_vector(), h))
        ang = math.atan2(z.v[1], z.v[0])
        total += (prev - ang + math.pi) % (2 * math.pi) - math.pi
        prev = ang
    assert total / 20.0 == pytest.approx(expected, rel=1e-13)


# --- rk4 --------------------------------------------------------------------

def test_rk4_zero_fields_exact():
    sys = free_system()
    z0 = PhaseState((0.0, 0.0, 0.0), (1.0, 2.0, -1.0))
    z1 = from_vector(rk4_step(sys, z0.as_vector(), 0.7))
    assert z1.x == pytest.approx(0.7 * np.asarray(z0.v), rel=1e-16)
    assert np.array_equal(z1.v, z0.v)


def test_rk4_local_order_five():
    # against the exact gyration in a uniform field, halving h must shrink
    # the one-step error by ~2^5
    sys = uniform_b_system()
    z0 = PhaseState((0.0, 0.0, 0.0), (1.0, 0.0, 0.5))

    def exact(h):
        # rotation about e_z by angle -h plus free streaming in z
        c, s = math.cos(h), math.sin(h)
        vx, vy, vz = z0.v
        x = np.array([vy - (vy * c - vx * s), (vx * c + vy * s) - vx, vz * h])
        v = np.array([vx * c + vy * s, vy * c - vx * s, vz])
        return np.concatenate([x, v])

    errs = []
    for h in (0.2, 0.1, 0.05):
        got = from_vector(rk4_step(sys, z0.as_vector(), h)).as_vector()
        errs.append(np.linalg.norm(got - exact(h)))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for s in slopes:
        assert 4.8 <= s <= 5.2


# --- mass and charge: every stepper sees q/m only ----------------------------

@pytest.mark.parametrize("method", ["bdli", "boris", "rk4"])
@pytest.mark.parametrize("fld", [QuarticWellField(B=(0.2, -0.3, 1.0), strength=0.5),
                                 CylindricalDriftField()], ids=lambda f: f.name)
def test_steppers_depend_on_the_charge_to_mass_ratio_only(method, fld):
    z0 = PhaseState((0.7, 0.2, -0.1), (0.1, -0.3, 0.2))
    rows = [integrate(ChargedParticleSystem(m, q, fld), resolve_method(method),
                      z0, 0.05, 20).states
            for m, q in ((2.0, 3.0), (1.0, 1.5))]
    np.testing.assert_allclose(rows[0], rows[1], rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("method,order", [("bdli", 2), ("boris", 2), ("rk4", 4)])
def test_uniform_B_gyration_closes_after_one_period(method, order):
    # v perpendicular to a uniform B = 0.8 e_z turns once in
    # T = 2 pi m / (|q| B); after T the state is back at its start up to the
    # scheme's phase error, O(h^2) (O(h^4) for rk4)
    mass, charge = 1.5, -2.0
    sys = ChargedParticleSystem(mass, charge, UniformField(B=(0.0, 0.0, 0.8)))
    z0 = PhaseState((0.3, -0.1, 0.2), (0.4, 0.25, 0.0))
    period = 2.0 * math.pi * mass / (abs(charge) * 0.8)
    errs = []
    for n in (64, 128):
        states = integrate(sys, resolve_method(method), z0, period / n, n).states
        errs.append(np.abs(np.subtract(states[-1], states[0])).max())
    h = period / 128
    assert errs[1] <= h ** 2
    assert math.log2(errs[0] / errs[1]) == pytest.approx(order, abs=0.1)


def _bits(row):
    """The row's floats as hex strings, which also tell -0.0 from 0.0."""
    return tuple(map(float.hex, row))


_off_axis = st.tuples(st.floats(0.5, 2.0), st.floats(0.0, 2 * math.pi),
                      st.floats(-0.5, 0.5)).map(
    lambda p: (p[0] * math.cos(p[1]), p[0] * math.sin(p[1]), p[2]))
# one strategy per registered field model: (field, start position)
_MODEL_STARTS = {
    "cylindrical_drift": st.builds(CylindricalDriftField, _signed(0.0, 0.1))
    .flatmap(lambda f: st.tuples(st.just(f), _off_axis)),
    "tokamak": st.builds(TokamakField, _signed(0.1, 2.0), st.floats(0.5, 2.0),
                         _signed(0.5, 4.0))
    .flatmap(lambda f: st.tuples(st.just(f), _off_axis)),
    "uniform": st.tuples(st.builds(UniformField, _vec, _vec), _vec),
    "quartic_well": st.tuples(
        st.builds(QuarticWellField, _vec, st.floats(0.0, 1.0)), _vec),
}


def test_model_starts_cover_every_field_model():
    assert sorted(_MODEL_STARTS) == sorted(FIELD_MODELS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_MODEL_STARTS)).flatmap(_MODEL_STARTS.get),
       _vec, _h, st.sampled_from((1.0, -1.0, 0.5)))
def test_property_rk4_step_equals_the_closure_form(start, v0, h, charge):
    # the written-out stages keep every expression and its association, so
    # they match the one-accel-call-per-stage form bit for bit, also in the
    # sign of a zero velocity component on a zero-E field; ten steps, so
    # that a rounding difference in any stage carries into a compared row
    fld, x0 = start
    sys = ChargedParticleSystem(1.0, charge, fld)
    z = z_ref = tuple(x0) + tuple(v0)
    for _ in range(10):
        z, z_ref = rk4_step(sys, z, h), rk4_step_reference(sys, z_ref, h)
        assert _bits(z) == _bits(z_ref)


# signed zeros, subnormals and non-finite values for the rows below
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf,
            math.nan)


@st.composite
def _tie_rows(draw):
    """(field, row) on any field model, with components replaced by a
    special value or by another component's magnitude with either sign, so
    that |z0|_inf and the iterate differences meet ties, signed zeros and
    NaN in every position."""
    fld, x0 = draw(st.sampled_from(sorted(_MODEL_STARTS)).flatmap(_MODEL_STARTS.get))
    row = list(x0) + list(draw(_vec))
    for i in range(6):
        how = draw(st.sampled_from(("keep", "special", "tie")))
        if how == "special":
            row[i] = draw(st.sampled_from(_SPECIAL))
        elif how == "tie":
            row[i] = math.copysign(row[draw(st.integers(0, 5))],
                                   draw(st.sampled_from((1.0, -1.0))))
    return fld, tuple(row)


def _dli_outcome(step, *args):
    """What a DLI step gives: its fields in hex, or the error it raises."""
    try:
        state, n, residual, converged = step(*args)
    except (ArithmeticError, ValueError) as exc:  # a singular or overflowing sample
        return type(exc), str(exc)
    return _bits(state), n, residual.hex(), converged


_v_starts = st.one_of(
    st.none(), st.tuples(*[st.one_of(_unit, st.sampled_from(_SPECIAL))] * 3))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_tie_rows(), _v_starts, st.sampled_from(RULES + [SKEWED]),
       _h, st.sampled_from((1.0, -1.0)), st.sampled_from((TOL, SolverOptions(1e-10, 3))))
def test_property_dli_step_equals_the_builtin_max_form(start, v_start, rule, h,
                                                       charge, opts):
    # the compare chains keep the builtin max's choice among ties and NaN,
    # so the step equals the max(map(abs, z0)) form bit for bit, also in
    # its iteration count, residual and convergence flag; a start with NaN
    # after its first component leaves a uniform field's first iterate
    # finite, so only a delta that skips a late NaN keeps iterating
    fld, z0 = start
    kernel = dli_kernel(ChargedParticleSystem(1.0, charge, fld), rule, h, opts)
    assert _dli_outcome(dli_step, kernel, z0, v_start) == _dli_outcome(
        dli_step_reference, kernel, z0, v_start, bdli.integrators.KAPPA)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_tie_rows(), st.integers(0, 5), st.integers(0, 2), st.floats(1e-12, 1e-6),
       st.sampled_from((1.0 - 2.0**-8, 1.0 + 2.0**-8)), _h)
def test_property_dli_stop_scale_is_the_builtin_max(start, i, j, tol, edge, h):
    # without a field the first iterate is v0 itself, so one iterate from
    # v0 + gap e_j is accepted iff gap <= tol (1 + |z0|_inf): a gap just
    # inside or outside the edge set by |z0_i| shows which maximum was taken
    _, z0 = start
    sys = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0.0, 0.0, 0.0)))
    kernel = dli_kernel(sys, BOOLE, h, SolverOptions(tol, 1))
    v_start = list(z0[3:])
    v_start[j] += edge * tol * (1.0 + abs(z0[i]))
    assert _dli_outcome(dli_step, kernel, z0, tuple(v_start)) == _dli_outcome(
        dli_step_reference, kernel, z0, tuple(v_start), bdli.integrators.KAPPA)


def test_rk4_step_keeps_the_sign_of_a_zero_velocity():
    # with B = 0 and vy < 0, vy bz is -0.0; the E term 0.0 added before it
    # makes the x acceleration +0.0, so vx = -0.0 + (h/6) (+0.0) ends +0.0,
    # as in the closure form; a step that left out E would keep -0.0
    sys = ChargedParticleSystem(1.0, 1.0, UniformField(B=(0, 0, 0)))
    z0 = (0.0, 0.0, 0.0, -0.0, -1.0, 0.0)
    got = rk4_step(sys, z0, 0.1)
    assert _bits(got) == _bits(rk4_step_reference(sys, z0, 0.1))
    assert math.copysign(1.0, got[3]) == 1.0


# --- integrate ----------------------------------------------------------------

def test_integrate_zero_steps():
    sys = uniform_b_system()
    z0 = PhaseState((1, 0, 0), (0, 1, 0))
    traj = integrate(sys, BOOLE, z0, 0.1, 0)
    assert len(traj) == 1
    assert np.array_equal(traj.states[0], z0.as_vector())


def test_integrate_negative_steps_is_refused():
    z0 = PhaseState((1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="n_steps must be >= 0"):
        integrate(uniform_b_system(), BOOLE, z0, 0.1, -1)


def test_integrate_monotone_time_and_shapes():
    sys = uniform_b_system()
    traj = integrate(sys, rk4_step, PhaseState((1, 0, 0), (0, 1, 0)), 0.05, 40)
    assert len(traj) == 41
    assert np.asarray(traj.states).shape == (41, 6)
    assert np.asarray(traj.iterations).shape == (40,)
    assert np.all(np.asarray(traj.iterations) == 0)  # explicit method
    assert traj.residuals == [0.0] * 40


def test_integrate_runs_a_custom_rule_as_a_built_in_one():
    # a rule needs no name lookup: a custom rule with Simpson's nodes and
    # weights steps as Simpson's rule does, and only its name differs
    scn = bdli.builtin_scenario("banana")
    args = (scn.initial_state(), scn.h, 20, scn.solver)
    simpson = integrate(scn.system(), builtin_rule("simpson"), *args)
    custom = QuadratureRule("w3", (0.0, 0.5, 1.0), (1 / 6, 4 / 6, 1 / 6), 3)
    w3 = integrate(scn.system(), custom, *args)
    assert np.array_equal(w3.states, simpson.states)
    assert np.array_equal(w3.iterations, simpson.iterations)


def test_resolve_method_reads_the_method_text():
    assert resolve_method("bdli") is resolve_method("dli:boole") is BOOLE
    assert resolve_method("dli:simpson") is builtin_rule("simpson")
    assert resolve_method("boris") is boris_step
    assert resolve_method("rk4") is rk4_step
    custom = QuadratureRule("w3", (0.0, 0.5, 1.0), (1 / 6, 4 / 6, 1 / 6), 3)
    assert resolve_method("dli:w3", custom) is custom
    with pytest.raises(ValueError, match="unknown quadrature rule 'w3'"):
        resolve_method("dli:w3")
    with pytest.raises(ValueError, match="unknown method 'leapfrog'"):
        resolve_method("leapfrog")


def test_integrate_calls_dli_step_through_the_module_once_per_step(monkeypatch):
    # perfbench/tracing.py times and counts DLI steps by rebinding
    # bdli.integrators.dli_step; integrate builds the trajectory's kernel
    # once but must pass it to that name on every step: a loop that bound
    # the step function once, or stepped through a closure over the kernel,
    # would hide every step from the tracer
    calls = 0
    step = bdli.integrators.dli_step

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(bdli.integrators, "dli_step", counting)
    scn = bdli.builtin_scenario("banana")
    integrate(scn.system(), BOOLE, scn.initial_state(), scn.h, 50, scn.solver)
    assert calls == 50


@pytest.mark.parametrize("method", ["boris", "rk4"])
def test_integrate_calls_reference_steppers_through_the_module(monkeypatch, method):
    # perfbench/tracing.py counts Boris and RK4 steps (integrators.steps) by
    # rebinding bdli.integrators.boris_step and rk4_step before it builds a
    # scenario: the scenario must look its stepper up in the module, and a
    # run must call that stepper once per step
    calls = 0
    step = getattr(bdli.integrators, f"{method}_step")

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(bdli.integrators, f"{method}_step", counting)
    scn = replace(bdli.builtin_scenario("banana"), method=method, n_steps=50)
    traj = scn.run_trajectory()
    assert calls == 50
    assert len(traj) == 51


def test_integrate_builds_one_kernel_per_trajectory(monkeypatch):
    calls = []
    build = bdli.integrators.dli_kernel

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(bdli.integrators, "dli_kernel", counting)
    scn = bdli.builtin_scenario("drift2d")
    for stepper in (BOOLE, builtin_rule("simpson"), boris_step, rk4_step):
        integrate(scn.system(), stepper, scn.initial_state(), scn.h, 40, scn.solver)
    assert [args[1].name for args in calls] == ["boole", "simpson"]
    assert all(args[2] == scn.h and args[3] is scn.solver for args in calls)


def test_dli_run_without_E_never_samples_E(monkeypatch):
    # the tokamak has E = 0: its kernel has no E nodes, so no step calls e_at
    counts = {"e_at": 0, "b_at": 0}
    for name in counts:
        original = getattr(TokamakField, name)

        def counted(self, x, y, z, name=name, original=original):
            counts[name] += 1
            return original(self, x, y, z)

        monkeypatch.setattr(TokamakField, name, counted)
    scn = bdli.builtin_scenario("banana")
    traj = integrate(scn.system(), BOOLE, scn.initial_state(), scn.h, 50, scn.solver)
    assert counts["e_at"] == 0
    assert counts["b_at"] == sum(traj.iterations) > 0


@pytest.mark.parametrize("method", ["boris", "rk4", "bdli"])
def test_integrate_singularity_abort_with_partial(method):
    sys = ChargedParticleSystem(1.0, 1.0, CylindricalDriftField())
    # resting on the singular axis: the first field evaluation must abort;
    # 10**12 steps could not be held, so nothing may be sized by the count
    z0 = PhaseState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    for n_steps in (10, 10**12):
        with pytest.raises(SingularityError) as info:
            integrate(sys, resolve_method(method), z0, 0.1, n_steps)
        err = info.value
        assert err.step_index == 0 == len(err.trajectory.iterations)
        assert len(err.trajectory) == 1
        assert np.array_equal(err.trajectory.states[0], z0.as_vector())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_nonconvergence_abort_with_partial():
    sys = ChargedParticleSystem(1.0, 1.0, QuarticWellField(strength=50.0))
    z0 = PhaseState((2.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(NonConvergenceError) as info:
        integrate(sys, BOOLE, z0, 1.0, 5, SolverOptions(max_iterations=8))
    # the message names the stepper, here the DLI step with Boole's rule; at
    # the default tolerance the stop scale (3e-14) is far above the
    # round-off of |z0|_inf = 2, so it carries no round-off note
    assert str(info.value) == ("dli:boole: fixed-point solver did not converge "
                               "at step 0 (residual 1.299e+10 after 2 iterations)")
    assert len(info.value.trajectory) == 1
    assert info.value.step_index == len(info.value.trajectory.iterations)


def test_failure_below_the_round_off_of_the_update_says_so():
    # at tolerance 1e-16 the builtin drift2d's stop scale tol (1 + |z0|_inf)
    # is 4.1 ulp of |z0|_inf = 0.144 at step 70, where the rounding of the
    # update keeps every iterate difference above it
    scn = bdli.builtin_scenario("drift2d")
    with pytest.raises(NonConvergenceError) as info:
        integrate(scn.system(), BOOLE, scn.initial_state(), scn.h, 2000,
                  SolverOptions(1e-16))
    assert info.value.step_index == 70
    assert str(info.value) == (
        "dli:boole: fixed-point solver did not converge at step 70 (residual "
        "1.665e-16 after 75 iterations); tolerance 1e-16 is below the "
        "round-off of the update: its stop scale 1.144e-16 is 4.1 ulp of "
        "|z0|_inf = 0.144")


def _attempt_deltas(kernel, z0):
    """``dli_step(kernel, z0)`` from v0 and the iterate differences
    |v_n - v_(n-1)|_inf of that attempt, read off runs capped at 1, 2, ...
    iterations, each of which returns its last iterate."""
    vs = [z0[3:]]
    for n in kernel.iterates:
        rep = dli_step(kernel._replace(iterates=range(1, n + 1)), z0)
        if rep.iterations < n or rep.converged:
            break
        vs.append(rep.state[3:])
    return rep, [max(map(abs, map(float.__sub__, a, b))) for a, b in zip(vs[1:], vs)]


def _ends_at_its_first_non_contraction(rep, deltas):
    *contracting, last = deltas
    return (not rep.converged and rep.iterations == len(deltas)
            and all(b < a for a, b in zip(contracting, contracting[1:]))
            and last >= contracting[-1])


def test_stagnating_failure_ends_once_the_iteration_stops_contracting():
    # at tolerance 1e-16, drift2d step 70 from v0 contracts at theta ~0.37 down
    # to 1.665e-16, the round-off of the update, which then repeats (theta = 1);
    # the attempt ends there, not at max_iterations
    scn = bdli.builtin_scenario("drift2d")
    opts = SolverOptions(1e-16)
    with pytest.raises(NonConvergenceError) as info:
        integrate(scn.system(), BOOLE, scn.initial_state(), scn.h, 100, opts)
    z70 = info.value.trajectory.states[-1]
    rep, deltas = _attempt_deltas(dli_kernel(scn.system(), BOOLE, scn.h, opts), z70)
    assert _ends_at_its_first_non_contraction(rep, deltas)
    assert rep.iterations == 38 < opts.max_iterations
    assert deltas[-1] == deltas[-2] and f"{deltas[-1]:.3e}" == "1.665e-16"


def test_diverging_failure_ends_once_the_iteration_stops_contracting():
    # in the quartic well at h = 1 the iterate differences shrink twice
    # (5.675, 5.617, 5.294), then grow (theta > 1); left to run, the
    # iterates reach a non-finite value at the twelfth
    sys = ChargedParticleSystem(1.0, 1.0, QuarticWellField(strength=0.5))
    kernel = dli_kernel(sys, BOOLE, 1.0)
    rep, deltas = _attempt_deltas(kernel, (1.5, 0.0, 0.0, 0.0, 0.5, 0.0))
    assert _ends_at_its_first_non_contraction(rep, deltas)
    assert rep.iterations == 4 and f"{rep.residual_norm:.3e}" == "8.104e+00"


@pytest.mark.parametrize("h", [5.0, -5.0])
def test_step_stops_on_the_position_iterates_when_h_s_exceeds_one(h):
    # with |h| s = 2.5 the position iterates x_n = x0 + h (r v0 + s v_n)
    # differ by 2.5 times the velocity iterates: each iterate's residual is
    # |z_n - z_(n-1)|_inf, read off runs capped at n iterations, and the step
    # stops only once that is within tol (1 + |z0|_inf), here after 40 and
    # 46 iterates of a slow contraction (theta ~0.45 and ~0.49)
    sys = ChargedParticleSystem(1.0, 1.0, QuarticWellField(strength=0.02))
    z0 = (0.6, -0.2, 0.1, 0.1, 0.3, -0.05)
    kernel = dli_kernel(sys, BOOLE, h, TOL)
    assert kernel.dz_factor == 2.5
    rep = dli_step(kernel, z0)
    assert rep.converged
    reps = [dli_step(kernel._replace(iterates=range(1, n + 1)), z0)
            for n in range(1, rep.iterations)] + [rep]
    dz = [max(map(abs, map(float.__sub__, a.state, b.state)))
          for a, b in zip(reps[1:], reps)]
    for got, diff in zip(reps[1:], dz):
        assert got.residual_norm == pytest.approx(diff, rel=1e-2)
    assert dz[-1] <= _scale(z0) < dz[-2]


def test_tolerance_just_above_the_round_off_of_the_update_converges():
    # at 2e-16 the same scale is 8.2 ulp of |z0|_inf, and all 2000 steps pass
    traj = _trajectory("drift2d", None, 2000, SolverOptions(2e-16))
    assert len(traj.iterations) == 2000


def test_integrate_partial_trajectory_keeps_the_accepted_residuals(monkeypatch):
    scn = bdli.builtin_scenario("banana")
    args = (scn.system(), BOOLE, scn.initial_state(), scn.h, 20, scn.solver)
    full = integrate(*args)
    step = bdli.integrators.dli_step
    calls = []

    def fail_at_step_12(*a):
        calls.append(None)
        rep = step(*a)
        return rep._replace(converged=False) if len(calls) == 13 else rep

    monkeypatch.setattr(bdli.integrators, "dli_step", fail_at_step_12)
    with pytest.raises(NonConvergenceError) as info:
        integrate(*args)
    part = info.value.trajectory
    assert info.value.step_index == 12 == len(part.iterations)
    assert part.states == full.states[:13]
    assert part.iterations == full.iterations[:12]
    assert part.residuals == full.residuals[:12]


@pytest.mark.parametrize("method", ["boris", "rk4", "bdli"])
def test_integrate_nonfinite_state_aborts_with_partial(method):
    # a step this large overflows the first state; the loop must report it
    # as a failed step, not let it into the states array
    scn = bdli.builtin_scenario("banana")
    z0 = scn.initial_state()
    with pytest.raises(NonConvergenceError) as info:
        integrate(scn.system(), resolve_method(method), z0, 1e308, 3, scn.solver)
    err = info.value
    assert err.step_index == 0 == len(err.trajectory.iterations)
    assert len(err.trajectory) == 1
    assert np.array_equal(err.trajectory.states[0], z0.as_vector())


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("j", range(6))
def test_integrate_nonfinite_check_reads_every_component(j, bad):
    # the finite check tests the six components one by one; a row that is
    # non-finite in component j alone must abort the run at that step
    step = boris_step
    calls = []

    def bad_at_step_3(sys, z, h):
        calls.append(None)
        row = step(sys, z, h)
        return row[:j] + (bad,) + row[j + 1:] if len(calls) == 4 else row

    scn = bdli.builtin_scenario("banana")
    z0 = scn.initial_state()
    with pytest.raises(NonConvergenceError, match="non-finite state at step 3") as info:
        integrate(scn.system(), bad_at_step_3, z0, scn.h, 6)
    err = info.value
    assert err.step_index == 3 == len(err.trajectory.iterations)
    assert len(err.trajectory) == 4
    assert all(map(math.isfinite, np.ravel(err.trajectory.states)))


# sha256 of np.array(integrate(...).states).tobytes() for 500 steps from the builtin
# start.  Any change to a kernel's arithmetic or its order changes them; the
# kernels use only + - * / and sqrt (correctly rounded in IEEE 754), so the
# digests do not depend on the platform's libm.  A solver change that keeps
# the fixed point still moves the DLI digests by ulps; the property tests
# above are what such a change must keep.
STATE_DIGESTS = {
    ("banana", "bdli"):
        "088c89ea5e0433382f49cf58f60e6ed754077285019a26b8423f494f5a3266d2",
    ("banana", "boris"):
        "552502fb8e8944b04639b549718a20f70b9e9ed1381f7fa6a9e0d085774175ee",
    ("banana", "rk4"):
        "88c2bf5bed5feb6e77901c38e444c09b9637b84780058b96f65a9d248d3efdc2",
    ("drift2d", "bdli"):
        "dac6f183f1aec708246f74d4e01b122a20673f5fc656140379d86fde7c820a38",
    # drift2d has E != 0, so these two also pin the order of the E terms
    ("drift2d", "boris"):
        "083f3cca12982cca089f8b8f504e1095a38458146332f78faa2d80eeae2eb524",
    ("drift2d", "rk4"):
        "6582e44b8f27d704e7721e0997ab2d835d3839f19108bef9eec47934f9bd7686",
}


@pytest.mark.parametrize("name,method", sorted(STATE_DIGESTS))
def test_step_kernels_bitwise_pinned(name, method):
    scn = bdli.builtin_scenario(name)
    traj = integrate(scn.system(), resolve_method(method), scn.initial_state(),
                     scn.h, 500, scn.solver)
    digest = hashlib.sha256(np.array(traj.states).tobytes()).hexdigest()
    assert digest == STATE_DIGESTS[name, method]


# sha256 of the int64 iteration counts and the float64 residuals of the same
# 500-step bdli runs.  The stop scale tol (1 + |z0|_inf) and each iterate's
# delta decide every accept; these pin the decisions and the residuals they
# report, next to the states they lead to.
SOLVER_DIGESTS = {
    "banana": (
        "2176e26e2025005182f838862b3538d0cce342a0ca99976da54581e9c0857b18",
        "c53697e433ae032d7a51e73f0762943cb0c5c916044d63a9291ece2e8b677009"),
    "drift2d": (
        "d2dcfe48cb08593a1f0d880885276b4b69255a720b3c19e2137c3fd2cb5e755f",
        "9ec632ed7be6616a36b319fe756a8fe98fb8cac53527c84d49ed856100768025"),
}


@pytest.mark.parametrize("name", sorted(SOLVER_DIGESTS))
def test_solver_iterations_and_residuals_bitwise_pinned(name):
    scn = bdli.builtin_scenario(name)
    traj = integrate(scn.system(), BOOLE, scn.initial_state(), scn.h, 500,
                     scn.solver)
    got = (np.array(traj.iterations, dtype=np.int64), np.array(traj.residuals))
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in got) == SOLVER_DIGESTS[name]


def test_bdli_banana_iteration_count():
    # the exact rotation leaves only the drift of B along the segment to the
    # iteration: ~2.0 iterations per step (3.0 from the quadratic start; with
    # the strict stopping test alone, 3.6 from it and 3.9 from v0), against
    # 13 for a Picard iteration that treats v x B explicitly
    assert _mean_iterations("banana", None, 500) <= 5.0


# --- conservation and symmetry ---------------------------------------------

def test_polynomial_energy_conserved_per_step(banana_bdli, quartic_bdli):
    for sys, traj in (banana_bdli, quartic_bdli):
        H = np.array(energies(sys, traj.states[::25]))
        bound = 100.0 * 1e-14 * (1.0 + np.abs(H).max())
        assert np.abs(np.diff(H)).max() <= bound * 25


def test_reversed_time_consistency():
    # N steps forward then N steps with -h return to the start
    scn = bdli.builtin_scenario("drift2d")
    sys = scn.system()
    z0 = scn.initial_state()
    n = 200
    fwd = integrate(sys, BOOLE, z0, scn.h, n, scn.solver)
    back = integrate(sys, BOOLE, from_vector(fwd.states[-1]), -scn.h,
                     n, scn.solver)
    err = np.abs(np.asarray(back.states[-1]) - z0.as_vector()).max()
    assert err <= n * 100 * scn.solver.tolerance * (1 + np.abs(z0.as_vector()).max())


def test_single_step_symmetry_random_states():
    fields = [CylindricalDriftField(), TokamakField(), UniformField(E=(0.1, 0, 0)),
              QuarticWellField()]
    rng = np.random.default_rng(43)
    for fld in fields:
        sys = ChargedParticleSystem(1.0, 1.0, fld)
        for _ in range(10):
            ang = rng.uniform(0, 2 * math.pi)
            R = rng.uniform(0.5, 1.5)
            z0 = PhaseState(
                (R * math.cos(ang), R * math.sin(ang), rng.uniform(-0.3, 0.3)),
                rng.normal(0, 0.1, 3),
            )
            fwd = dli_step(dli_kernel(sys, BOOLE, math.pi / 10, TOL), z0.as_vector())
            back = dli_step(dli_kernel(sys, BOOLE, -math.pi / 10, TOL), fwd.state)
            assert fwd.converged and back.converged
            err = np.abs(np.asarray(from_vector(back.state).as_vector())
                         - z0.as_vector()).max()
            scale = TOL.tolerance * (1 + np.abs(z0.as_vector()).max())
            assert err <= 10 * scale
