import math

import numpy as np
import pytest

from bdli import (
    ChargedParticleSystem,
    ConfigError,
    PhaseState,
    QuadratureRule,
    UniformField,
    builtin_rule,
)
from bdli.experiments import _scenario_from_dict
from bdli.fields import FieldModel
from oracles import grad_energy, weighted_gradient

RULES = ("trapezoid", "simpson", "boole")


def test_builtin_rule_values():
    b = builtin_rule("boole")
    assert b.nodes == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert b.weights == (7 / 90, 32 / 90, 12 / 90, 32 / 90, 7 / 90)
    assert b.degree_of_exactness == 5
    s = builtin_rule("simpson")
    assert s.nodes == (0.0, 0.5, 1.0)
    assert s.weights == (1 / 6, 4 / 6, 1 / 6)
    assert s.degree_of_exactness == 3
    t = builtin_rule("trapezoid")
    assert t.nodes == (0.0, 1.0)
    assert t.weights == (0.5, 0.5)
    assert t.degree_of_exactness == 1


def test_unknown_rule():
    with pytest.raises(ValueError, match="unknown quadrature rule"):
        builtin_rule("gauss")


@pytest.mark.parametrize("name", RULES)
def test_monomial_exactness(name):
    rule = builtin_rule(name)
    for k in range(rule.degree_of_exactness + 1):
        assert abs(rule.integrate_monomial(k) - 1.0 / (k + 1)) <= 1e-14


def test_trapezoid_exact_for_linear():
    # the rule applied to f(c) = c
    assert builtin_rule("trapezoid").integrate_monomial(1) == pytest.approx(0.5, abs=0.0)


def test_boole_integrates_c5_exactly():
    assert abs(builtin_rule("boole").integrate_monomial(5) - 1 / 6) <= 1e-15


@pytest.mark.parametrize("name", RULES)
def test_weights_sum_and_symmetry(name):
    rule = builtin_rule(name)
    assert abs(sum(rule.weights) - 1.0) <= 1e-15
    n = len(rule.nodes)
    for i in range(n):
        assert rule.nodes[i] == pytest.approx(1.0 - rule.nodes[n - 1 - i], abs=1e-16)
        assert rule.weights[i] == rule.weights[n - 1 - i]
    assert rule.integrate_monomial(1) == pytest.approx(0.5, abs=1e-16)


def test_rule_validation():
    with pytest.raises(ValueError, match="weights sum"):
        QuadratureRule("bad", (0.0, 1.0), (0.5, 0.6), 1)
    with pytest.raises(ValueError, match="ascending"):
        QuadratureRule("bad", (0.5, 0.5), (0.5, 0.5), 0)
    with pytest.raises(ValueError, match="misses monomial"):
        QuadratureRule("bad", (0.0, 1.0), (0.5, 0.5), 3)
    with pytest.raises(ValueError, match="lie in"):
        QuadratureRule("bad", (0.0, 1.5), (0.5, 0.5), 1)
    with pytest.raises(ValueError, match="nonempty"):
        QuadratureRule("e", (), (), 0)
    with pytest.raises(ValueError, match="degree_of_exactness must be >= 0"):
        QuadratureRule("bad", (0.0, 1.0), (0.5, 0.5), -1)


def test_palindromic():
    assert all(builtin_rule(name).palindromic for name in RULES)
    # decimal thirds: 1/3 + 2/3 is 1 only to the exactness tolerance
    thirds = QuadratureRule("thirds", (0.0, 0.3333333333333333, 0.6666666666666666,
                                       1.0), (0.125, 0.375, 0.375, 0.125), 3)
    assert thirds.palindromic
    assert not QuadratureRule("skewed", (0.0, 1.0), (0.25, 0.75), 0).palindromic
    assert not QuadratureRule("shifted", (0.0, 0.5), (0.5, 0.5), 0).palindromic


def _inline(name, pairs, degree):
    doc = {"builtin": "banana",
           "rule": {"name": name, "pairs": pairs, "degree": degree}}
    return _scenario_from_dict(doc, "doc")


def test_inline_custom_rule_refusals():
    # open Newton-Cotes 3-point rule, degree of exactness 3
    milne = [(0.25, 2 / 3), (0.5, -1 / 3), (0.75, 2 / 3)]
    scn = _inline("milne_open", milne, 3)
    assert scn.rule == QuadratureRule("milne_open", (0.25, 0.5, 0.75),
                                      (2 / 3, -1 / 3, 2 / 3), 3)
    with pytest.raises(ConfigError, match="rule: cannot shadow"):
        _inline("boole", [(0.0, 0.5), (1.0, 0.5)], 1)
    with pytest.raises(ConfigError, match="rule: .*misses monomial"):
        _inline("too_bold", [(0.0, 0.5), (1.0, 0.5)], 2)
    with pytest.raises(ConfigError, match="rule: .*weights sum"):
        _inline("nan", [(0.0, math.nan), (1.0, math.nan)], 0)


class QuadraticPotentialField(FieldModel):
    """phi = x.x (so E = -2x), B = 0: closed-form segment integrals."""

    name = "quadratic_test_field"

    def b_at(self, x, y, z):
        return (0.0, 0.0, 0.0)

    def e_at(self, x, y, z):
        return (-2.0 * x, -2.0 * y, -2.0 * z)

    def phi_at(self, x, y, z):
        return x * x + y * y + z * z


@pytest.fixture
def quad_sys():
    return ChargedParticleSystem(2.0, 1.5, QuadraticPotentialField())


def test_weighted_gradient_collapses_at_equal_endpoints(quad_sys):
    z = PhaseState((0.4, -0.3, 0.2), (0.1, 0.0, -0.2))
    for name in RULES:
        got = weighted_gradient(quad_sys, builtin_rule(name), z, z)
        assert got == pytest.approx(grad_energy(quad_sys, z), rel=1e-15)


def test_weighted_gradient_velocity_block(quad_sys):
    rng = np.random.default_rng(31)
    for _ in range(20):
        z0 = PhaseState(rng.normal(size=3), rng.normal(size=3))
        z1 = PhaseState(rng.normal(size=3), rng.normal(size=3))
        for name in RULES:
            g = weighted_gradient(quad_sys, builtin_rule(name), z0, z1)
            expect = quad_sys.mass * 0.5 * (np.asarray(z0.v) + z1.v)
            assert g[3:] == pytest.approx(expect, rel=1e-14, abs=1e-16)


def test_weighted_gradient_exact_for_quadratic_potential(quad_sys):
    # analytic: int_0^1 grad phi((1-c) x0 + c x1) dc = 2 * (x0 + x1) / 2
    rng = np.random.default_rng(37)
    q, m = quad_sys.charge, quad_sys.mass
    for _ in range(20):
        z0 = PhaseState(rng.normal(size=3), rng.normal(size=3))
        z1 = PhaseState(rng.normal(size=3), rng.normal(size=3))
        expect = np.concatenate([q * (np.asarray(z0.x) + z1.x),
                                 m * 0.5 * (np.asarray(z0.v) + z1.v)])
        got = weighted_gradient(quad_sys, builtin_rule("boole"), z0, z1)
        assert np.abs(got - expect).max() <= 1e-14 * max(1.0, np.abs(expect).max())


def test_weighted_gradient_symmetric_for_palindromic_rules(quad_sys):
    rng = np.random.default_rng(41)
    for _ in range(20):
        z0 = PhaseState(rng.normal(size=3), rng.normal(size=3))
        z1 = PhaseState(rng.normal(size=3), rng.normal(size=3))
        for name in RULES:
            a = weighted_gradient(quad_sys, builtin_rule(name), z0, z1)
            b = weighted_gradient(quad_sys, builtin_rule(name), z1, z0)
            scale = max(1.0, float(np.abs(a).max()))
            assert np.abs(a - b).max() <= 1e-15 * scale


class _PolynomialWell(FieldModel):
    """Uniform B = e_z plus phi of chosen polynomial degree (5 or 6)."""

    name = "poly_well"

    def __init__(self, degree):
        self.degree = degree
        self.s = 0.05

    def b_at(self, x, y, z):
        return (0.0, 0.0, 1.0)

    def phi_at(self, x, y, z):
        if self.degree == 5:
            u = x + 0.5 * y - 0.25 * z
            return self.s * u**5
        r2 = x * x + y * y + z * z
        return self.s * r2**3

    def e_at(self, x, y, z):
        if self.degree == 5:
            u = x + 0.5 * y - 0.25 * z
            k = -5.0 * self.s * u**4
            return (k, 0.5 * k, -0.25 * k)
        r2 = x * x + y * y + z * z
        k = -6.0 * self.s * r2**2
        return (k * x, k * y, k * z)


@pytest.mark.parametrize("degree", [5, 6])
def test_record_conservation_beyond_degree_four(degree, capsys):
    """Boole's degree-5 exactness covers energies up to degree 6.

    The segment integrand of an energy of polynomial degree nu has degree
    nu - 1, so exact conservation is expected through nu = 6; recorded
    here (printed, not asserted as a requirement) for nu = 5 and 6.
    """
    from bdli import ChargedParticleSystem, SolverOptions, dli_kernel, dli_step
    from one_state import energy, from_vector

    sys = ChargedParticleSystem(1.0, 1.0, _PolynomialWell(degree))
    z = PhaseState((0.9, 0.0, 0.0), (0.2, 0.2, 0.1))
    opts = SolverOptions()
    worst = {}
    for rule_name in ("boole", "simpson"):
        rule = builtin_rule(rule_name)
        zz, drift = z, 0.0
        Hp = energy(sys, zz)
        for _ in range(200):
            rep = dli_step(dli_kernel(sys, rule, 0.05, opts), zz.as_vector())
            assert rep.converged
            zz = from_vector(rep.state)
            H = energy(sys, zz)
            drift = max(drift, abs(H - Hp))
            Hp = H
        worst[rule_name] = drift
    with capsys.disabled():
        print(
            f"\n[recorded] degree-{degree} energy, per-step |dH|: "
            f"boole {worst['boole']:.3e}, simpson {worst['simpson']:.3e}"
        )
