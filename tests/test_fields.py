import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdli.fields import (
    FIELD_MODELS,
    CylindricalDriftField,
    FieldModel,
    FieldSingularityError,
    PotentialUnavailableError,
    QuarticWellField,
    TokamakField,
    UniformField,
    make_field,
)
from oracles import tokamak_a_reference, tokamak_b_reference

FD_STEP = 1e-5
FD_TOL = 1e-6


def sample_points(n=120, r_min=0.15, r_max=2.0, seed=123):
    """Deterministic cylindrical-shell sample, R in [r_min, r_max], |z| <= 0.5.

    The finite-difference consistency checks run on R >= 0.15: with the
    pinned step 1e-5 the central-difference truncation error of the
    tokamak fields grows like a high inverse power of R and crosses the
    1e-6 tolerance near R ~ 0.12 (div B) and R ~ 0.08 (curl A); it is
    ~1e-5 at R = 0.05.  Smaller radii are covered by the exact symbolic
    identities below instead.
    """
    rng = np.random.default_rng(seed)
    R = np.exp(rng.uniform(math.log(r_min), math.log(r_max), n))
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    z = rng.uniform(-0.5, 0.5, n)
    return np.column_stack([R * np.cos(ang), R * np.sin(ang), z])


def curl_fd(field, p, eps=FD_STEP):
    def partial(comp, axis):
        pp, pm = p.copy(), p.copy()
        pp[axis] += eps
        pm[axis] -= eps
        return (field.a_at(*pp)[comp] - field.a_at(*pm)[comp]) / (2 * eps)

    return np.array(
        [
            partial(2, 1) - partial(1, 2),
            partial(0, 2) - partial(2, 0),
            partial(1, 0) - partial(0, 1),
        ]
    )


def grad_fd(field, p, eps=FD_STEP):
    out = np.empty(3)
    for axis in range(3):
        pp, pm = p.copy(), p.copy()
        pp[axis] += eps
        pm[axis] -= eps
        out[axis] = (field.phi_at(*pp) - field.phi_at(*pm)) / (2 * eps)
    return out


def div_fd(field, p, eps=FD_STEP):
    s = 0.0
    for axis in range(3):
        pp, pm = p.copy(), p.copy()
        pp[axis] += eps
        pm[axis] -= eps
        s += (field.b_at(*pp)[axis] - field.b_at(*pm)[axis]) / (2 * eps)
    return s


ALL_MODELS = [
    CylindricalDriftField(),
    TokamakField(),
    UniformField(B=(0.2, -0.4, 1.0), E=(0.03, 0.0, -0.01)),
    QuarticWellField(),
]


# --- point values ---------------------------------------------------------

def test_cylindrical_point_values():
    f = CylindricalDriftField()
    p = np.array([0.0, 0.1, 0.0])
    assert f.b_at(*p) == pytest.approx([0.0, 0.0, 0.1], abs=1e-16)
    assert f.e_at(*p) == pytest.approx([0.0, 1.0, 0.0], rel=1e-15)
    assert f.phi_at(*p) == pytest.approx(0.1, rel=1e-15)
    assert f.phi_at(1.0, 0.0, 0.0) == pytest.approx(0.01, rel=1e-15)
    # A_xi = R^2/3 along e_xi = (-1, 0, 0) at this point
    assert f.a_at(*p) == pytest.approx([-0.1**2 / 3.0, 0.0, 0.0], rel=1e-15)


def test_cylindrical_B_magnitude_equals_R_and_E_radial():
    f = CylindricalDriftField()
    for p in sample_points(60, r_min=0.05):
        R = math.hypot(p[0], p[1])
        B = np.array(f.b_at(*p))
        assert abs(np.linalg.norm(B) - R) <= 1e-14 * R
        E = np.array(f.e_at(*p))
        assert np.linalg.norm(np.cross(E, [p[0], p[1], 0.0])) <= 1e-14
        assert np.linalg.norm(E) == pytest.approx(1e-2 / R**2, rel=1e-13)


def test_tokamak_point_values():
    f = TokamakField()
    p = np.array([1.05, 0.0, 0.0])
    assert f.b_at(*p) == pytest.approx([0.0, 1 / 1.05, 0.05 / 2.1], rel=1e-12)
    assert np.array_equal(f.e_at(*p), [0.0, 0.0, 0.0])
    assert f.phi_at(*p) == 0.0
    # A_R = 0, A_xi = 0.05^2 / (4 * 1.05) along e_xi = (0, 1, 0),
    # A_z = -ln(1.05)/2
    assert f.a_at(*p) == pytest.approx(
        [0.0, 0.0025 / 4.2, -math.log(1.05) / 2.0], rel=1e-12
    )


def test_tokamak_matches_toroidal_form():
    # independent oracle: B_theta e_theta + B_xi e_xi with
    # B_theta = B0 r / (q R), B_xi = B0 R0 / R, e_theta from the poloidal
    # angle around the magnetic axis (R0, z=0)
    f = TokamakField(B0=1.0, R0=1.0, safety_factor=2.0)
    for p in sample_points(80, r_min=0.3):
        x, y, z = p
        R = math.hypot(x, y)
        r = math.hypot(R - 1.0, z)
        if r < 1e-3:
            continue
        e_R = np.array([x / R, y / R, 0.0])
        e_xi = np.array([-y / R, x / R, 0.0])
        e_z = np.array([0.0, 0.0, 1.0])
        sin_t, cos_t = z / r, (R - 1.0) / r
        e_theta = -sin_t * e_R + cos_t * e_z
        B_oracle = (r / (2.0 * R)) * e_theta + (1.0 / R) * e_xi
        assert f.b_at(*p) == pytest.approx(B_oracle, rel=1e-12, abs=1e-14)


_signed = lambda a, b: st.floats(a, b).flatmap(  # noqa: E731
    lambda v: st.sampled_from((v, -v)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_signed(0.01, 10.0), st.floats(0.1, 10.0), _signed(0.1, 10.0),
       st.floats(1e-6, 5.0), st.floats(0.0, 2 * math.pi), st.floats(-2.0, 2.0))
def test_property_tokamak_constants_keep_the_bits(B0, R0, q, R, angle, z):
    # b_at and a_at use q R0, 2 q and -B0 (q R0 - 1) stored at construction
    # and one q R per call; each value is the product the per-call form
    # computes, so the results match it bit for bit
    f = TokamakField(B0=B0, R0=R0, safety_factor=q)
    x, y = R * math.cos(angle), R * math.sin(angle)
    bits = lambda v: tuple(map(float.hex, v))  # noqa: E731
    assert bits(f.b_at(x, y, z)) == bits(tokamak_b_reference(f, x, y, z))
    assert bits(f.a_at(x, y, z)) == bits(tokamak_a_reference(f, x, y, z))


def test_uniform_point_values():
    f = UniformField(B=(0.0, 0.0, 1.0), E=(0.0, 0.0, 0.0))
    assert np.array_equal(f.b_at(3.0, -1.0, 2.0), [0.0, 0.0, 1.0])
    assert np.array_equal(f.e_at(0.5, 0.5, 0.5), [0.0, 0.0, 0.0])
    assert f.a_at(1.0, 0.0, 0.0) == pytest.approx([0.0, 0.5, 0.0], abs=0.0)
    g = UniformField(B=(0.0, 0.0, 1.0), E=(0.2, -0.1, 0.05))
    p = [1.0, 2.0, 3.0]
    assert g.phi_at(*p) == pytest.approx(-(0.2 * 1 - 0.1 * 2 + 0.05 * 3), rel=1e-15)
    assert not g.zero_electric
    assert f.zero_electric


def test_quartic_well_values():
    f = QuarticWellField(strength=1.0)
    p = np.array([1.0, 0.0, 0.0])
    assert f.phi_at(*p) == 1.0
    assert f.e_at(*p) == pytest.approx([-4.0, 0.0, 0.0], abs=0.0)
    p2 = np.array([1.0, -2.0, 0.5])
    r2 = float(p2 @ p2)
    assert f.phi_at(*p2) == pytest.approx(r2**2, rel=1e-15)
    assert f.e_at(*p2) == pytest.approx(-4.0 * r2 * p2, rel=1e-15)


# --- differential consistency ---------------------------------------------

@pytest.mark.parametrize("field", ALL_MODELS, ids=lambda f: f.name)
def test_curl_of_A_is_B(field):
    worst = 0.0
    for p in sample_points():
        err = np.abs(curl_fd(field, p) - np.array(field.b_at(*p))).max()
        worst = max(worst, err)
    assert worst <= FD_TOL


@pytest.mark.parametrize("field", ALL_MODELS, ids=lambda f: f.name)
def test_E_is_minus_grad_phi(field):
    worst = 0.0
    for p in sample_points():
        err = np.abs(np.array(field.e_at(*p)) + grad_fd(field, p)).max()
        worst = max(worst, err)
    assert worst <= FD_TOL


@pytest.mark.parametrize("field", ALL_MODELS, ids=lambda f: f.name)
def test_B_is_divergence_free(field):
    worst = max(abs(div_fd(field, p)) for p in sample_points())
    assert worst <= FD_TOL


def test_symbolic_consistency_of_axis_models():
    """Exact curl/grad/div identities, valid for every R > 0.

    Stronger companion to the finite-difference checks: covers the small-R
    corner where FD truncation at step 1e-5 exceeds the tolerance.
    """
    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z", real=True)
    R = sympy.sqrt(x**2 + y**2)

    def check(A, B, phi=None, E=None):
        curl = sympy.Matrix(
            [
                sympy.diff(A[2], y) - sympy.diff(A[1], z),
                sympy.diff(A[0], z) - sympy.diff(A[2], x),
                sympy.diff(A[1], x) - sympy.diff(A[0], y),
            ]
        )
        assert sympy.simplify(curl - sympy.Matrix(B)) == sympy.zeros(3, 1)
        div = sum(sympy.diff(B[i], s) for i, s in enumerate((x, y, z)))
        assert sympy.simplify(div) == 0
        if phi is not None:
            grad = sympy.Matrix([sympy.diff(phi, s) for s in (x, y, z)])
            assert sympy.simplify(grad + sympy.Matrix(E)) == sympy.zeros(3, 1)

    eps = sympy.Rational(1, 100)
    axi = R**2 / 3
    check(
        A=(-axi * y / R, axi * x / R, 0),
        B=(0, 0, R),
        phi=eps / R,
        E=(eps * x / R**3, eps * y / R**3, 0),
    )

    q = sympy.Integer(2)
    aR, axi, az = z / (q * R), ((1 - R) ** 2 + z**2) / (2 * q * R), -(q - 1) * sympy.log(R) / q
    check(
        A=((aR * x - axi * y) / R, (aR * y + axi * x) / R, az),
        B=(
            -(q * y + x * z) / (q * R**2),
            (q * x - y * z) / (q * R**2),
            (R - 1) / (q * R),
        ),
    )


# --- errors and registry ----------------------------------------------------

@pytest.mark.parametrize("field", [CylindricalDriftField(), TokamakField()],
                         ids=lambda f: f.name)
def test_singularity_guard(field):
    # the message names the model, which the CLI passes on to the user
    message = rf"^{field.name} field evaluated on its singular axis \(R = "
    for evaluate in (field.b_at, field.e_at, field.phi_at, field.a_at):
        if field.zero_electric and evaluate in (field.e_at, field.phi_at):
            continue  # constants, no singular behaviour to guard
        with pytest.raises(FieldSingularityError, match=message):
            evaluate(0.0, 0.0, 0.3)
        with pytest.raises(FieldSingularityError, match=message):
            evaluate(1e-13, 0.0, 0.0)


def test_vector_potential_unavailable():
    class BareField(FieldModel):  # no a_at: the base class refuses
        name = "bare"

        def b_at(self, x, y, z):
            return (0.0, 0.0, 1.0)

        def e_at(self, x, y, z):
            return (0.0, 0.0, 0.0)

        def phi_at(self, x, y, z):
            return 0.0

    with pytest.raises(PotentialUnavailableError, match="bare"):
        BareField().a_at(1.0, 0.0, 0.0)


def test_registry():
    assert set(FIELD_MODELS) == {
        "cylindrical_drift", "tokamak", "uniform", "quartic_well",
    }
    f = make_field("cylindrical_drift", epsilon=0.5)
    assert f.epsilon == 0.5
    with pytest.raises(ValueError, match="unknown field model"):
        make_field("nope")

