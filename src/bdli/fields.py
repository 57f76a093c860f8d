"""Analytic electromagnetic field models.

Each model bundles evaluators for the magnetic field B(x), the electric
field E(x), the scalar potential phi(x) and (where available) the vector
potential A(x), all in normalized units and Cartesian components.  The
models are immutable and their evaluators are pure functions of position,
so they are safe to share between concurrent callers.

The four scalar evaluators ``b_at``/``e_at``/``phi_at``/``a_at`` are the
whole interface: each takes the three position components as floats and
returns a float or a 3-tuple of floats, and every caller (the steppers,
the diagnostics, the structure matrix) goes through them.  ``a_at`` raises
:class:`PotentialUnavailableError` on models without a vector potential.
Models whose electric field vanishes identically advertise it through
``zero_electric`` so the implicit solver can skip the segment quadrature
entirely.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

# Evaluation this close to a model's singular axis is refused outright;
# the reference scenarios never come near it, and silent garbage from a
# 1/R blow-up is worse than a hard error.
SINGULAR_RADIUS = 1e-12


class FieldSingularityError(ValueError):
    """Raised when a field is evaluated inside its singular set."""


class PotentialUnavailableError(ValueError):
    """Raised when a model is asked for a potential it does not provide."""


def as_vec3(a) -> tuple[float, float, float]:
    """Coerce to a 3-tuple of finite floats.

    Raises ValueError on a wrong length, a bool or string component (which
    ``float`` would read), an integer beyond the float range or non-finite
    entries; this is the gate through
    which external values enter the numeric kernels.
    """
    try:
        v = tuple(a)
        for c in v:
            if isinstance(c, (bool, str)):
                raise ValueError(f"expected a number, got {c!r} in {a!r}")
        v = tuple(map(float, v))
    except TypeError:
        raise ValueError(f"expected a 3-vector, got {a!r}") from None
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"expected a number, got {a!r}") from None
    if len(v) != 3:
        raise ValueError(f"expected a 3-vector, got {len(v)} components")
    if not all(map(math.isfinite, v)):
        raise ValueError(f"non-finite components in 3-vector: {v}")
    return v


class FieldModel(ABC):
    """Abstract analytic field: B, E, phi and optionally A evaluators."""

    name: str = "custom"
    #: True when E(x) == 0 everywhere (lets solvers skip quadrature sums).
    zero_electric: bool = False

    @abstractmethod
    def b_at(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """Magnetic field components at (x, y, z)."""

    @abstractmethod
    def e_at(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """Electric field components at (x, y, z)."""

    @abstractmethod
    def phi_at(self, x: float, y: float, z: float) -> float:
        """Scalar potential (potential energy per unit charge) at (x, y, z)."""

    def a_at(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """Vector potential components at (x, y, z)."""
        raise PotentialUnavailableError(
            f"field model {self.name!r} does not provide a vector potential"
        )


def _on_axis(name: str, R: float) -> FieldSingularityError:
    """The error for an evaluation at R < SINGULAR_RADIUS; the evaluators
    make the comparison inline, since they run in the solver's inner loop."""
    return FieldSingularityError(
        f"{name} field evaluated on its singular axis (R = {R:.3e})"
    )


class CylindricalDriftField(FieldModel):
    """Non-uniform field B = R e_z with a weak repulsive radial E field.

    In cylindrical coordinates (R, xi, z) with R = sqrt(x^2 + y^2):

        B = R e_z,   phi = eps / R,   E = -grad phi = (eps / R^2) e_R,
        A = (R^2 / 3) e_xi   so that   curl A = B.

    Singular on the axis R = 0.
    """

    name = "cylindrical_drift"

    def __init__(self, epsilon: float = 1e-2):
        self.epsilon = float(epsilon)

    def b_at(self, x, y, z):
        R = math.sqrt(x * x + y * y)
        if R < SINGULAR_RADIUS:
            raise _on_axis(self.name, R)
        return (0.0, 0.0, R)

    def e_at(self, x, y, z):
        R = math.sqrt(x * x + y * y)
        if R < SINGULAR_RADIUS:
            raise _on_axis(self.name, R)
        k = self.epsilon / (R * R * R)
        return (k * x, k * y, 0.0)

    def phi_at(self, x, y, z):
        R = math.sqrt(x * x + y * y)
        if R < SINGULAR_RADIUS:
            raise _on_axis(self.name, R)
        return self.epsilon / R

    def a_at(self, x, y, z):
        R = math.sqrt(x * x + y * y)
        if R < SINGULAR_RADIUS:
            raise _on_axis(self.name, R)
        # A_xi = R^2/3 along e_xi = (-y/R, x/R, 0)
        k = R / 3.0
        return (-k * y, k * x, 0.0)


class TokamakField(FieldModel):
    """Axisymmetric tokamak-like magnetic field, no electric field.

    In toroidal coordinates (r, theta, xi) around the magnetic axis at
    major radius R0:

        B = (B0 r / (q R)) e_theta + (B0 R0 / R) e_xi

    with safety factor q.  The Cartesian components (the canonical form
    used by the integrators) are

        B_x = -B0 (q R0 y + x z) / (q R^2)
        B_y =  B0 (q R0 x - y z) / (q R^2)
        B_z =  B0 (R - R0) / (q R)

    and the vector potential reproducing curl A = B is

        A_R  = B0 z / (q R)
        A_xi = B0 ((R0 - R)^2 + z^2) / (2 q R)
        A_z  = -B0 (q R0 - 1) ln(R) / q.

    Singular at R = 0; E and phi vanish identically.  The parameters are
    fixed at construction, which also stores q R0, 2 q and -B0 (q R0 - 1).
    """

    name = "tokamak"
    zero_electric = True

    def __init__(self, B0: float = 1.0, R0: float = 1.0, safety_factor: float = 2.0):
        if safety_factor == 0:
            raise ValueError("safety_factor must be nonzero")
        self.B0 = float(B0)
        self.R0 = float(R0)
        self.safety_factor = q = float(safety_factor)
        self._qR0 = q * self.R0
        self._2q = 2.0 * q
        self._a_z = -self.B0 * (self._qR0 - 1.0)

    def b_at(self, x, y, z):
        R = math.sqrt(x * x + y * y)
        if R < SINGULAR_RADIUS:
            raise _on_axis(self.name, R)
        qR = self.safety_factor * R
        k = self.B0 / (qR * R)
        return (-k * (self._qR0 * y + x * z), k * (self._qR0 * x - y * z),
                self.B0 * (R - self.R0) / qR)

    def e_at(self, x, y, z):
        return (0.0, 0.0, 0.0)

    def phi_at(self, x, y, z):
        return 0.0

    def a_at(self, x, y, z):
        R = math.sqrt(x * x + y * y)
        if R < SINGULAR_RADIUS:
            raise _on_axis(self.name, R)
        q = self.safety_factor
        a_R = self.B0 * z / (q * R)
        a_xi = self.B0 * ((self.R0 - R) ** 2 + z * z) / (self._2q * R)
        a_z = self._a_z * math.log(R) / q
        # e_R = (x/R, y/R, 0), e_xi = (-y/R, x/R, 0)
        return ((a_R * x - a_xi * y) / R, (a_R * y + a_xi * x) / R, a_z)


class UniformField(FieldModel):
    """Constant B and E fields (test/baseline model, no singularity).

    phi(x) = -E0 . x and A(x) = (B0 x x) / 2, so E = -grad phi and
    B = curl A hold exactly.
    """

    name = "uniform"

    def __init__(self, B=(0.0, 0.0, 1.0), E=(0.0, 0.0, 0.0)):
        self.B = as_vec3(B)
        self.E = as_vec3(E)
        self.zero_electric = self.E == (0.0, 0.0, 0.0)

    def b_at(self, x, y, z):
        return self.B

    def e_at(self, x, y, z):
        return self.E

    def phi_at(self, x, y, z):
        return -(self.E[0] * x + self.E[1] * y + self.E[2] * z)

    def a_at(self, x, y, z):
        bx, by, bz = self.B
        return (
            0.5 * (by * z - bz * y),
            0.5 * (bz * x - bx * z),
            0.5 * (bx * y - by * x),
        )


class QuarticWellField(FieldModel):
    """Uniform B plus the confining quartic potential phi = k (x.x)^2.

    The energy of a unit-mass, unit-charge particle in this field is a
    polynomial of degree 4 in the phase-space variables, which makes the
    model the standard separator between quadrature rules of different
    degrees of exactness.  E = -grad phi = -4 k (x.x) x.
    """

    name = "quartic_well"

    def __init__(self, B=(0.0, 0.0, 1.0), strength: float = 1.0):
        self.B = as_vec3(B)
        self.strength = float(strength)
        self.zero_electric = self.strength == 0.0

    # a constant B and its symmetric-gauge A, as in UniformField
    b_at = UniformField.b_at
    a_at = UniformField.a_at

    def e_at(self, x, y, z):
        k = -4.0 * self.strength * (x * x + y * y + z * z)
        return (k * x, k * y, k * z)

    def phi_at(self, x, y, z):
        r2 = x * x + y * y + z * z
        return self.strength * r2 * r2


FIELD_MODELS: dict[str, type[FieldModel]] = {
    CylindricalDriftField.name: CylindricalDriftField,
    TokamakField.name: TokamakField,
    UniformField.name: UniformField,
    QuarticWellField.name: QuarticWellField,
}


def make_field(name: str, **params) -> FieldModel:
    """Instantiate a registered field model by name."""
    try:
        cls = FIELD_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(FIELD_MODELS))
        raise ValueError(f"unknown field model {name!r} (known: {known})") from None
    return cls(**params)
