"""Analytic electromagnetic field models.

Each model bundles evaluators for the magnetic field B(x), the electric
field E(x), the scalar potential phi(x) and (where available) the vector
potential A(x), all in normalized units and Cartesian components.  The
models are immutable and their evaluators are pure functions of position,
so they are safe to share between concurrent callers.

The four scalar evaluators ``b_at``/``e_at``/``phi_at``/``a_at`` are the
whole interface: each takes the three position components as floats and
returns a float or a 3-tuple of floats, and every caller (the steppers,
the diagnostics, the structure matrix) goes through them.  ``a_at`` gives
NaN components on models without a vector potential, so p_xi is NaN there.
Models whose electric field vanishes identically advertise it through
``zero_electric`` so the implicit solver can skip the segment quadrature
entirely.  The value rules ``as_real``, ``as_count`` and ``as_vec3`` (three
components, each by ``as_real``) live here too: each object checks the
values it holds with them, once.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from contextlib import suppress
from numbers import Real

# Evaluation this close to a model's singular axis is refused outright;
# the reference scenarios never come near it, and silent garbage from a
# 1/R blow-up is worse than a hard error.
SINGULAR_RADIUS = 1e-12


class FieldSingularityError(ValueError):
    """Raised when a field is evaluated inside its singular set."""


class ConfigError(ValueError):
    """A bad value or configuration; the message starts with its key."""


def as_real(key: str, value, finite: bool = False) -> float:
    """``value`` as a float if it is a ``numbers.Real`` but not a bool, and
    if ``finite``, finite; otherwise a ConfigError naming ``key``."""
    x = None
    if isinstance(value, Real) and not isinstance(value, bool):
        with suppress(OverflowError):  # an integer beyond the float range
            x = float(value)
    if x is None:
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if finite and not math.isfinite(x):
        raise ConfigError(f"{key}: must be finite, got {x!r}")
    return x


def as_count(key: str, value) -> int:
    """``value`` as an int if it has ``__index__`` but is not a bool, or is a
    float that ``is_integer`` (JSON's 1e4); otherwise a ConfigError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        with suppress(TypeError):  # no __index__, or one that refuses
            return operator.index(value)
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def as_vec3(key: str, value) -> tuple[float, float, float]:
    """``value`` as three floats, each read by ``as_real(key, c, finite=True)``;
    anything that does not unpack into three components is a ConfigError
    naming ``key`` too."""
    try:
        x, y, z = value
    except (TypeError, ValueError):  # not iterable, or not three long
        raise ConfigError(f"{key}: expected a 3-vector, got {value!r}") from None
    return (as_real(key, x, finite=True), as_real(key, y, finite=True),
            as_real(key, z, finite=True))


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
        """Vector potential components at (x, y, z); NaN if the model has none."""
        return (math.nan, math.nan, math.nan)


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
        self.epsilon = as_real("epsilon", epsilon, finite=True)

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
        self.B0 = as_real("B0", B0, finite=True)
        self.R0 = as_real("R0", R0, finite=True)
        self.safety_factor = q = as_real("safety_factor", safety_factor, finite=True)
        if q == 0.0:
            raise ConfigError(f"safety_factor: must be nonzero, got {q!r}")
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
        self.B = as_vec3("B", B)
        self.E = as_vec3("E", E)
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
        self.B = as_vec3("B", B)
        self.strength = as_real("strength", strength, finite=True)
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
