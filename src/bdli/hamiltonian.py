"""Non-canonical Hamiltonian structure of the Lorentz force system and its
invariants.

A charged particle of mass m and charge q in static fields obeys

    dx/dt = v,      dv/dt = (q/m) (E(x) + v x B(x)),

which in the phase variable z = [x; v] is the Poisson-like system
dz/dt = K(z) grad H(z) with energy H = m v.v / 2 + q phi(x) and the
skew-symmetric structure matrix

    K(z) = (     0        I/m      )
           (   -I/m   (q/m^2) B^(x) )

where B^ is the hat map of B, the skew matrix with B^ v = v x B.  The
steppers apply K through its blocks and never build it.  For an
axisymmetric field the toroidal component of the conjugate momentum
p = m v + q A is also a constant of the exact motion,

    p_xi = m (x v_y - y v_x) + q R A_xi = m (x v_y - y v_x) + q (x A_y - y A_x),

and the magnetic moment mu = |v_perp|^2 / (2 |B|) is the adiabatic
invariant of the gyro-motion (v_perp^2 / 2R for a field with |B| = R).
Errors are absolute differences Q(z_n) - Q(z_0).

Everything here is a pure function over immutable inputs.  A state is a
row ``(x, y, z, vx, vy, vz)`` of floats, which ``PhaseState`` holds as two
3-tuples.  The invariants are computed as series: from rows such as
``Trajectory.states``, one float per row in a list; a single state is the
one-row case.  A value that is undefined is NaN where it is computed: p_xi
in a field without a vector potential (its ``a_at`` gives NaN), mu where
B = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import ConfigError, FieldModel, as_real, as_vec3


@dataclass(frozen=True)
class PhaseState:
    """Particle state: position x and velocity v."""

    x: tuple[float, float, float]
    v: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "x", as_vec3("x", self.x))
        object.__setattr__(self, "v", as_vec3("v", self.v))

    def as_vector(self) -> tuple:
        """The row (x, y, z, vx, vy, vz)."""
        return (*self.x, *self.v)


@dataclass(frozen=True)
class ChargedParticleSystem:
    """A particle (mass, charge) moving in a static field model.

    ``charge`` is the electric charge, not to be confused with a tokamak
    safety factor; both are dimensionless in normalized units, held as floats.
    """

    mass: float
    charge: float
    field: FieldModel

    def __post_init__(self):
        object.__setattr__(self, "mass", as_real("mass", self.mass))
        if not 0 < self.mass < math.inf:
            raise ConfigError(f"mass: must be positive and finite, got {self.mass}")
        object.__setattr__(self, "charge", as_real("charge", self.charge, finite=True))
        if not isinstance(self.field, FieldModel):
            raise ConfigError(f"field: expected a FieldModel, got {self.field!r}")


def energies(sys: ChargedParticleSystem, states) -> list[float]:
    """Total energy H = m v.v / 2 + q phi(x) of every row (x, y, z, vx, vy, vz)."""
    phi_at = sys.field.phi_at
    half_m, q = 0.5 * sys.mass, sys.charge
    return [half_m * (vx * vx + vy * vy + vz * vz) + q * phi_at(x, y, z)
            for x, y, z, vx, vy, vz in states]


def toroidal_momenta(sys: ChargedParticleSystem, states) -> list[float]:
    """m (x v_y - y v_x) + q R A_xi of every row (x, y, z, vx, vy, vz); NaN
    at every row in a field without a vector potential."""
    a_at = sys.field.a_at
    m, q = sys.mass, sys.charge
    out = []
    for x, y, z, vx, vy, _ in states:
        ax, ay, _ = a_at(x, y, z)
        out.append(m * (x * vy - y * vx) + q * (x * ay - y * ax))
    return out


def magnetic_moments(sys: ChargedParticleSystem, states) -> list[float]:
    """|v_perp|^2 / (2 |B|), v_perp orthogonal to B, of every row; NaN at
    rows where B = 0, where mu is undefined."""
    b_at = sys.field.b_at
    out = []
    for x, y, z, vx, vy, vz in states:
        bx, by, bz = b_at(x, y, z)
        b2 = bx * bx + by * by + bz * bz
        if b2 == 0.0:
            out.append(math.nan)
            continue
        bnorm = math.sqrt(b2)
        vpar = (vx * bx + vy * by + vz * bz) / bnorm
        vperp2 = vx * vx + vy * vy + vz * vz - vpar * vpar
        out.append(vperp2 / (2.0 * bnorm))
    return out


_SERIES = {"H": energies, "p_xi": toroidal_momenta, "mu": magnetic_moments}
QUANTITIES = tuple(_SERIES)


def quantity_series(sys: ChargedParticleSystem, rows, quantity: str) -> list[float]:
    """Value of a conserved quantity at every row (x, y, z, vx, vy, vz)."""
    try:
        values = _SERIES[quantity]
    except KeyError:
        raise ValueError(
            f"unknown quantity {quantity!r} (expected one of {QUANTITIES})"
        ) from None
    return values(sys, rows)


def series_errors(values) -> list[float]:
    """Q(z_n) - Q(z_0) of a quantity series."""
    q0 = values[0]
    return [q - q0 for q in values]
