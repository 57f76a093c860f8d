"""Non-canonical Hamiltonian structure of the Lorentz force system.

A charged particle of mass m and charge q in static fields obeys

    dx/dt = v,      dv/dt = (q/m) (E(x) + v x B(x)),

which in the phase variable z = [x; v] is the Poisson-like system
dz/dt = K(z) grad H(z) with energy H = m v.v / 2 + q phi(x) and the
skew-symmetric structure matrix

    K(z) = (     0        I/m      )
           (   -I/m   (q/m^2) B^(x) )

where B^ is the hat map of B, the skew matrix with B^ v = v x B.  The
steppers apply K through its blocks and never build it.  Everything here
is a pure function over immutable inputs; a state is a row
``(x, y, z, vx, vy, vz)`` of floats, and ``PhaseState`` holds one as two
3-tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import FieldModel, as_vec3


@dataclass(frozen=True)
class PhaseState:
    """Particle state: position x and velocity v."""

    x: tuple[float, float, float]
    v: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "x", as_vec3(self.x))
        object.__setattr__(self, "v", as_vec3(self.v))

    def as_vector(self) -> tuple:
        """The row (x, y, z, vx, vy, vz)."""
        return (*self.x, *self.v)


@dataclass(frozen=True)
class ChargedParticleSystem:
    """A particle (mass, charge) moving in a static field model.

    ``charge`` is the electric charge, not to be confused with a tokamak
    safety factor; both are dimensionless in normalized units.
    """

    mass: float = 1.0
    charge: float = 1.0
    field: FieldModel = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.field is None:
            raise ValueError("a field model is required")


def energies(sys: ChargedParticleSystem, states) -> list[float]:
    """Total energy H = m v.v / 2 + q phi(x) of every row (x, y, z, vx, vy, vz)."""
    phi_at = sys.field.phi_at
    half_m, q = 0.5 * sys.mass, sys.charge
    return [half_m * (vx * vx + vy * vy + vz * vz) + q * phi_at(x, y, z)
            for x, y, z, vx, vy, vz in states]
