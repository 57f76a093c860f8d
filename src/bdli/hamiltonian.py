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
is a pure function over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import FieldModel, as_vec3


@dataclass(frozen=True)
class PhaseState:
    """Particle state: position x and velocity v."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vec3(self.x))
        object.__setattr__(self, "v", as_vec3(self.v))

    def as_vector(self) -> np.ndarray:
        """Stacked 6-vector [x; v]."""
        return np.concatenate([self.x, self.v])

    @classmethod
    def from_vector(cls, z) -> "PhaseState":
        z = np.asarray(z, dtype=float)
        return cls(z[:3], z[3:])


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


def energies(sys: ChargedParticleSystem, states) -> np.ndarray:
    """Total energy H = m v.v / 2 + q phi(x) of every row of an (n, 6) array."""
    phi_at = sys.field.phi_at
    phi = np.array([phi_at(x, y, z) for x, y, z in states[:, :3].tolist()])
    v = states[:, 3:]
    return 0.5 * sys.mass * np.vecdot(v, v) + sys.charge * phi


def energy(sys: ChargedParticleSystem, z: PhaseState) -> float:
    """Total energy H = m v.v / 2 + q phi(x) of one state."""
    return float(energies(sys, z.as_vector()[None])[0])
