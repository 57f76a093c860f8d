"""One ``PhaseState`` for tests: its H, p_xi and mu, and the state of a row.

The library computes the conserved quantities only as row series
(``energies``, ``toroidal_momenta``, ``magnetic_moments``); one state's
value is the one-row case, with the series' policies: p_xi is NaN for a
field without A (its ``a_at`` gives NaN), and mu is NaN where B = 0.
"""

from bdli.hamiltonian import (PhaseState, energies, magnetic_moments,
                              toroidal_momenta)


def from_vector(z) -> PhaseState:
    """The state of a row ``(x, y, z, vx, vy, vz)``."""
    return PhaseState(z[:3], z[3:])


def energy(sys, z) -> float:
    return energies(sys, [z.as_vector()])[0]


def toroidal_momentum(sys, z) -> float:
    return toroidal_momenta(sys, [z.as_vector()])[0]


def magnetic_moment(sys, z) -> float:
    return magnetic_moments(sys, [z.as_vector()])[0]
