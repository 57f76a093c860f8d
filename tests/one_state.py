"""H, p_xi and mu of one ``PhaseState``, for tests.

The library computes the conserved quantities only as row series
(``energies``, ``toroidal_momenta``, ``magnetic_moments``); one state's
value is the one-row case, with the series' policies: ``a_at`` raises
``PotentialUnavailableError`` for a field without A, and mu is NaN where
B = 0.
"""

from bdli.diagnostics import magnetic_moments, toroidal_momenta
from bdli.hamiltonian import energies


def energy(sys, z) -> float:
    return energies(sys, [z.as_vector()])[0]


def toroidal_momentum(sys, z) -> float:
    return toroidal_momenta(sys, [z.as_vector()])[0]


def magnetic_moment(sys, z) -> float:
    return magnetic_moments(sys, [z.as_vector()])[0]
