"""Conserved-quantity diagnostics.

For an axisymmetric field the toroidal component of the conjugate momentum
p = m v + q A is a constant of the exact motion:

    p_xi = m (x v_y - y v_x) + q R A_xi = m (x v_y - y v_x) + q (x A_y - y A_x).

The magnetic moment mu = |v_perp|^2 / (2 |B|) is the adiabatic invariant of
the gyro-motion (for a field with |B| = R this is the familiar
v_perp^2 / 2R).  Errors are reported as absolute differences
Q(z_n) - Q(z_0); relative errors are available via a flag.

The series functions take rows ``(x, y, z, vx, vy, vz)``, such as
``Trajectory.states``, and return one float per row in a list; there is
no one-state form, a single state is the one-row case.
"""

from __future__ import annotations

import math

from .hamiltonian import ChargedParticleSystem, energies
from .integrators import Trajectory

QUANTITIES = ("H", "p_xi", "mu")


def toroidal_momenta(sys: ChargedParticleSystem, states) -> list[float]:
    """m (x v_y - y v_x) + q R A_xi of every row (x, y, z, vx, vy, vz)."""
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


def quantity_series(
    sys: ChargedParticleSystem, traj: Trajectory, quantity: str
) -> list[float]:
    """Value of a conserved quantity at every recorded state."""
    try:
        values = _SERIES[quantity]
    except KeyError:
        raise ValueError(
            f"unknown quantity {quantity!r} (expected one of {QUANTITIES})"
        ) from None
    return values(sys, traj.states)


def series_errors(values, relative: bool = False) -> list[float]:
    """Q(z_n) - Q(z_0) of a quantity series.

    With ``relative=True`` errors are divided by |Q(z_0)| (left absolute
    when the reference value is exactly zero).
    """
    q0 = values[0]
    err = [q - q0 for q in values]
    if relative and q0 != 0.0:
        scale = abs(q0)
        err = [e / scale for e in err]
    return err

