"""Conserved-quantity and orbit diagnostics.

For an axisymmetric field the toroidal component of the conjugate momentum
p = m v + q A is a constant of the exact motion:

    p_xi = m (x v_y - y v_x) + q R A_xi = m (x v_y - y v_x) + q (x A_y - y A_x).

The magnetic moment mu = |v_perp|^2 / (2 |B|) is the adiabatic invariant of
the gyro-motion (for a field with |B| = R this is the familiar
v_perp^2 / 2R).  Errors are reported as absolute differences
Q(z_n) - Q(z_0); relative errors are available via a flag.
"""

from __future__ import annotations

import math

import numpy as np

from .hamiltonian import ChargedParticleSystem, PhaseState, energies
from .integrators import Trajectory

QUANTITIES = ("H", "p_xi", "mu")


class ZeroFieldError(ValueError):
    """Raised when the magnetic moment is requested where |B| = 0."""


def toroidal_momenta(sys: ChargedParticleSystem, states) -> np.ndarray:
    """m (x v_y - y v_x) + q R A_xi of every row of an (n, 6) array."""
    a_at = sys.field.a_at
    a = np.array([a_at(x, y, z) for x, y, z in states[:, :3].tolist()])
    x, y = states[:, 0], states[:, 1]
    vx, vy = states[:, 3], states[:, 4]
    return sys.mass * (x * vy - y * vx) + sys.charge * (
        x * a[:, 1] - y * a[:, 0]
    )


def magnetic_moments(sys: ChargedParticleSystem, states) -> np.ndarray:
    """|v_perp|^2 / (2 |B|), v_perp orthogonal to B, of every row; NaN at
    rows where B = 0, where mu is undefined."""
    b_at = sys.field.b_at
    b = np.array([b_at(x, y, z) for x, y, z in states[:, :3].tolist()])
    bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
    b2 = bx * bx + by * by + bz * bz
    bnorm = np.sqrt(b2)
    v = states[:, 3:]
    with np.errstate(divide="ignore", invalid="ignore"):
        vpar = (v[:, 0] * bx + v[:, 1] * by + v[:, 2] * bz) / bnorm
        vperp2 = np.vecdot(v, v) - vpar * vpar
        mu = vperp2 / (2.0 * bnorm)
    return np.where(b2 == 0.0, np.nan, mu)


def toroidal_momentum(sys: ChargedParticleSystem, z: PhaseState) -> float:
    """Toroidal canonical momentum m (x v_y - y v_x) + q R A_xi."""
    return float(toroidal_momenta(sys, z.as_vector()[None])[0])


def magnetic_moment(sys: ChargedParticleSystem, z: PhaseState) -> float:
    """Magnetic moment |v_perp|^2 / (2 |B|) with v_perp orthogonal to B;
    raises :class:`ZeroFieldError` where B = 0."""
    mu = float(magnetic_moments(sys, z.as_vector()[None])[0])
    if math.isnan(mu):
        raise ZeroFieldError(f"magnetic moment undefined where B = 0 (at {z.x})")
    return mu


_SERIES = {"H": energies, "p_xi": toroidal_momenta, "mu": magnetic_moments}


def quantity_series(
    sys: ChargedParticleSystem, traj: Trajectory, quantity: str
) -> np.ndarray:
    """Value of a conserved quantity at every recorded state."""
    try:
        values = _SERIES[quantity]
    except KeyError:
        raise ValueError(
            f"unknown quantity {quantity!r} (expected one of {QUANTITIES})"
        ) from None
    return values(sys, traj.states)


def series_errors(values: np.ndarray, relative: bool = False) -> np.ndarray:
    """Q(z_n) - Q(z_0) of a quantity series.

    With ``relative=True`` errors are divided by |Q(z_0)| (left absolute
    when the reference value is exactly zero).
    """
    err = values - values[0]
    if relative and values[0] != 0.0:
        err = err / abs(values[0])
    return err


def error_series(
    sys: ChargedParticleSystem,
    traj: Trajectory,
    quantity: str,
    relative: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Times and errors Q(z_n) - Q(z_0) along a trajectory.

    ``relative`` is passed to :func:`series_errors`.
    """
    values = quantity_series(sys, traj, quantity)
    return traj.times, series_errors(values, relative)


def cylindrical_projection(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """(R, z) pairs of the trajectory positions, R = sqrt(x^2 + y^2)."""
    p = traj.positions
    return np.hypot(p[:, 0], p[:, 1]), p[:, 2].copy()
