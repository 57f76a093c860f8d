"""Independent array-form implementation of the DLI scheme, used as a test oracle.

The library runs one step kernel, the scalar ``bdli.integrators.dli_step``.
This module writes the same scheme a second way, in numpy arrays and
straight from its definition

    z1 = z0 + h K((z0 + z1)/2) sum_i w_i grad H((1 - c_i) z0 + c_i z1),

with K the non-canonical structure matrix

    K(z) = (     0        I/m      )
           (   -I/m   (q/m^2) B^(x) )

and B^ the hat map of B.  Tests check the kernel against it, so it must
not import ``bdli.integrators``.
"""

from __future__ import annotations

import numpy as np

from bdli.fields import as_vec3
from bdli.hamiltonian import ChargedParticleSystem, PhaseState
from bdli.quadrature import QuadratureRule


def hat(B) -> np.ndarray:
    """Skew matrix of the cross product with B: hat(B) @ v == v x B.

    Row-major layout::

        (  0    B3  -B2 )
        ( -B3   0    B1 )
        (  B2  -B1   0  )
    """
    B = np.asarray(B, dtype=float)
    b1, b2, b3 = B
    return np.array(
        [
            [0.0, b3, -b2],
            [-b3, 0.0, b1],
            [b2, -b1, 0.0],
        ]
    )


def grad_energy(sys: ChargedParticleSystem, z: PhaseState) -> np.ndarray:
    """Phase-space gradient of H: [q grad phi(x); m v] = [-q E(x); m v].

    Uses the analytic E rather than differentiating phi numerically, so
    the gradient stays smooth for the implicit solver.
    """
    out = np.empty(6)
    out[:3] = -sys.charge * np.array(sys.field.e_at(*z.x))
    out[3:] = sys.mass * np.asarray(z.v)
    return out


def k_matrix(sys: ChargedParticleSystem, x) -> np.ndarray:
    """Dense 6x6 structure matrix K at position x (skew by construction).

    Exposed for verification; the integrators apply the sparse blocks
    directly instead of materializing this matrix.
    """
    x = np.asarray(as_vec3(x))
    m = sys.mass
    K = np.zeros((6, 6))
    K[:3, 3:] = np.eye(3) / m
    K[3:, :3] = -np.eye(3) / m
    K[3:, 3:] = (sys.charge / m**2) * hat(sys.field.b_at(*x))
    return K


def vector_field(sys: ChargedParticleSystem, z: PhaseState) -> np.ndarray:
    """Time derivative of z: (v, (q/m)(E + v x B)).

    Identical to ``k_matrix(sys, z.x) @ grad_energy(sys, z)``, computed
    without the dense product.
    """
    x, v = z.x, z.v
    ex, ey, ez = sys.field.e_at(x[0], x[1], x[2])
    bx, by, bz = sys.field.b_at(x[0], x[1], x[2])
    qm = sys.charge / sys.mass
    return np.array(
        [
            v[0],
            v[1],
            v[2],
            qm * (ex + v[1] * bz - v[2] * by),
            qm * (ey + v[2] * bx - v[0] * bz),
            qm * (ez + v[0] * by - v[1] * bx),
        ]
    )


def weighted_gradient(
    sys: ChargedParticleSystem,
    rule: QuadratureRule,
    z0: PhaseState,
    z1: PhaseState,
) -> np.ndarray:
    """Quadrature approximation of the segment-averaged energy gradient.

    Returns sum_i w_i grad H((1 - c_i) z0 + c_i z1).  The velocity block of
    grad H is linear along the segment, so for any rule that integrates
    linears exactly it collapses to m ((1 - s) v0 + s v1) with s the rule's
    first moment.
    """
    a0 = np.asarray(z0.as_vector())
    a1 = np.asarray(z1.as_vector())
    out = np.zeros(6)
    for c, w in zip(rule.nodes, rule.weights):
        zc = PhaseState.from_vector((1.0 - c) * a0 + c * a1)
        out += w * grad_energy(sys, zc)
    return out


def dli_residual(
    sys: ChargedParticleSystem,
    rule: QuadratureRule,
    z0: PhaseState,
    z_trial: PhaseState,
    h: float,
) -> np.ndarray:
    """Defect of the implicit update equation at a trial state.

    Returns z_trial - z0 - h K((z0 + z_trial)/2) wgrad(z0, z_trial); the
    zero vector iff z_trial solves the step.  K is applied through its
    blocks rather than as a dense matrix.
    """
    a0 = np.asarray(z0.as_vector())
    a1 = np.asarray(z_trial.as_vector())
    g = weighted_gradient(sys, rule, z0, z_trial)
    m, q = sys.mass, sys.charge
    mid = 0.5 * (a0[:3] + a1[:3])
    bx, by, bz = sys.field.b_at(mid[0], mid[1], mid[2])
    gx, gv = g[:3], g[3:]
    rhs = np.empty(6)
    rhs[:3] = gv / m
    # hat(B) gv = gv x B
    rhs[3:] = -gx / m + (q / m**2) * np.array(
        [
            gv[1] * bz - gv[2] * by,
            gv[2] * bx - gv[0] * bz,
            gv[0] * by - gv[1] * bx,
        ]
    )
    return a1 - a0 - h * rhs
