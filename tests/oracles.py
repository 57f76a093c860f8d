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

It also keeps the reference forms of the written-out evaluators:
``dli_step_reference`` is the scalar DLI step with the builtin ``max`` for
its stop scale and its iterate differences, ``rk4_step_reference`` is the
RK4 step with one ``accel`` call per stage, and
``tokamak_b_reference``/``tokamak_a_reference`` are the tokamak field's B
and A with every constant computed from the parameters on each call.  The
library's forms must equal them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from bdli.fields import FieldSingularityError, as_vec3
from bdli.hamiltonian import ChargedParticleSystem, PhaseState
from bdli.quadrature import QuadratureRule
from one_state import from_vector


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
    x = np.asarray(as_vec3("x", x))
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
        zc = from_vector((1.0 - c) * a0 + c * a1)
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


def dli_step_reference(kernel, z0, v_start, kappa: float) -> tuple:
    """``bdli.integrators.dli_step`` with the builtin reductions: the stop
    scale from ``max(map(abs, z0))`` and each iterate's delta from a
    three-argument ``max``.  ``kernel`` is a ``DLIKernel`` and ``kappa`` the
    library's ``KAPPA``; returns the ``StepReport`` fields as a plain tuple
    ``(state, iterations, residual_norm, converged)``."""
    e_at, b_at, w0, pairs, r, s, h, k, kr, ks, tol, dz_factor, iterates = kernel
    x0x, x0y, x0z, v0x, v0y, v0z = z0

    scale = tol * (1.0 + max(map(abs, z0)))

    s0x = s0y = s0z = 0.0
    if w0 is not None:
        e0x, e0y, e0z = e_at(x0x, x0y, x0z)
        s0x, s0y, s0z = s0x + w0 * e0x, s0y + w0 * e0y, s0z + w0 * e0z

    vx, vy, vz = z0[3:] if v_start is None else v_start
    iterations = 0
    while True:
        converged = False
        residual = math.inf
        prev = 0.0
        try:
            for n in iterates:
                avx = r * v0x + s * vx
                avy = r * v0y + s * vy
                avz = r * v0z + s * vz
                dxx, dxy, dxz = h * avx, h * avy, h * avz

                sex, sey, sez = s0x, s0y, s0z
                for c, w in pairs:
                    ex, ey, ez = e_at(x0x + c * dxx, x0y + c * dxy, x0z + c * dxz)
                    sex += w * ex
                    sey += w * ey
                    sez += w * ez

                bx, by, bz = b_at(x0x + 0.5 * dxx, x0y + 0.5 * dxy, x0z + 0.5 * dxz)
                ax = v0x + k * sex + kr * (v0y * bz - v0z * by)
                ay = v0y + k * sey + kr * (v0z * bx - v0x * bz)
                az = v0z + k * sez + kr * (v0x * by - v0y * bx)
                tx, ty, tz = ks * bx, ks * by, ks * bz
                at = ax * tx + ay * ty + az * tz
                d = 1.0 + tx * tx + ty * ty + tz * tz
                nvx = (ax + (ay * tz - az * ty) + at * tx) / d
                nvy = (ay + (az * tx - ax * tz) + at * ty) / d
                nvz = (az + (ax * ty - ay * tx) + at * tz) / d

                delta = max(abs(nvx - vx), abs(nvy - vy), abs(nvz - vz))
                if not math.isfinite(delta):
                    residual = math.inf
                    break
                vx, vy, vz = nvx, nvy, nvz
                residual = delta * dz_factor
                if residual <= scale:
                    converged = True
                    break
                if delta < prev:
                    estimate = delta / (prev - delta) * residual
                    if estimate <= kappa * scale:
                        residual = estimate
                        converged = True
                        break
                elif prev:
                    break
                prev = delta
        except FieldSingularityError:
            if v_start is None:
                raise
        iterations += n
        if converged or v_start is None:
            break
        (vx, vy, vz), v_start = z0[3:], None

    avx = r * v0x + s * vx
    avy = r * v0y + s * vy
    avz = r * v0z + s * vz
    state = (x0x + h * avx, x0y + h * avy, x0z + h * avz, vx, vy, vz)
    return state, iterations, residual, converged


def rk4_step_reference(sys: ChargedParticleSystem, z0, h: float) -> tuple:
    """Classical 4-stage Runge-Kutta step on the Lorentz vector field, with
    the acceleration as a closure called once per stage."""
    fld = sys.field
    qm = sys.charge / sys.mass

    def accel(x, y, z, vx, vy, vz):
        ex, ey, ez = fld.e_at(x, y, z)
        bx, by, bz = fld.b_at(x, y, z)
        return (
            qm * (ex + vy * bz - vz * by),
            qm * (ey + vz * bx - vx * bz),
            qm * (ez + vx * by - vy * bx),
        )

    x1, y1, z1, vx, vy, vz = z0
    a1 = accel(x1, y1, z1, vx, vy, vz)
    k2v = (vx + 0.5 * h * a1[0], vy + 0.5 * h * a1[1], vz + 0.5 * h * a1[2])
    a2 = accel(x1 + 0.5 * h * vx, y1 + 0.5 * h * vy, z1 + 0.5 * h * vz, *k2v)
    k3v = (vx + 0.5 * h * a2[0], vy + 0.5 * h * a2[1], vz + 0.5 * h * a2[2])
    a3 = accel(
        x1 + 0.5 * h * k2v[0], y1 + 0.5 * h * k2v[1], z1 + 0.5 * h * k2v[2], *k3v
    )
    k4v = (vx + h * a3[0], vy + h * a3[1], vz + h * a3[2])
    a4 = accel(x1 + h * k3v[0], y1 + h * k3v[1], z1 + h * k3v[2], *k4v)
    six = h / 6.0
    return (
        x1 + six * (vx + 2.0 * k2v[0] + 2.0 * k3v[0] + k4v[0]),
        y1 + six * (vy + 2.0 * k2v[1] + 2.0 * k3v[1] + k4v[1]),
        z1 + six * (vz + 2.0 * k2v[2] + 2.0 * k3v[2] + k4v[2]),
        vx + six * (a1[0] + 2.0 * a2[0] + 2.0 * a3[0] + a4[0]),
        vy + six * (a1[1] + 2.0 * a2[1] + 2.0 * a3[1] + a4[1]),
        vz + six * (a1[2] + 2.0 * a2[2] + 2.0 * a3[2] + a4[2]),
    )


def tokamak_b_reference(fld, x, y, z) -> tuple:
    """``TokamakField.b_at`` with q R0 and q R recomputed on each call
    (no singularity check)."""
    R = math.sqrt(x * x + y * y)
    q = fld.safety_factor
    k = fld.B0 / (q * R * R)
    return (
        -k * (q * fld.R0 * y + x * z),
        k * (q * fld.R0 * x - y * z),
        fld.B0 * (R - fld.R0) / (q * R),
    )


def tokamak_a_reference(fld, x, y, z) -> tuple:
    """``TokamakField.a_at`` with 2 q and -B0 (q R0 - 1) recomputed on each
    call (no singularity check)."""
    R = math.sqrt(x * x + y * y)
    q = fld.safety_factor
    a_R = fld.B0 * z / (q * R)
    a_xi = fld.B0 * ((fld.R0 - R) ** 2 + z * z) / (2.0 * q * R)
    a_z = -fld.B0 * (q * fld.R0 - 1.0) * math.log(R) / q
    return ((a_R * x - a_xi * y) / R, (a_R * y + a_xi * x) / R, a_z)
