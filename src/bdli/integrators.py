"""One-step integrators and the trajectory loop.

The headline scheme is the discrete line integral (DLI) step

    z1 = z0 + h K((z0 + z1)/2) sum_i w_i grad H((1 - c_i) z0 + c_i z1),

an implicit, time-symmetric, second-order method that conserves the energy
exactly whenever the quadrature rule integrates the segment line integral
of grad H without error (polynomial H of low enough degree), and up to the
quadrature defect otherwise.  With Boole's rule this is the ``bdli``
method.  The implicit update is solved by fixed-point iteration.

Reference integrators: the Boris pusher (exact norm-preserving velocity
rotation) and classical RK4.

A structural shortcut is used inside the solver: the velocity block of
grad H is linear along the segment, so the position update collapses to
x1 = x0 + h ((1 - s) v0 + s v1) with s the rule's first moment (s = 1/2
for the palindromic built-in rules), and only the velocity block needs the
quadrature sum.  This halves the work per iteration without changing the
scheme.

Each iterate freezes B at the segment midpoint and the E quadrature sum at
the current velocity; the velocity equation
v1 = v0 + h (q/m) (sE + ((1 - s) v0 + s v1) x B) is then linear in v1 and
is solved exactly by the Cayley (Boris) rotation, so the iteration only has
to resolve how B and E move along the segment, not the gyration itself.
The fixed point, and hence the scheme, is the same as for a plain Picard
iteration of the update.

``integrate`` starts each step's iteration from a backward extrapolation
of the last accepted velocities (a starting approximation in the sense of
Hairer, Lubich and Wanner, Geometric Numerical Integration, Sec. VIII.6.1).
At solver tolerances >= ``DEGREE8_TOLERANCE`` (1e-14, the default) it is
the degree-8 extrapolation of the last nine, from the ninth step on,

    v_start = 9 (v_k - v_{k-7}) - 36 (v_{k-1} - v_{k-6})
              + 84 (v_{k-2} - v_{k-5}) - 126 (v_{k-3} - v_{k-4}) + v_{k-8};

below it, the degree-6 extrapolation of the last seven, from the seventh
step on,

    v_start = 7 (v_k - v_{k-5}) - 21 (v_{k-1} - v_{k-4})
              + 35 (v_{k-2} - v_{k-3}) + v_{k-6}.

The steps before, and any ``dli_step`` call without a start, begin from
v0.  On fine steps the start is usually within the tolerance already, and
the strict test accepts the first iterate; on coarser ones (banana) the
degree-8 start takes two iterates where the degree-6 one takes ~2.8.  The
gate is round-off: the coefficients' absolute sum, 2^(p+1) for degree p,
amplifies the rounding of the accepted velocities, and below 1e-14 that
reaches the tolerance (at 1e-15, 2000 fine drift2d steps take 1.83
iterations each from degree 8 against 1.30 from degree 6).  Only the
iterate path changes, not the fixed point.

The iteration stops in one of two ways.  The strict test accepts the n-th
iterate once the successive-iterate difference
``delta_n = |z_n - z_{n-1}|_inf`` is at most ``tol (1 + |z0|_inf)``.  From
the second iterate on, the contraction estimate (the stopping rule of the
simplified Newton iteration, Hairer and Wanner, Solving ODEs II, Sec. IV.8)
also accepts it when ``theta = delta_n / delta_{n-1} < 1`` and
``theta / (1 - theta) delta_n <= KAPPA tol (1 + |z0|_inf)``: the estimated
distance to the fixed point is then at most a hundredth of the strict bound,
and the confirming iterate the strict test would need is saved.  A step
whose start is not within the tolerance then usually takes two iterates.
The fixed point and the tolerance do not depend on the stop.

The step kernels ``dli_step``, ``boris_step`` and ``rk4_step`` map a row
``(x, y, z, vx, vy, vz)`` to the next row as a 6-tuple of floats, which
``integrate`` appends to ``Trajectory.states`` as it is; ``PhaseState`` is
only the boundary type.  The DLI step has two parts: ``dli_kernel(sys,
rule, h, opts)`` builds what all steps of a trajectory share (the bound
field evaluators, the rule's nodes split at c = 0, k = h q/m and the solver
limits) once, and ``dli_step(kernel, z0, v_start)`` runs the iteration
from one row.  ``integrate`` takes a stepper, never method text: a rule,
for which it builds one kernel per trajectory and calls ``dli_step``
through this module once per step, or a step function such as
``boris_step``.  ``resolve_method`` turns method text into a stepper.
``dli_step`` is the library's only implementation of the scheme; the tests
check it against an independent array form written from the update
equation above (``tests/oracles.py``).

Both run once per step and call no builtin reduction: ``|z0|_inf`` and
``delta_n`` are compare chains with the builtin ``max``'s semantics (only
a strictly greater item replaces the running value, so a tie keeps the
first item and a NaN counts only in first place), and ``integrate`` tests
each row with six chained ``isfinite`` calls; ``max(map(abs, z0))`` alone
cost ~0.9 us of a ~14 us step.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from numbers import Real

from .fields import FieldSingularityError
from .hamiltonian import ChargedParticleSystem, PhaseState
from .quadrature import QuadratureRule, builtin_rule

# The contraction-estimate stop accepts an iterate whose estimated distance
# to the fixed point is at most KAPPA times the strict test's bound.
KAPPA = 0.01

# integrate starts each step from the degree-8 extrapolation at solver
# tolerances >= DEGREE8_TOLERANCE and from the degree-6 one below, where
# round-off swamps degree 8 (see the module docstring).
DEGREE8_TOLERANCE = 1e-14


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point solver controls for the implicit DLI step.

    ``tolerance`` (a float) scales the stopping tests of the module
    docstring, ``tol (1 + |z0|_inf)``: states in the reference scenarios
    span magnitudes from 1e-4 to 1, so the mixed absolute/relative scaling
    matters.
    """

    tolerance: float = 1e-14
    max_iterations: int = 200

    def __post_init__(self):
        tol = self.tolerance  # a real number of any type; a bool is refused
        if isinstance(tol, bool) or not isinstance(tol, Real):
            raise ValueError(f"tolerance must be a real number, got {tol!r}")
        if not 0 < tol < math.inf:
            raise ValueError("tolerance must be positive and finite")
        object.__setattr__(self, "tolerance", float(tol))
        n = self.max_iterations
        # an int of any integer type; a float, even 8.0, or a bool is refused
        if isinstance(n, bool) or not hasattr(n, "__index__"):
            raise ValueError(f"max_iterations must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("max_iterations must be >= 1")


# The outcome of one implicit step: ``state`` is the next row (6-tuple) and
# ``residual_norm`` what the step was accepted on, the last successive-iterate
# difference or, when the contraction estimate stopped the iteration, that
# estimate of the distance to the fixed point.
StepReport = namedtuple("StepReport", "state iterations residual_norm converged")


class IntegrationError(RuntimeError):
    """Trajectory loop aborted; carries the partial trajectory (the accepted
    steps), the failing step's index ``step_index``, which is their count
    ``len(trajectory.iterations)``, and, once a caller has written it, the
    partial series' ``series_path``."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.step_index = len(trajectory.iterations)
        self.trajectory = trajectory
        self.series_path: str | None = None


class NonConvergenceError(IntegrationError):
    """Fixed-point solver failed to converge, or a step left a non-finite state."""


class SingularityError(IntegrationError):
    """A field singularity was hit at some step."""


class Trajectory:
    """Time series of states plus per-step solver statistics, kept as given.

    ``states`` is a list of n_steps + 1 rows ``(x, y, z, vx, vy, vz)``, the
    6-tuples the steppers return; ``iterations`` has one int per step and
    ``residuals`` each step's ``StepReport.residual_norm`` (0 and 0.0 for
    explicit methods).  Only :func:`integrate` builds one in the library,
    so the arguments are kept as they are, unchecked and uncopied.
    """

    def __init__(self, h: float, states, iterations, residuals):
        self.h = h
        self.states = states
        self.iterations = iterations
        self.residuals = residuals

    def __len__(self) -> int:
        return len(self.states)


# ---------------------------------------------------------------------------
# DLI step
# ---------------------------------------------------------------------------

# What every DLI step of one trajectory shares, built once by dli_kernel: the
# field's bound e_at and b_at; the rule's weight w0 of the node c = 0 (None
# if it has none) and its other (c, w) pairs, (None, ()) for a field without
# E, so that no step samples E; the rule's moments r = 1 - s and s; h;
# k = h q/m, k r and k s; the tolerance; dz_factor, since z-iterates differ
# in x by h s times the v difference; and the iterate numbers to try.
DLIKernel = namedtuple("DLIKernel", "e_at b_at w0 pairs r s h k kr ks "
                       "tolerance dz_factor iterates")


def dli_kernel(sys: ChargedParticleSystem, rule: QuadratureRule, h: float,
               opts: SolverOptions | None = None) -> DLIKernel:
    """The kernel of the DLI steps of size h (either sign) with ``rule`` on
    ``sys``: build it once per trajectory and pass it to every ``dli_step``."""
    opts = opts or SolverOptions()
    fld = sys.field
    # nodes ascend, so the node c = 0 can only come first
    pairs = () if fld.zero_electric else tuple(zip(rule.nodes, rule.weights))
    w0 = None
    if pairs and pairs[0][0] == 0.0:
        w0, pairs = pairs[0][1], pairs[1:]
    s = rule.integrate_monomial(1)
    r = 1.0 - s
    k = h * sys.charge / sys.mass
    return DLIKernel(fld.e_at, fld.b_at, w0, pairs, r, s, h, k, k * r, k * s,
                     opts.tolerance, max(1.0, abs(h) * s),
                     range(1, opts.max_iterations + 1))


def dli_step(kernel: DLIKernel, z0, v_start: tuple | None = None) -> StepReport:
    """One implicit DLI step from the row z0 with the kernel's h and rule.

    ``z0`` and the report's ``state`` are rows ``(x, y, z, vx, vy, vz)``.
    The iteration and its stop are those of the module docstring, from
    ``v_start`` if given, else from v1 = v0 (the first iterate then takes B
    at x0 + (h/2) v0, as the Boris push does).  If it fails from
    ``v_start``, it is rerun once from v0; ``iterations`` counts both runs.
    Non-convergence is reported through ``converged``, never papered over:
    the conservation properties are meaningless on unconverged steps.
    """
    e_at, b_at, w0, pairs, r, s, h, k, kr, ks, tol, dz_factor, iterates = kernel
    x0x, x0y, x0z, v0x, v0y, v0z = z0

    # |z0|_inf as a compare chain, like the iterate's delta below
    m = abs(x0x)
    a = abs(x0y)
    if a > m:
        m = a
    a = abs(x0z)
    if a > m:
        m = a
    a = abs(v0x)
    if a > m:
        m = a
    a = abs(v0y)
    if a > m:
        m = a
    a = abs(v0z)
    if a > m:
        m = a
    scale = tol * (1.0 + m)

    # the c = 0 term of the E sum does not move with the iterate; each
    # iterate's sum starts from it, in the rule's node order
    s0x = s0y = s0z = 0.0
    if w0 is not None:
        e0x, e0y, e0z = e_at(x0x, x0y, x0z)
        s0x, s0y, s0z = s0x + w0 * e0x, s0y + w0 * e0y, s0z + w0 * e0z

    # an extrapolated start that fails (no convergence, a non-finite iterate
    # or a singular field sample) is retried once from v0, so a start can
    # only remove failures, never add them
    vx, vy, vz = z0[3:] if v_start is None else v_start
    iterations = 0
    while True:
        converged = False
        residual = math.inf
        prev = 0.0  # the previous iterate's delta; 0 before the second
        try:
            for n in iterates:
                # velocity average entering both K blocks and the gradient sum
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
                # v = a + v x t with a = v0 + k sE + k r v0 x B and t = k s B,
                # solved exactly: v = (a + a x t + (a.t) t) / (1 + t.t)
                ax = v0x + k * sex + kr * (v0y * bz - v0z * by)
                ay = v0y + k * sey + kr * (v0z * bx - v0x * bz)
                az = v0z + k * sez + kr * (v0x * by - v0y * bx)
                tx, ty, tz = ks * bx, ks * by, ks * bz
                at = ax * tx + ay * ty + az * tz
                d = 1.0 + tx * tx + ty * ty + tz * tz
                nvx = (ax + (ay * tz - az * ty) + at * tx) / d
                nvy = (ay + (az * tx - ax * tz) + at * ty) / d
                nvz = (az + (ax * ty - ay * tx) + at * tz) / d

                delta = abs(nvx - vx)
                a = abs(nvy - vy)
                if a > delta:
                    delta = a
                a = abs(nvz - vz)
                if a > delta:
                    delta = a
                if not math.isfinite(delta):
                    # diverged; keep the last finite iterate for the report
                    residual = math.inf
                    break
                vx, vy, vz = nvx, nvy, nvz
                residual = delta * dz_factor
                if residual <= scale:
                    converged = True
                    break
                # theta = delta / prev, the ratio of the z-differences too
                if delta < prev:
                    estimate = delta / (prev - delta) * residual
                    if estimate <= KAPPA * scale:
                        residual = estimate
                        converged = True
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
    # tuple.__new__ skips the named tuple's Python-level __new__
    return tuple.__new__(StepReport, (state, iterations, residual, converged))


# ---------------------------------------------------------------------------
# reference steppers
# ---------------------------------------------------------------------------

def boris_step(sys: ChargedParticleSystem, z0, h: float) -> tuple:
    """One Boris push: half electric kick, exact rotation, half kick.

    Fields are evaluated at the half-drifted point x0 + (h/2) v0 and the
    position update is completed from there (drift-kick-drift), which keeps
    the one-step map second-order accurate with position and velocity both
    synchronized at integer steps.  The rotation preserves |v| exactly when
    E = 0.
    """
    fld = sys.field
    k = 0.5 * h * sys.charge / sys.mass
    hh = 0.5 * h
    x0x, x0y, x0z, v0x, v0y, v0z = z0
    mx, my, mz = x0x + hh * v0x, x0y + hh * v0y, x0z + hh * v0z
    ex, ey, ez = fld.e_at(mx, my, mz)
    bx, by, bz = fld.b_at(mx, my, mz)
    # half kick
    ax, ay, az = v0x + k * ex, v0y + k * ey, v0z + k * ez
    # rotation v+ = v- + (v- + v- x t) x s,  t = k B,  s = 2t/(1+t.t)
    tx, ty, tz = k * bx, k * by, k * bz
    s = 2.0 / (1.0 + tx * tx + ty * ty + tz * tz)
    px = ax + (ay * tz - az * ty)
    py = ay + (az * tx - ax * tz)
    pz = az + (ax * ty - ay * tx)
    # second half kick folded in
    v1x = ax + s * (py * tz - pz * ty) + k * ex
    v1y = ay + s * (pz * tx - px * tz) + k * ey
    v1z = az + s * (px * ty - py * tx) + k * ez
    return (mx + hh * v1x, my + hh * v1y, mz + hh * v1z, v1x, v1y, v1z)


def rk4_step(sys: ChargedParticleSystem, z0, h: float) -> tuple:
    """Classical 4-stage Runge-Kutta step on the Lorentz vector field.

    With a(x, v) = (q/m) (E(x) + v x B(x)), a_i = a(x_i, v_i) and z0 = (x1, v1),

        x2 = x1 + (h/2) v1,   v2 = v1 + (h/2) a1,
        x3 = x1 + (h/2) v2,   v3 = v1 + (h/2) a2,
        x4 = x1 + h v3,       v4 = v1 + h a3,

    and the step is (x1 + (h/6) (v1 + 2 v2 + 2 v3 + v4), v1 + (h/6) (a1 + 2 a2
    + 2 a3 + a4)).  Each stage calls e_at, then b_at, also where E = 0.
    """
    e_at, b_at = sys.field.e_at, sys.field.b_at
    qm = sys.charge / sys.mass
    hh = 0.5 * h
    x1, y1, z1, vx, vy, vz = z0
    ex, ey, ez = e_at(x1, y1, z1)
    bx, by, bz = b_at(x1, y1, z1)
    a1x = qm * (ex + vy * bz - vz * by)
    a1y = qm * (ey + vz * bx - vx * bz)
    a1z = qm * (ez + vx * by - vy * bx)
    v2x, v2y, v2z = vx + hh * a1x, vy + hh * a1y, vz + hh * a1z
    px, py, pz = x1 + hh * vx, y1 + hh * vy, z1 + hh * vz
    ex, ey, ez = e_at(px, py, pz)
    bx, by, bz = b_at(px, py, pz)
    a2x = qm * (ex + v2y * bz - v2z * by)
    a2y = qm * (ey + v2z * bx - v2x * bz)
    a2z = qm * (ez + v2x * by - v2y * bx)
    v3x, v3y, v3z = vx + hh * a2x, vy + hh * a2y, vz + hh * a2z
    px, py, pz = x1 + hh * v2x, y1 + hh * v2y, z1 + hh * v2z
    ex, ey, ez = e_at(px, py, pz)
    bx, by, bz = b_at(px, py, pz)
    a3x = qm * (ex + v3y * bz - v3z * by)
    a3y = qm * (ey + v3z * bx - v3x * bz)
    a3z = qm * (ez + v3x * by - v3y * bx)
    v4x, v4y, v4z = vx + h * a3x, vy + h * a3y, vz + h * a3z
    px, py, pz = x1 + h * v3x, y1 + h * v3y, z1 + h * v3z
    ex, ey, ez = e_at(px, py, pz)
    bx, by, bz = b_at(px, py, pz)
    a4x = qm * (ex + v4y * bz - v4z * by)
    a4y = qm * (ey + v4z * bx - v4x * bz)
    a4z = qm * (ez + v4x * by - v4y * bx)
    six = h / 6.0
    return (
        x1 + six * (vx + 2.0 * v2x + 2.0 * v3x + v4x),
        y1 + six * (vy + 2.0 * v2y + 2.0 * v3y + v4y),
        z1 + six * (vz + 2.0 * v2z + 2.0 * v3z + v4z),
        vx + six * (a1x + 2.0 * a2x + 2.0 * a3x + a4x),
        vy + six * (a1y + 2.0 * a2y + 2.0 * a3y + a4y),
        vz + six * (a1z + 2.0 * a2z + 2.0 * a3z + a4z),
    )


# ---------------------------------------------------------------------------
# method resolution and the trajectory loop
# ---------------------------------------------------------------------------

def resolve_method(method: str, own: QuadratureRule | None = None):
    """The stepper that method text names.

    "boris" and "rk4" name ``boris_step`` and ``rk4_step``, looked up in this
    module when called; "bdli" and "dli:<name>" the DLI step, returned as its
    rule: Boole's, the built-in rule of that name or, failing that, ``own``,
    a scenario's own rule.
    """
    if method in ("boris", "rk4"):
        return boris_step if method == "boris" else rk4_step
    name = "boole" if method == "bdli" else method.removeprefix("dli:")
    if name == method:
        raise ValueError(
            f"unknown method {method!r} (expected bdli, dli:<rule>, boris or rk4)")
    try:
        return builtin_rule(name)
    except ValueError:
        if own is not None and own.name == name:
            return own
        raise


def integrate(sys: ChargedParticleSystem, stepper, z0: PhaseState, h: float,
              n_steps: int, opts: SolverOptions | None = None) -> Trajectory:
    """Apply a stepper n_steps times from z0.

    ``stepper`` is a QuadratureRule, which runs the DLI step with that rule,
    or a step function ``step(sys, row, h) -> row`` such as ``boris_step``
    (:func:`resolve_method` gives either from method text).  Errors start
    with ``dli:<rule name>`` or the step function's name without ``_step``.
    The returned trajectory is built before the first step, and each
    accepted step appends its row, iteration count and residual to it.
    Aborts with :class:`NonConvergenceError` or :class:`SingularityError` if
    the solver fails to converge, a step yields a non-finite state, or a
    field singularity is reached; the error carries that trajectory as it
    stands, so the failing step is its length in steps, ``len(iterations)``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    # one kernel for the trajectory, passed to dli_step on every step
    if isinstance(stepper, QuadratureRule):
        label, kernel = f"dli:{stepper.name}", dli_kernel(sys, stepper, h, opts)
    else:
        label, kernel = stepper.__name__.removesuffix("_step"), None

    # the one record of the accepted steps; a failure raises it as it stands
    z = z0.as_vector()  # the last accepted row
    states, iters, resid = [z], [], []
    traj = Trajectory(h, states, iters, resid)
    isfinite = math.isfinite

    # the start's degree, by the tolerance (see DEGREE8_TOLERANCE)
    degree8 = kernel is not None and kernel.tolerance >= DEGREE8_TOLERANCE
    first = 8 if degree8 else 6  # the steps before it start from v0

    for k in range(n_steps):
        try:
            if kernel is not None:
                if k < first:
                    v_start = None
                elif degree8:  # degree-8 extrapolation of v from the last
                    # nine rows, newest q0; grouped so each pair shares a
                    # coefficient
                    q8, q7, q6, q5, q4, q3, q2, q1, q0 = states[-9:]
                    v_start = (
                        9.0 * (q0[3] - q7[3]) - 36.0 * (q1[3] - q6[3])
                        + 84.0 * (q2[3] - q5[3]) - 126.0 * (q3[3] - q4[3]) + q8[3],
                        9.0 * (q0[4] - q7[4]) - 36.0 * (q1[4] - q6[4])
                        + 84.0 * (q2[4] - q5[4]) - 126.0 * (q3[4] - q4[4]) + q8[4],
                        9.0 * (q0[5] - q7[5]) - 36.0 * (q1[5] - q6[5])
                        + 84.0 * (q2[5] - q5[5]) - 126.0 * (q3[5] - q4[5]) + q8[5])
                else:  # degree 6, from the last seven rows, grouped alike
                    q6, q5, q4, q3, q2, q1, q0 = states[-7:]
                    v_start = (
                        7.0 * (q0[3] - q5[3]) - 21.0 * (q1[3] - q4[3])
                        + 35.0 * (q2[3] - q3[3]) + q6[3],
                        7.0 * (q0[4] - q5[4]) - 21.0 * (q1[4] - q4[4])
                        + 35.0 * (q2[4] - q3[4]) + q6[4],
                        7.0 * (q0[5] - q5[5]) - 21.0 * (q1[5] - q4[5])
                        + 35.0 * (q2[5] - q3[5]) + q6[5])
                z, n, residual, converged = dli_step(kernel, z, v_start)
                if not converged:
                    raise NonConvergenceError(
                        f"{label}: fixed-point solver did not converge at step "
                        f"{k} (residual {residual:.3e} after {n} iterations)", traj)
            else:
                z, n, residual = stepper(sys, z, h), 0, 0.0
        except FieldSingularityError as exc:
            raise SingularityError(f"{label}: {exc} at step {k}", traj) from exc
        if not (isfinite(z[0]) and isfinite(z[1]) and isfinite(z[2])
                and isfinite(z[3]) and isfinite(z[4]) and isfinite(z[5])):
            raise NonConvergenceError(f"{label}: non-finite state at step {k}", traj)
        states.append(z)
        iters.append(n)
        resid.append(residual)
    return traj
