"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 3, 5 and 6 encode idealized targets for the pinned reference
scenarios that the scenarios do not actually attain (see the companion
`test_evidence_*` tests and the per-test notes for the measured behaviour
and its cause).  Those tests are implemented exactly as stated and are
expected to fail; everything else passes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import legendre

from bdli import (
    ChargedParticleSystem,
    CylindricalDriftField,
    PhaseState,
    QuadratureRule,
    QuarticWellField,
    SolverOptions,
    TokamakField,
    UniformField,
    builtin_rule,
    builtin_scenario,
    convergence_study,
    dli_kernel,
    dli_step,
    integrate,
    quantity_series,
    series_errors,
)
from bdli.hamiltonian import energies
from one_state import from_vector
from oracles import grad_energy, k_matrix, vector_field, weighted_gradient
from test_fields import curl_fd, div_fd, grad_fd, sample_points, ALL_MODELS

TOL = 1e-14
BOOLE = builtin_rule("boole")


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. polynomial-H exactness on the banana run
# --------------------------------------------------------------------------

def test_criterion_1_banana_energy_exactness():
    scn = builtin_scenario("banana")
    sys = scn.system()
    t0 = time.perf_counter()
    traj = integrate(sys, BOOLE, scn.initial_state(), scn.h, scn.n_steps,
                     scn.solver)
    wall = time.perf_counter() - t0
    e = series_errors(quantity_series(sys, traj.states, "H"))
    worst = float(np.abs(e).max())
    ok = worst <= 1e-12 and wall <= 30.0
    assert report(1, ok, f"banana max|dH| = {worst:.3e} (<= 1e-12), "
                         f"runtime {wall:.1f}s (<= 30s)")
    assert worst <= 1e-12
    assert wall <= 30.0


# --------------------------------------------------------------------------
# 2. synthetic quartic exactness and rule separation
# --------------------------------------------------------------------------

def test_criterion_2_quartic_exactness(quartic_bdli, quartic_trapezoid):
    sys, traj = quartic_bdli
    H = np.array(energies(sys, traj.states))
    bound = 100.0 * TOL * (1.0 + np.abs(H).max())
    worst_step = float(np.abs(np.diff(H)).max())

    sys_t, traj_t = quartic_trapezoid
    Ht = np.array(energies(sys_t, traj_t.states))
    worst_trap = float(np.abs(np.diff(Ht)).max())

    ok = worst_step <= bound and worst_trap > 1e3 * worst_step
    assert report(
        2, ok,
        f"quartic boole per-step |dH| = {worst_step:.3e} (<= {bound:.1e}); "
        f"trapezoid {worst_trap:.3e} ({worst_trap / max(worst_step, 1e-300):.1e}x)",
    )


# --------------------------------------------------------------------------
# 3. non-polynomial near-conservation on drift2d
# --------------------------------------------------------------------------

def test_criterion_3_drift2d_energy(drift2d_bdli, drift2d_boris):
    """Known to fail as stated: the pinned start (R = 0.1) sends the orbit
    through the near-axis region every loop, where the segment quadrature
    defect of the 1/R potential is ~1e-6 per step (verified against an
    independent adaptive-quadrature oracle in the integrator tests); no
    solver tolerance can push the run below the 1e-12 target.  The
    magnetized variant of the same field meets round-off-level bounds (see
    test_evidence_magnetized_regime_conservation).
    """
    sys_b, traj_b = drift2d_bdli
    sys_r, traj_r = drift2d_boris
    e_b = series_errors(quantity_series(sys_b, traj_b.states, "H"))
    e_r = series_errors(quantity_series(sys_r, traj_r.states, "H"))
    worst_b = float(np.abs(e_b).max())
    worst_r = float(np.abs(e_r).max())
    ratio_ok = worst_b * 1e3 <= worst_r
    bound_ok = worst_b <= 1e-12
    report(3, ratio_ok and bound_ok,
           f"drift2d bdli max|dH| = {worst_b:.3e} (target <= 1e-12), "
           f"boris max|dH| = {worst_r:.3e}, ratio {worst_r / worst_b:.1e} "
           f"(>= 1e3 required)")
    assert ratio_ok
    assert bound_ok, (
        f"bdli max|dH| = {worst_b:.3e} exceeds the 1e-12 target; this is "
        f"the intrinsic Boole quadrature defect of the 1/R potential on "
        f"the near-axis passes of the pinned orbit"
    )


# --------------------------------------------------------------------------
# 4. bounded invariants on drift2d (both methods, non-secular halves test)
# --------------------------------------------------------------------------

def test_criterion_4_bounded_invariants(drift2d_bdli, drift2d_boris):
    details = []
    ok = True
    for label, (sys, traj) in (("bdli", drift2d_bdli), ("boris", drift2d_boris)):
        for q in ("p_xi", "mu"):
            e = series_errors(quantity_series(sys, traj.states, q))
            n = len(e) // 2
            first = float(np.abs(e[:n]).max())
            second = float(np.abs(e[n:]).max())
            ok &= second <= 2.0 * first
            details.append(f"{label}/{q}: {second / first:.2f}")
    assert report(4, ok, "second-half/first-half max-error ratios (<= 2): "
                  + ", ".join(details))


# --------------------------------------------------------------------------
# 5. orbit topology: banana closure, transit winding
# --------------------------------------------------------------------------

def _rz(traj):
    """The (R, z) curve of the orbit, R = sqrt(x^2 + y^2)."""
    s = np.asarray(traj.states)
    return np.hypot(s[:, 0], s[:, 1]), s[:, 2]


def _poloidal_angle(traj, axis_R=1.0):
    R, z = _rz(traj)
    return R, z, np.unwrap(np.arctan2(z, R - axis_R))


def _smooth(series, window=21):
    kernel = np.ones(window) / window
    return np.convolve(series, kernel, mode="valid")


def test_criterion_5_banana_topology(banana_bdli):
    """Known to fail as stated: the banana's poloidal circuit takes about
    1.3e5 steps at h = pi/10 (the bounce period exceeds the pinned 5e4-step
    run), so the (R, z) curve cannot re-enter the 1e-2 ball within the run;
    the closest return within 5e4 steps stays at ~4.5e-2.  On a run long
    enough to hold one circuit the orbit does close (see
    test_hamiltonian.test_banana_drift_orbit_closes).
    """
    sys, traj = banana_bdli
    R, z = _rz(traj)
    in_band = 0.9 < R.min() and R.max() < 1.2
    d = np.hypot(R - R[0], z - z[0])
    far = d.max() / 2.0
    ifar = int(np.argmax(d > far))
    dmin_back = float(d[ifar:].min()) if ifar > 0 else math.inf
    closes = dmin_back < 1e-2
    report(5, in_band and closes,
           f"banana R in [{R.min():.3f}, {R.max():.3f}] (within (0.9, 1.2)); "
           f"closest return after excursion = {dmin_back:.3e} (target < 1e-2)")
    assert in_band
    assert closes, (
        f"banana (R,z) curve does not re-enter the 1e-2 ball within the "
        f"pinned 5e4-step run (closest return {dmin_back:.3e}); its poloidal "
        f"circuit takes ~1.3e5 steps"
    )


def test_criterion_5_transit_winding(transit_bdli, banana_bdli):
    _, traj_t = transit_bdli
    _, _, th_t = _poloidal_angle(traj_t)
    sm_t = _smooth(th_t)
    net_t = float(th_t[-1] - th_t[0])
    # drawdown against the net winding direction, after gyro-averaging
    direction = math.copysign(1.0, net_t)
    drawdown_t = float(np.max(np.maximum.accumulate(direction * sm_t)
                              - direction * sm_t))

    _, traj_b = banana_bdli
    _, _, th_b = _poloidal_angle(traj_b)
    sm_b = _smooth(th_b)
    drawdown_b = float(np.max(np.maximum.accumulate(sm_b) - sm_b))

    # the trapped orbit turns around in theta (reversal ~0.5 rad by the end
    # of the run); the passing orbit's residual reversal is pure gyro-ripple
    ok = (abs(net_t) >= 2 * math.pi and drawdown_t < 0.5
          and drawdown_b > 10.0 * drawdown_t and drawdown_b > 0.25)
    assert report(
        5, ok,
        f"transit winds {net_t / (2 * math.pi):+.2f} turns with max poloidal "
        f"reversal {drawdown_t:.3f} rad (< 0.5); banana reversal "
        f"{drawdown_b:.2f} rad marks its turning point, distinguishing the "
        f"orbit classes",
    )


# --------------------------------------------------------------------------
# 6. order of accuracy on drift2d
# --------------------------------------------------------------------------

def test_criterion_6_convergence_orders():
    """Known to fail as stated: over t = 20pi the pinned orbit passes the
    near-axis region ~10 times; the strong local nonlinearity there keeps
    the pinned step ladder h = pi/10 .. pi/80 outside the asymptotic range
    (measured slopes: bdli ~1.86, rk4 ~4.22) and drives Boris off the orbit
    entirely.  On the magnetized variant of the same field the same ladder
    yields 1.99 / 2.00 / 3.88 (see test_evidence_magnetized_regime_orders).
    """
    base = replace(builtin_scenario("drift2d"), n_steps=200)  # T = 20 pi
    hs = [math.pi / 10, math.pi / 20, math.pi / 40, math.pi / 80]
    href = math.pi / 1280
    slopes = {}
    for method in ("bdli", "boris", "rk4"):
        scn = replace(base, method=method)
        slopes[method] = convergence_study(scn, hs, href).slope
    ok = (1.9 <= slopes["bdli"] <= 2.1 and 1.9 <= slopes["boris"] <= 2.1
          and 3.8 <= slopes["rk4"] <= 4.2)
    report(6, ok,
           f"drift2d slopes: bdli {slopes['bdli']:.3f} (target [1.9, 2.1]), "
           f"boris {slopes['boris']:.3f} (target [1.9, 2.1]), "
           f"rk4 {slopes['rk4']:.3f} (target [3.8, 4.2])")
    assert 1.9 <= slopes["bdli"] <= 2.1, f"bdli slope {slopes['bdli']:.3f}"
    assert 1.9 <= slopes["boris"] <= 2.1, f"boris slope {slopes['boris']:.3f}"
    assert 3.8 <= slopes["rk4"] <= 4.2, f"rk4 slope {slopes['rk4']:.3f}"


# --------------------------------------------------------------------------
# 7. symmetry / reversibility
# --------------------------------------------------------------------------

def test_criterion_7_reversibility():
    fields = [CylindricalDriftField(), TokamakField(),
              UniformField(E=(0.1, 0.0, -0.05)), QuarticWellField()]
    opts = SolverOptions()
    boole = builtin_rule("boole")
    rng = np.random.default_rng(2024)
    worst = 0.0
    for fld in fields:
        sys = ChargedParticleSystem(1.0, 1.0, fld)
        for _ in range(100):
            ang = rng.uniform(0, 2 * math.pi)
            R = rng.uniform(0.5, 1.5)
            z0 = PhaseState(
                (R * math.cos(ang), R * math.sin(ang), rng.uniform(-0.3, 0.3)),
                rng.normal(0.0, 0.1, 3),
            )
            fwd = dli_step(dli_kernel(sys, boole, math.pi / 10, opts), z0.as_vector())
            back = dli_step(dli_kernel(sys, boole, -math.pi / 10, opts), fwd.state)
            assert fwd.converged and back.converged
            err = float(np.abs(np.asarray(from_vector(back.state).as_vector())
                               - z0.as_vector()).max())
            scale = opts.tolerance * (1.0 + np.abs(z0.as_vector()).max())
            worst = max(worst, err / scale)

    scn = builtin_scenario("drift2d")
    sys = scn.system()
    z0 = scn.initial_state()
    n = 1000
    fwd = integrate(sys, BOOLE, z0, scn.h, n, scn.solver)
    back = integrate(sys, BOOLE, from_vector(fwd.states[-1]), -scn.h,
                     n, scn.solver)
    rt_err = float(np.abs(np.asarray(back.states[-1]) - z0.as_vector()).max())
    rt_bound = n * 100 * scn.solver.tolerance * (
        1.0 + np.abs(z0.as_vector()).max()
    )
    ok = worst <= 10.0 and rt_err <= rt_bound
    assert report(
        7, ok,
        f"single-step worst |roundtrip|/scale = {worst:.2f} (<= 10) over "
        f"400 seeded states; 1000-step drift2d roundtrip {rt_err:.3e} "
        f"(<= {rt_bound:.1e})",
    )


# --------------------------------------------------------------------------
# 8. structural identities
# --------------------------------------------------------------------------

def _paired_quadratic_form(K, u):
    # accumulate over (i,j)/(j,i) pairs: each pair cancels exactly for an
    # exactly-skew matrix, so the total is 0.0 exactly
    s = 0.0
    for i in range(6):
        s += K[i, i] * u[i] * u[i]
        for j in range(i + 1, 6):
            s += K[i, j] * (u[i] * u[j]) + K[j, i] * (u[j] * u[i])
    return s


def test_criterion_8_structural_identities():
    rng = np.random.default_rng(99)
    systems = [
        ChargedParticleSystem(1.0, 1.0, CylindricalDriftField()),
        ChargedParticleSystem(1.0, 1.0, TokamakField()),
    ]

    # (a) u^T K u vanishes exactly, 1e3 seeded (u, z)
    for _ in range(500):
        for sys in systems:
            ang = rng.uniform(0, 2 * math.pi)
            R = rng.uniform(0.3, 1.8)
            x = (R * math.cos(ang), R * math.sin(ang), rng.uniform(-0.4, 0.4))
            u = rng.normal(size=6)
            assert _paired_quadratic_form(k_matrix(sys, x), u) == 0.0

    # (b) vector_field == K grad H to 1e-13 relative
    worst_b = 0.0
    for _ in range(500):
        for sys in systems:
            ang = rng.uniform(0, 2 * math.pi)
            R = rng.uniform(0.3, 1.8)
            z = PhaseState(
                (R * math.cos(ang), R * math.sin(ang), rng.uniform(-0.4, 0.4)),
                rng.normal(0, 0.2, 3),
            )
            f = vector_field(sys, z)
            g = k_matrix(sys, z.x) @ grad_energy(sys, z)
            scale = max(1.0, float(np.abs(g).max()))
            worst_b = max(worst_b, float(np.abs(f - g).max()) / scale)
    ok_b = worst_b <= 1e-13

    # (c) discrete line-integral orthogonality on converged steps
    boole = builtin_rule("boole")
    opts = SolverOptions()
    worst_c = 0.0
    for sys, start in [
        (systems[0], PhaseState((0.0, 1.0, 0.0), (0.1, 0.01, 0.0))),
        (systems[1], PhaseState((1.05, 0.0, 0.0), (0.0, 4.816e-4, 2.059e-3))),
    ]:
        z = start
        for _ in range(100):
            rep = dli_step(dli_kernel(sys, boole, math.pi / 10, opts), z.as_vector())
            assert rep.converged
            z1 = from_vector(rep.state)
            g = weighted_gradient(sys, boole, z, z1)
            dz = np.asarray(z1.as_vector()) - z.as_vector()
            scale = float(np.abs(g).sum()) * (1.0 + np.abs(z.as_vector()).max())
            worst_c = max(worst_c, abs(float(g @ dz)) / scale)
            z = z1
    ok_c = worst_c <= 1e-13

    # (d) finite-difference field consistency at the fields-module tolerances
    worst_d = 0.0
    for field in ALL_MODELS:
        for p in sample_points():
            worst_d = max(
                worst_d,
                float(np.abs(curl_fd(field, p) - np.array(field.b_at(*p))).max()),
                float(np.abs(np.array(field.e_at(*p)) + grad_fd(field, p)).max()),
                abs(div_fd(field, p)),
            )
    ok_d = worst_d <= 1e-6

    ok = ok_b and ok_c and ok_d
    assert report(
        8, ok,
        f"uKu exact for 1e3 seeds; |f - K gradH| {worst_b:.2e} (<= 1e-13); "
        f"line-integral orthogonality {worst_c:.2e} (<= 1e-13); "
        f"field FD defect {worst_d:.2e} (<= 1e-6)",
    )


# --------------------------------------------------------------------------
# 9. quadrature exactness
# --------------------------------------------------------------------------

def test_criterion_9_quadrature_exactness():
    boole = builtin_rule("boole")
    assert boole.weights == (7 / 90, 32 / 90, 12 / 90, 32 / 90, 7 / 90)
    worst = 0.0
    for name in ("trapezoid", "simpson", "boole"):
        rule = builtin_rule(name)
        for k in range(rule.degree_of_exactness + 1):
            worst = max(worst, abs(rule.integrate_monomial(k) - 1.0 / (k + 1)))
    ok = worst <= 1e-14
    assert report(9, ok, f"monomial-exactness worst defect {worst:.2e} "
                         f"(<= 1e-14, boole through c^5)")


# --------------------------------------------------------------------------
# supporting evidence for the known-failing criteria: the same method and
# ladder meet the targets once the orbit stays in the magnetized regime
# --------------------------------------------------------------------------

def test_evidence_magnetized_regime_conservation(magnetized_scenario):
    scn = magnetized_scenario
    sys = scn.system()
    traj = integrate(sys, BOOLE, scn.initial_state(), scn.h, scn.n_steps,
                     scn.solver)
    e = series_errors(quantity_series(sys, traj.states, "H"))
    worst = float(np.abs(e).max())
    # measured 1.8e-12: quadrature defect at round-off scale, slow random
    # accumulation over 5e4 steps; six orders below the pinned-start run
    assert worst <= 5e-12
    for q in ("p_xi", "mu"):
        eq = series_errors(quantity_series(sys, traj.states, q))
        n = len(eq) // 2
        assert np.abs(eq[n:]).max() <= 2.0 * np.abs(eq[:n]).max()


def test_evidence_magnetized_regime_orders(magnetized_scenario):
    base = replace(magnetized_scenario, n_steps=200)  # T = 20 pi
    hs = [math.pi / 10, math.pi / 20, math.pi / 40, math.pi / 80]
    href = math.pi / 1280
    windows = {"bdli": (1.9, 2.1), "boris": (1.9, 2.1), "rk4": (3.8, 4.2)}
    for method, (lo, hi) in windows.items():
        study = convergence_study(replace(base, method=method), hs, href)
        assert lo <= study.slope <= hi, (method, study.slope)
        # each pair of rungs is in the asymptotic range, not only the fit
        for order in study.orders:
            assert lo <= order <= hi, (method, study.orders)


def _lobatto(n: int) -> QuadratureRule:
    """The n-node Gauss-Lobatto rule moved to [0, 1]: the ends and the roots
    of P'_{n-1}, weights 2 / (n (n - 1) P_{n-1}(x)^2) on [-1, 1], exact to
    degree 2n - 3.  Each node and weight is averaged with its mirror image,
    so the rule is palindromic and the step time-symmetric."""
    p = [0] * (n - 1) + [1]
    x = np.concatenate(([-1.0], legendre.legroots(legendre.legder(p)), [1.0]))
    c, w = (x + 1.0) / 2.0, 1.0 / (n * (n - 1) * legendre.legval(x, p) ** 2)
    return QuadratureRule(f"lobatto{n}", (c + 1.0 - c[::-1]) / 2.0,
                          (w + w[::-1]) / 2.0, 2 * n - 3)


def test_evidence_drift2d_energy_defect_falls_with_rule_degree(drift2d_scenario,
                                                               drift2d_bdli):
    """Criterion 3's pinned run misses 1e-12 by the quadrature defect of its
    rule, not by solver error: the same run with Gauss-Lobatto rules of 5
    and 9 nodes (degrees 7 and 15) loses less energy, and the 9-node rule
    keeps H to 1e-12, the "practical" energy conservation of line-integral
    methods (Brugnano and Iavernaro, Line Integral Methods for Conservative
    Problems, CRC 2016)."""
    scn = drift2d_scenario
    sys, boole = drift2d_bdli  # criterion 3's own Boole run
    worst = []
    for rule in (None, _lobatto(5), _lobatto(9)):
        assert rule is None or rule.palindromic
        traj = boole if rule is None else integrate(
            sys, rule, scn.initial_state(), scn.h, scn.n_steps, scn.solver)
        e = series_errors(quantity_series(sys, traj.states, "H"))
        worst.append(float(np.abs(e).max()))
    # measured: Boole 2.8e-6, Lobatto-5 1.8e-7, Lobatto-9 1.0e-13
    assert worst[0] > worst[1] > worst[2], worst
    assert worst[2] < 1e-12, worst
