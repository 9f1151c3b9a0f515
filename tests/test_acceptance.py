"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import (cubic_basin_scalar, delayed_decay_oracle,
                      delayed_decay_system, linear_ode_system, nonlinear_field)
from ddebound import (BoundednessCriterion, DelayProblem, DelaySpec,
                      HistoryFunction, PolynomialMajorant, PolynomialTerm,
                      ToleranceSettings, classify_fts,
                      compute_fundamental_matrix, estimate_scalar_radius,
                      estimate_vector_region, integrate, linearize_majorant, on_arrays,
                      parse_expression, robust_stability_check, superposition_check,
                      verify_pointwise_ordering)
from ddebound.cli import (_bundled_config, _search_settings, assemble_pipeline,
                          build_linear_chain, fig1_protocol, fig2_protocol)
from ddebound.linalg import MatrixFunction
from ddebound.vectorfield import NonlinearTerm, PolynomialVectorField


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_norm_bound_ordering_both_cases():
    details = []
    ok = True
    for case in ("a", "b"):
        start = time.perf_counter()
        report, _pipe = fig1_protocol(_bundled_config(case), rtol=1e-6, grid=2000)
        elapsed = time.perf_counter() - start
        ok = ok and report.holds and elapsed < 5.0
        details.append(f"case {case}: max violation {report.max_violation:.2e} "
                       f"(tol 1e-4), {elapsed:.2f}s (budget 5s)")
    _report(1, ok, "; ".join(details))


def test_criterion_02_comparison_principle_suite():
    rng = np.random.default_rng(20260810)
    tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
    check_tol = 1e-6 + 100 * tol.rtol
    start = time.perf_counter()
    worst = -math.inf
    for trial in range(100):
        m = int(rng.integers(1, 3))
        delays = DelaySpec.constant(rng.uniform(0.1, 1.0, size=m))
        rate = float(rng.uniform(-2.0, 0.0))
        delayed = rng.uniform(0.0, 0.8, size=m)
        offset = float(rng.uniform(0.05, 0.3)) if trial % 2 == 0 else 0.0

        def dominating(t, u, z, a=rate, cs=delayed):
            return np.array([a * u[0] + sum(c * w[0] for c, w in zip(cs, z))])

        def dominated(t, u, z, off=offset):
            return dominating(t, u, z) - off * (1.0 + math.sin(t))

        q_hi = float(rng.uniform(0.0, 1.0))
        q_lo = q_hi if trial % 2 == 0 else q_hi - float(rng.uniform(0.0, 0.5))
        lower = DelayProblem(on_arrays(dominated), delays, HistoryFunction.constant([q_lo]),
                             0.0)
        upper = DelayProblem(on_arrays(dominating), delays, HistoryFunction.constant([q_hi]),
                             0.0)
        u1 = integrate(lower, 5.0, tol)
        u2 = integrate(upper, 5.0, tol)
        grid = np.linspace(0.0, 5.0, 101)
        gap = max(float(u1.eval(float(t))[0] - u2.eval(float(t))[0]) for t in grid)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= check_tol and elapsed < 30.0
    _report(2, ok, f"100 dominating pairs, worst ordering gap {worst:.2e} "
                   f"(tol {check_tol:.1e}), {elapsed:.1f}s (budget 30s)")


def test_criterion_03_integrator_hand_oracle():
    traj = integrate(delayed_decay_system(), 3.0,
                     ToleranceSettings(rtol=1e-8, atol=1e-12))
    grid = np.linspace(0.0, 3.0, 601)
    err = max(abs(traj.eval(float(t))[0] - delayed_decay_oracle(float(t)))
              for t in grid)
    node_ok = (abs(traj.eval(1.0)[0]) < 1e-8
               and abs(traj.eval(2.0)[0] + 0.5) < 1e-8)
    mid = abs(traj.eval(1.5)[0] - (1.5 ** 2 - 4 * 1.5 + 3) / 2.0)
    ok = err < 1e-6 and node_ok and mid < 1e-8
    _report(3, ok, f"piecewise-polynomial max error {err:.2e} (tol 1e-6), "
                   f"y(1)={traj.eval(1.0)[0]:.1e}, y(2)={traj.eval(2.0)[0]:.6f}")


def test_criterion_04_reduction_oracles():
    fund_tol = ToleranceSettings(rtol=1e-8, atol=1e-12, cap=math.inf)
    A = MatrixFunction(2, {(0, 0): -1.0, (1, 1): -2.0})
    W = compute_fundamental_matrix(A, 0.0, 3.2, fund_tol)
    ts = np.linspace(0.1, 3.0, 59)
    _sigma_max, c, p = W.spectra(ts)
    p_err = float(np.max(np.abs(p + 1.0)))
    c_err = float(np.max(np.abs(c - np.exp(ts)) / np.exp(ts)))

    lam = parse_expression("-3 + 0.1*sin(5*t)")
    A2 = MatrixFunction(2, {(0, 0): lam, (1, 1): lam})
    W2 = compute_fundamental_matrix(A2, 0.0, 3.2, fund_tol)
    _sigma_max, c2, p2 = W2.spectra(ts)
    p2_err = float(np.max(np.abs(p2 - [lam(t) for t in ts.tolist()])))
    c2_err = float(np.max(np.abs(c2 - 1.0)))
    ok = p_err < 1e-5 and c_err < 1e-5 and p2_err < 1e-5 and c2_err < 1e-8
    _report(4, ok, f"diag(-1,-2): |p+1| {p_err:.1e} (tol 1e-5), rel c err "
                   f"{c_err:.1e} (tol 1e-5); scalar-identity: |p-rate| "
                   f"{p2_err:.1e} (tol 1e-5), |c-1| {c2_err:.1e} (tol 1e-8)")


def test_criterion_05_majorant_randomized_suites():
    rng = np.random.default_rng(5150)
    monomials = [(0, 0.7, [(0, 0, 3), (1, 1, 2)]),
                 (1, -1.3, [(2, 1, 3)]),
                 (1, 0.4, [(0, 1, 1), (1, 0, 1)])]
    poly = PolynomialVectorField(2, 2, monomials)
    term = NonlinearTerm(2, 2, poly)
    f = nonlinear_field(term)
    L = term.majorize()
    major_viol = 0
    for _ in range(1000):
        t = float(rng.uniform(0.0, 10.0))
        x = rng.uniform(-2.0, 2.0, size=2)
        z = [rng.uniform(-2.0, 2.0, size=2) for _ in range(2)]
        lhs = float(np.linalg.norm(f(t, x, z)))
        zeta = [float(np.linalg.norm(x))] + [float(np.linalg.norm(v)) for v in z]
        if lhs > L.evaluate(t, zeta) + 1e-12:
            major_viol += 1
    zt = 0.8
    lc = linearize_majorant(L, zt)
    lin_viol = 0
    for _ in range(1000):
        t = float(rng.uniform(0.0, 10.0))
        zeta = rng.uniform(0.0, zt, size=3)
        if L.evaluate(t, tuple(zeta)) > lc.evaluate(t, zeta) + 1e-12:
            lin_viol += 1
    ok = major_viol == 0 and lin_viol == 0
    _report(5, ok, f"majorization violations {major_viol}/1000, linear-domination "
                   f"violations {lin_viol}/1000 (allowance beyond 1e-12: none)")


def test_criterion_06_robust_criterion_root():
    L = PolynomialMajorant((PolynomialTerm(1.0, (3,)),), 1)
    report = robust_stability_check(-2.0, 1.0, L)
    err = abs(report.y_plus - math.sqrt(2.0))
    ok = report.holds and err < 1e-4
    _report(6, ok, f"holds={report.holds}, y_plus={report.y_plus:.6f}, "
                   f"|y_plus - sqrt(2)| = {err:.1e} (tol 1e-4)")


def test_criterion_07_scalar_radius_oracle():
    crit = BoundednessCriterion(kind="bounded_on_horizon", cap=1e6)
    estimate = estimate_scalar_radius(
        cubic_basin_scalar(), crit, 3.0, bisect_tol=1e-4, horizon=50.0,
        tol=ToleranceSettings(rtol=1e-4, atol=1e-8, cap=1e6))
    err = abs(estimate.value - math.sqrt(2.0))
    ok = estimate.status == "bracketed" and err < 1e-3
    _report(7, ok, f"basin radius {estimate.value:.6f}, |r - sqrt(2)| = {err:.1e} "
                   f"(tol 1e-3), status {estimate.status}")


def test_criterion_08_region_inclusion_full_sweep():
    cfg = _bundled_config("a")
    start = time.perf_counter()
    boundary, scalar_est, auto_est, inclusion = fig2_protocol(cfg)
    elapsed = time.perf_counter() - start
    min_vector = boundary.min_radius()
    slack = 2.0 * 1e-3 * max(1.0, min_vector)
    bisections_ok = all(len(r.probes) <= 42 for r in boundary.radii)
    # the protocol stops a probe once it is trapped in the frozen ball; the
    # same sweep with every probe integrated to the horizon brackets alike
    pipe = assemble_pipeline(cfg)
    criterion, probe_tol, duration = _search_settings(pipe)
    full = estimate_vector_region(
        replace(cfg.system, forcing_amplitude=0.0, forcing_shape=None), criterion,
        cfg.analysis.r_max, cfg.analysis.bisect_tol, duration, probe_tol, angle_count=200)
    same = ([(r.lo, r.hi, r.probes) for r in boundary.radii]
            == [(r.lo, r.hi, r.probes) for r in full.radii])
    ok = (len(boundary.angles) == 200 and inclusion and bisections_ok and same
          and probe_tol.trap is None
          and scalar_est.value <= min_vector + slack and elapsed < 600.0)
    _report(8, ok, f"scalar radius {scalar_est.value:.4f} <= min vector radius "
                   f"{min_vector:.4f} + {slack:.1e}; autonomous "
                   f"{auto_est.value:.4f}; 200 angles in {elapsed:.0f}s "
                   f"(budget 600s); brackets without the trap "
                   f"{'identical' if same else 'DIFFERENT'}")


def test_criterion_09_superposition_residuals():
    pipe = assemble_pipeline(_bundled_config("a"))
    linear, _constant = build_linear_chain(pipe)
    rng = np.random.default_rng(909)
    tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
    worst = 0.0
    for _ in range(10):
        phi = float(rng.uniform(0.0, 0.2))
        amplitude = float(rng.uniform(0.0, 1.0))
        residual = superposition_check(linear, HistoryFunction.constant([phi]),
                                       amplitude, 50.0, tol)
        worst = max(worst, residual)
    ok = worst < 1e-4
    _report(9, ok, f"10 random (history, amplitude) pairs, max residual "
                   f"{worst:.2e} (tol 1e-4)")


def test_criterion_10_linearized_chain_ordering():
    cfg = _bundled_config("a")
    assert cfg.reduction.zeta_tilde == 0.5
    pipe = assemble_pipeline(cfg)
    linear, constant = build_linear_chain(pipe)
    hist = HistoryFunction.constant([0.05])
    tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
    y = integrate(pipe.scalar_system.homogeneous().with_history(hist), 50.0, tol)
    u = integrate(replace(linear, history=hist, forcing_amplitude=0.0), 50.0, tol)
    upper = integrate(replace(constant, history=hist, forcing_amplitude=0.0),
                      50.0, tol)
    report = verify_pointwise_ordering([y, u, upper], grid=2000, tol=1e-4)
    ok = report.holds
    _report(10, ok, f"y <= u <= U on [0, 50]: max violation "
                    f"{report.max_violation:.2e} (tol 1e-4)")


def test_criterion_11_finite_time_classification():
    tight = ToleranceSettings(rtol=1e-8, atol=1e-12)
    decay = integrate(linear_ode_system(-1.0, 0.9), 5.0, tight)
    r1 = classify_fts(decay, 1.0, 1.1, 5.0)
    r2 = classify_fts(decay, 1.0, 1.1, 5.0, gamma=0.1)
    grow = integrate(linear_ode_system(1.0, 0.9), 5.0, tight)
    r3 = classify_fts(grow, 1.0, 1.1, 5.0)
    t1_err = abs(r2.t1 - math.log(9.0)) if r2.t1 is not None else math.inf
    cross_err = (abs(r3.beta_crossing_time - math.log(11.0 / 9.0))
                 if r3.beta_crossing_time is not None else math.inf)
    ok = (r1.fts and bool(r2.ftcs) and t1_err < 1e-3
          and not r3.fts and cross_err < 1e-3)
    _report(11, ok, f"decay FTS={r1.fts}; FTCS t1 err {t1_err:.1e} (tol 1e-3); "
                    f"growth FTS={r3.fts}, crossing err {cross_err:.1e} (tol 1e-3)")
