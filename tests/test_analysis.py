import math

import numpy as np
import pytest

from conftest import (DEFAULT, TIGHT, cubic_basin_scalar, linear_ode_system,
                      symmetric_cubic_vector_system)
from ddebound import (BoundednessCriterion, DelayProblem, DelaySpec,
                      HistoryFunction, PolynomialMajorant, PolynomialTerm,
                      ScalarDelaySystem, ToleranceSettings, build_perturbed_scalar,
                      classify_fts, estimate_scalar_radius, estimate_vector_region,
                      integrate, robust_stability_check, sup_norm_on_interval,
                      verify_pointwise_ordering)

PROBE = ToleranceSettings(rtol=1e-4, atol=1e-8, cap=1e6)
CRIT = BoundednessCriterion(kind="bounded_on_horizon", cap=1e6)


class TestVerifyPointwiseOrdering:
    def test_identical_series(self):
        a = integrate(linear_ode_system(-1.0, 1.0), 5.0, DEFAULT)
        b = integrate(linear_ode_system(-1.0, 1.0), 5.0, DEFAULT)
        report = verify_pointwise_ordering([a, b], grid=200, tol=1e-8)
        assert report.holds
        assert report.max_violation == 0.0
        assert report.first_violation_time is None

    def test_mismatched_history_is_a_precondition_error(self):
        a = integrate(linear_ode_system(-1.0, 1.0), 5.0, DEFAULT)
        b = integrate(linear_ode_system(-1.0, 0.5), 5.0, DEFAULT)  # |phi| / 2
        with pytest.raises(ValueError):
            verify_pointwise_ordering([a, b], grid=100, tol=1e-8)

    def test_violation_localized(self):
        upper = integrate(linear_ode_system(-1.0, 1.0), 5.0, DEFAULT)
        lower = integrate(linear_ode_system(-0.2, 1.0), 5.0, DEFAULT)
        report = verify_pointwise_ordering([lower, upper], grid=500, tol=1e-6)
        assert not report.holds
        assert report.max_violation > 0.1
        assert report.first_violation_time is not None
        assert report.first_violation_time < 1.0


    def test_each_pair_checked_on_its_own_domain(self):
        # top reaches the cap at ln 5, but middle falls below bottom after
        # t = 2: the pair (bottom, middle) is checked on all of [0, 4]
        def run(rhs):
            problem = DelayProblem(rhs, DelaySpec.none(), HistoryFunction.constant([1.0]))
            return integrate(problem, 4.0, ToleranceSettings(cap=5.0))

        bottom = run(lambda t, y, z: np.zeros(1))
        middle = run(lambda t, y, z: np.array([0.5 - 0.5 * t]))
        top = run(lambda t, y, z: y)
        assert top.blew_up
        assert top.t_end == pytest.approx(math.log(5.0), abs=1e-5)
        report = verify_pointwise_ordering([bottom, middle, top], grid=400, tol=1e-6)
        assert not report.holds
        assert report.max_violation > 0.9
        assert report.first_violation_time == pytest.approx(2.0, abs=0.02)
        # the reported series stay on the domain all three share
        assert report.grid[-1] == top.t_end
        assert report.grid.size == 400


class TestClassifyFts:
    def test_decay_is_fts(self):
        traj = integrate(linear_ode_system(-1.0, 0.9), 5.0, TIGHT)
        report = classify_fts(traj, 1.0, 1.1, 5.0)
        assert report.fts
        assert report.sup_value == pytest.approx(0.9, abs=1e-9)

    def test_contractive_time_located(self):
        traj = integrate(linear_ode_system(-1.0, 0.9), 5.0, TIGHT)
        report = classify_fts(traj, 1.0, 1.1, 5.0, gamma=0.1)
        assert report.ftcs
        assert report.t1 == pytest.approx(math.log(9.0), abs=1e-3)

    def test_growth_crossing_located(self):
        traj = integrate(linear_ode_system(1.0, 0.9), 5.0, TIGHT)
        report = classify_fts(traj, 1.0, 1.1, 5.0)
        assert not report.fts
        assert report.beta_crossing_time == pytest.approx(math.log(11.0 / 9.0),
                                                          abs=1e-3)

    def test_alpha_guard(self):
        traj = integrate(linear_ode_system(-1.0, 1.5), 5.0, TIGHT)
        with pytest.raises(ValueError):
            classify_fts(traj, 1.0, 1.1, 5.0)

    def test_horizon_guard(self):
        traj = integrate(linear_ode_system(-1.0, 0.9), 5.0, TIGHT)
        with pytest.raises(ValueError):
            classify_fts(traj, 1.0, 1.1, 10.0)


class TestRobustStability:
    def test_cubic_criterion(self):
        L = PolynomialMajorant((PolynomialTerm(1.0, (3,)),), 1)
        report = robust_stability_check(-2.0, 1.0, L)
        assert report.holds
        assert report.y_plus == pytest.approx(math.sqrt(2.0), abs=1e-4)

    def test_no_positive_root(self):
        report = robust_stability_check(-2.0, 1.0, PolynomialMajorant.zero(1),
                                        y_max=1e6)
        assert report.holds
        assert report.y_plus == 1e6

    def test_dominating_linear_term_fails(self):
        L = PolynomialMajorant((PolynomialTerm(1.0, (1,)),), 1)
        report = robust_stability_check(-1.0, 2.0, L)
        assert not report.holds

    def test_positive_rate_rejected(self):
        with pytest.raises(ValueError):
            robust_stability_check(0.5, 1.0, PolynomialMajorant.zero(1))


class TestPerturbedScalar:
    def test_identity_when_unperturbed(self):
        base = cubic_basin_scalar(q=0.3)
        perturbed = build_perturbed_scalar(
            base, PolynomialMajorant.zero(1), DelaySpec.none())
        a = integrate(base, 10.0, DEFAULT)
        b = integrate(perturbed, 10.0, DEFAULT)
        assert np.array_equal(a.ys, b.ys)

    def test_constant_offset_keeps_small_solutions_small(self):
        base = cubic_basin_scalar(q=0.1)
        offset = PolynomialMajorant((PolynomialTerm(1e-3, (0,)),), 1,
                                    allow_constant_terms=True)
        perturbed = build_perturbed_scalar(base, offset, DelaySpec.none())
        traj = integrate(perturbed, 50.0, DEFAULT)
        sup = sup_norm_on_interval(traj, 0.0, 50.0, 400)
        assert sup <= 0.1 + 1e-6        # decays toward the small forced level
        assert traj.eval(50.0)[0] == pytest.approx(1e-3 / 2.0, rel=1e-2)

    def test_shifted_delays_run(self):
        cubic = PolynomialMajorant((PolynomialTerm(0.2, (0, 3)),), 2)
        base = ScalarDelaySystem(p=-2.0, c=1.0, majorant=cubic, forcing=0.0,
                                 delays=DelaySpec.constant([0.5]),
                                 history=HistoryFunction.constant([0.1]), t0=0.0)
        bump = PolynomialMajorant((PolynomialTerm(0.05, (0, 1)),), 2)
        perturbed = build_perturbed_scalar(base, bump, DelaySpec.constant([0.51]))
        traj = integrate(perturbed, 20.0, DEFAULT)
        assert traj.termination == "completed"
        assert sup_norm_on_interval(traj, 0.0, 20.0, 200) <= 0.2

    def test_bundled_stable_instance_with_persistent_perturbation(self):
        # small constant offset plus a shifted delay keeps the bundled
        # (homogeneous) comparison system's solutions small
        from ddebound.cli import _bundled_config, assemble_pipeline
        pipe = assemble_pipeline(_bundled_config("a"))
        base = pipe.scalar_system.homogeneous().with_constant_history(0.05)
        offset = PolynomialMajorant((PolynomialTerm(1e-3, (0, 0)),), 2,
                                    allow_constant_terms=True)
        perturbed = build_perturbed_scalar(base, offset,
                                           DelaySpec.constant([0.51]))
        traj = integrate(perturbed, 50.0, DEFAULT)
        assert traj.termination == "completed"
        assert sup_norm_on_interval(traj, 0.0, 50.0, 400) <= 0.06
        assert traj.eval(50.0)[0] < 0.05


class TestComparisonPrinciple:
    def test_randomized_dominating_pairs(self):
        rng = np.random.default_rng(314)
        tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
        for trial in range(30):
            m = int(rng.integers(1, 3))
            delays = DelaySpec.constant(rng.uniform(0.1, 1.0, size=m))
            a = float(rng.uniform(-2.0, 0.0))
            coeffs = rng.uniform(0.0, 0.8, size=m)
            offset = float(rng.uniform(0.05, 0.3)) if trial % 2 == 0 else 0.0

            def f2(t, u, z, a=a, coeffs=coeffs):
                return np.array([a * u[0] + sum(c * w[0]
                                                for c, w in zip(coeffs, z))])

            def f1(t, u, z, off=offset):
                return f2(t, u, z) - off * (1.0 + math.sin(t))

            q2 = float(rng.uniform(0.0, 1.0))
            q1 = q2 if trial % 2 == 0 else q2 - float(rng.uniform(0.0, 0.5))
            lower = DelayProblem(f1, delays, HistoryFunction.constant([q1]), 0.0)
            upper = DelayProblem(f2, delays, HistoryFunction.constant([q2]), 0.0)
            u1 = integrate(lower, 5.0, tol)
            u2 = integrate(upper, 5.0, tol)
            for t in np.linspace(0.0, 5.0, 101):
                assert u1.eval(float(t))[0] <= u2.eval(float(t))[0] + 1e-6

    def test_monotone_in_constant_history(self):
        rng = np.random.default_rng(2718)
        tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
        for _ in range(10):
            delays = DelaySpec.constant([float(rng.uniform(0.2, 1.0))])
            terms = (PolynomialTerm(float(rng.uniform(0.0, 0.3)), (0, 1)),
                     PolynomialTerm(float(rng.uniform(0.0, 0.2)), (0, 3)))
            sys = ScalarDelaySystem(
                p=float(rng.uniform(-2.0, -0.5)), c=float(rng.uniform(1.0, 1.5)),
                majorant=PolynomialMajorant(terms, 2), forcing=0.0,
                delays=delays, history=HistoryFunction.constant([0.0]), t0=0.0)
            q1 = float(rng.uniform(0.0, 0.4))
            q2 = q1 + float(rng.uniform(0.0, 0.4))
            y1 = integrate(sys.with_constant_history(q1), 8.0, tol)
            y2 = integrate(sys.with_constant_history(q2), 8.0, tol)
            for t in np.linspace(0.0, 8.0, 81):
                assert y1.eval(float(t))[0] <= y2.eval(float(t))[0] + 1e-6


class TestScalarRadius:
    def test_cubic_basin_boundary(self):
        estimate = estimate_scalar_radius(cubic_basin_scalar(), CRIT, 3.0,
                                          bisect_tol=1e-4, horizon=50.0, tol=PROBE)
        assert estimate.status == "bracketed"
        assert estimate.value == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_globally_stable_flagged(self):
        sys = ScalarDelaySystem(p=-1.0, c=1.0, majorant=PolynomialMajorant.zero(1),
                                forcing=0.0, delays=DelaySpec.none(),
                                history=HistoryFunction.constant([0.0]), t0=0.0)
        estimate = estimate_scalar_radius(sys, CRIT, 10.0, horizon=20.0, tol=PROBE)
        assert estimate.status == "unbracketed_above"
        assert estimate.value == 10.0

    def test_bracket_reverifies(self):
        estimate = estimate_scalar_radius(cubic_basin_scalar(), CRIT, 3.0,
                                          bisect_tol=1e-3, horizon=50.0, tol=PROBE)
        lo_traj = integrate(cubic_basin_scalar(q=estimate.lo), 50.0, PROBE)
        hi_traj = integrate(cubic_basin_scalar(q=estimate.hi), 50.0, PROBE)
        assert CRIT.judge(lo_traj, estimate.lo, 50.0)
        assert not CRIT.judge(hi_traj, estimate.hi, 50.0)

    def test_decaying_criterion(self):
        crit = BoundednessCriterion(kind="decaying_tail", cap=1e6)
        estimate = estimate_scalar_radius(cubic_basin_scalar(), crit, 3.0,
                                          bisect_tol=1e-3, horizon=50.0, tol=PROBE)
        assert estimate.value == pytest.approx(math.sqrt(2.0), abs=2e-3)

    def test_empty_at_zero_when_forcing_blows_up(self):
        cubic = PolynomialMajorant((PolynomialTerm(1.0, (3,)),), 1)
        sys = ScalarDelaySystem(p=-0.01, c=1.0, majorant=cubic, forcing=5.0,
                                delays=DelaySpec.none(),
                                history=HistoryFunction.constant([0.0]), t0=0.0)
        estimate = estimate_scalar_radius(sys, CRIT, 1.0, horizon=50.0, tol=PROBE)
        assert estimate.status == "empty_at_zero"
        assert estimate.value == 0.0


class TestVectorRegion:
    def test_dimension_guard(self):
        sys = linear_ode_system(-1.0, 0.5)
        with pytest.raises(ValueError):
            estimate_vector_region(sys, CRIT, 5.0)

    def test_globally_stable_linear_system(self):
        from ddebound.linalg import MatrixFunction
        from ddebound import VectorDelaySystem
        sys = VectorDelaySystem(dim=2,
                                A=MatrixFunction(2, {(0, 0): -1.0, (1, 1): -1.0}),
                                f=None, forcing_amplitude=0.0, forcing_shape=None,
                                delays=DelaySpec.none(),
                                history=HistoryFunction.constant([0.0, 0.0]), t0=0.0)
        boundary = estimate_vector_region(sys, CRIT, 5.0, horizon=20.0, tol=PROBE,
                                          angle_count=8)
        assert all(r.status == "unbracketed_above" for r in boundary.radii)

    def test_rotationally_symmetric_basin(self):
        sys = symmetric_cubic_vector_system([0.1, 0.0])
        boundary = estimate_vector_region(sys, CRIT, 3.0, bisect_tol=1e-3,
                                          horizon=50.0, tol=PROBE, angle_count=8)
        radii = boundary.radius_values()
        assert np.all(np.abs(radii - math.sqrt(2.0)) < 2e-3 * math.sqrt(2.0) + 1e-3)
        assert boundary.min_radius() >= math.sqrt(2.0) - 5e-3
        # angles uniformly spaced over [0, 2 pi)
        spacing = np.diff(boundary.angles)
        assert np.allclose(spacing, 2.0 * math.pi / 8.0)
        # scalar comparison radius stays below the vector minimum
        scalar_L = PolynomialMajorant((PolynomialTerm(4.0, (3,)),), 1)
        scalar = ScalarDelaySystem(p=-2.0, c=1.0, majorant=scalar_L, forcing=0.0,
                                   delays=DelaySpec.none(),
                                   history=HistoryFunction.constant([0.0]), t0=0.0)
        est = estimate_scalar_radius(scalar, CRIT, 3.0, bisect_tol=1e-3,
                                     horizon=50.0, tol=PROBE)
        assert est.value == pytest.approx(math.sqrt(0.5), abs=2e-3)
        assert est.value <= boundary.min_radius() + 2e-3

    def test_probe_log_has_no_flips_for_monotone_system(self):
        sys = symmetric_cubic_vector_system([0.1, 0.0])
        boundary = estimate_vector_region(sys, CRIT, 3.0, horizon=30.0, tol=PROBE,
                                          angle_count=4)
        for estimate in boundary.radii:
            assert estimate.monotone_flips() == ()
