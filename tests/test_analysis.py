import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (DEFAULT, TIGHT, cubic_basin_scalar, delayed_decay_system,
                      linear_ode_system, narrow_excursion, symmetric_cubic_vector_system)
from ddebound import (BoundednessCriterion, DelayProblem, DelaySpec,
                      HistoryFunction, IntegrationError, PolynomialMajorant,
                      PolynomialTerm, RobustReport, ScalarDelaySystem, ToleranceSettings,
                      Trajectory, build_perturbed_scalar, classify_fts, estimate_scalar_radius,
                      estimate_vector_region, frozen_scalar_radius, integrate,
                      on_arrays, parse_expression, robust_stability_check,
                      verify_pointwise_ordering)
from ddebound.timefn import ConstantFn

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
            problem = DelayProblem(on_arrays(rhs), DelaySpec.none(),
                                   HistoryFunction.constant([1.0]))
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

    @pytest.mark.parametrize("count", [1, 0, -2, True])
    def test_a_grid_count_below_two_is_refused(self, count):
        a = integrate(linear_ode_system(-1.0, 1.0), 5.0, DEFAULT)
        with pytest.raises(ValueError, match="grid count must be at least 2"):
            verify_pointwise_ordering([a, a], grid=count)

    def test_any_integral_count_is_a_count(self):
        a = integrate(linear_ode_system(-1.0, 1.0), 5.0, DEFAULT)
        report = verify_pointwise_ordering([a, a], grid=np.int64(50))
        assert report.holds
        assert np.array_equal(report.grid, np.linspace(0.0, 5.0, 50))

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 5.0, 51), [0.0, 1.0, 2.0],
                                      np.float64(50.0), 50.0],
                             ids=["array", "list", "numpy-float", "float"])
    def test_a_grid_that_is_not_a_point_count_is_refused(self, grid):
        a = integrate(linear_ode_system(-1.0, 1.0), 5.0, DEFAULT)
        with pytest.raises(ValueError, match="^the grid is a point count, not "):
            verify_pointwise_ordering([a, a], grid=grid)

    def test_fig1_protocol_refuses_a_one_point_grid(self):
        from ddebound.cli import _bundled_config, fig1_protocol
        with pytest.raises(ValueError, match="grid count must be at least 2"):
            fig1_protocol(_bundled_config("a"), horizon=5.0, grid=1)


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
        # below gamma throughout, t1 is the start; still above it at T = 5, not FTCS
        assert classify_fts(traj, 1.0, 1.1, 5.0, gamma=0.95).t1 == 0.0
        late = classify_fts(traj, 1.0, 1.1, 5.0, gamma=0.005)
        assert (late.fts, late.ftcs, late.t1) == (True, False, None)

    def test_growth_crossing_located(self):
        traj = integrate(linear_ode_system(1.0, 0.9), 5.0, TIGHT)
        report = classify_fts(traj, 1.0, 1.1, 5.0)
        assert not report.fts
        assert report.beta_crossing_time == pytest.approx(math.log(11.0 / 9.0),
                                                          abs=1e-3)

    def test_excursion_between_grid_points_is_not_fts(self):
        # above beta = 1 only on (0.300025, 0.300225), inside one cell of a
        # 4,001-point grid of [0, 1], which reads at most 1 - 1.25e-10
        traj = narrow_excursion(1.0, 0.300125, 1e-4, 0.8)
        report = classify_fts(traj, 0.999, 1.0, 1.0)
        assert not report.fts
        assert report.sup_value >= 1.0
        assert 0.300025 < report.beta_crossing_time < 0.300125
        assert traj.norm_at(report.beta_crossing_time) >= 1.0

    def test_history_above_alpha_between_samples_is_refused(self):
        # the history peaks at 1.1 at t = -0.5 and is above alpha = 1 only
        # within 1.35e-4 of it: 256 samples of [-1, 0] read at most 0.5, the
        # 10,000-point grid reads 1.085
        bump = parse_expression("0.5 + 0.6*exp(-10000000*(t+0.5)^2)")
        traj = integrate(delayed_decay_system(HistoryFunction.from_expressions([bump])),
                         3.0, TIGHT)
        with pytest.raises(ValueError, match="is not below alpha"):
            classify_fts(traj, 1.0, 1.2, 3.0)

    def test_contraction_time_after_an_excursion_between_grid_points(self):
        # the norm is above gamma = 1 only between the crossings 0.3000543 and
        # 0.3001957, so it stays below gamma after the last one, not after t0
        traj = narrow_excursion(1.0, 0.300125, 1e-4, 0.8)
        report = classify_fts(traj, 1.5, 2.0, 1.0, gamma=1.0)
        assert report.fts and report.ftcs
        assert report.t1 == pytest.approx(0.30019570063, abs=1e-9)

    def test_alpha_guard(self):
        traj = integrate(linear_ode_system(-1.0, 1.5), 5.0, TIGHT)
        with pytest.raises(ValueError):
            classify_fts(traj, 1.0, 1.1, 5.0)

    def test_horizon_guard(self):
        traj = integrate(linear_ode_system(-1.0, 0.9), 5.0, TIGHT)
        with pytest.raises(ValueError):
            classify_fts(traj, 1.0, 1.1, 10.0)
        # past t_end by more than the 1e-12 every evaluation allows
        with pytest.raises(ValueError, match="extends past the trajectory horizon"):
            classify_fts(traj, 1.0, 1.1, 5.0 + 5e-10)


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

    def test_positive_rate_fails_at_zero(self):
        # p_hat >= 0: the expression is nonnegative right above 0
        for p_hat in (0.5, 0.0):
            assert robust_stability_check(p_hat, 1.0, PolynomialMajorant.zero(1)) == \
                RobustReport(False, 0.0)

    def test_delayed_arguments_read_the_one_value(self):
        # L(y, y) of -2y + 0.5y^3 + 0.5y(t - h)^3 is y^3: the root is sqrt(2)
        L = PolynomialMajorant((PolynomialTerm(0.5, (3, 0)), PolynomialTerm(0.5, (0, 3))), 2)
        one = PolynomialMajorant((PolynomialTerm(1.0, (3,)),), 1)
        assert robust_stability_check(-2.0, 1.0, L) == robust_stability_check(-2.0, 1.0, one)
        assert robust_stability_check(-2.0, 1.0, L).y_plus == pytest.approx(math.sqrt(2.0))

    def test_constant_term_fails_at_zero(self):
        L = PolynomialMajorant((PolynomialTerm(0.1, (0,)), PolynomialTerm(1.0, (3,))), 1,
                               allow_constant_terms=True)
        assert robust_stability_check(-1.0, 1.0, L) == RobustReport(False, 0.0)

    def test_mixed_degrees_root(self):
        # -3y + 1.5(0.5y + 0.2y^2 + 0.7y^4) vanishes where 1.05y^3 + 0.3y = 2.25
        L = PolynomialMajorant((PolynomialTerm(0.5, (1,)), PolynomialTerm(0.2, (2,)),
                                PolynomialTerm(0.7, (4,))), 1)
        report = robust_stability_check(-3.0, 1.5, L)
        assert report.holds
        assert 1.05 * report.y_plus ** 3 + 0.3 * report.y_plus == pytest.approx(2.25,
                                                                                rel=1e-14)

    def test_root_beyond_the_range_gives_the_range(self):
        L = PolynomialMajorant((PolynomialTerm(1.0, (3,)),), 1)
        assert robust_stability_check(-2.0, 1.0, L, y_max=1.0) == RobustReport(True, 1.0)

    def test_time_varying_coefficient_rejected(self):
        L = PolynomialMajorant((PolynomialTerm(lambda t: 1.0 + t, (3,)),), 1)
        with pytest.raises(ValueError, match="constant"):
            robust_stability_check(-2.0, 1.0, L)


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
        sup = traj.sup_norm(0.0, 50.0)
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
        assert traj.sup_norm(0.0, 20.0) <= 0.2

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
        assert traj.sup_norm(0.0, 50.0) <= 0.06
        assert traj.eval(50.0)[0] < 0.05

    def test_two_perturbations_add_up(self):
        # y' = -2y + 1e-2 + 1e-2 settles at 0.01, and each perturbation's
        # delay keeps its own slot
        base = ScalarDelaySystem(p=-2.0, c=1.0, majorant=PolynomialMajorant.zero(1),
                                 forcing=0.0, delays=DelaySpec.none(),
                                 history=HistoryFunction.constant([0.0]), t0=0.0)
        offset = PolynomialMajorant((PolynomialTerm(1e-2, (0,)),), 1,
                                    allow_constant_terms=True)
        twice = build_perturbed_scalar(build_perturbed_scalar(base, offset, DelaySpec.none()),
                                       offset, DelaySpec.none())
        assert integrate(twice, 50.0, DEFAULT).eval(50.0)[0] == pytest.approx(0.01, rel=1e-6)
        bump = PolynomialMajorant((PolynomialTerm(0.05, (0, 1)),), 2)
        delayed = build_perturbed_scalar(build_perturbed_scalar(
            base, bump, DelaySpec.constant([0.5])), bump, DelaySpec.constant([0.7]))
        assert [fn.value for fn in delayed.delays.delays] == [0.5, 0.7]
        assert [term.exponents for term in delayed.majorant.terms] == [(0, 1, 0), (0, 0, 1)]


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
            lower = DelayProblem(on_arrays(f1), delays, HistoryFunction.constant([q1]), 0.0)
            upper = DelayProblem(on_arrays(f2), delays, HistoryFunction.constant([q2]), 0.0)
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


class TestJudge:
    def test_excursion_between_samples_is_bad(self):
        # above the cap only on (0.2985, 0.3015), between two of 256 uniform
        # samples of [0, 1]; both nodes and all samples stay below it
        traj = narrow_excursion(1.0, 0.3, 0.0015, 200.0 / 255.0)
        assert np.max(traj.norm_grid(np.linspace(0.0, 1.0, 256))) < 1.0
        assert not BoundednessCriterion(cap=1.0).judge(traj, 1.0, 1.0)
        assert 0.2985 < traj.first_crossing(1.0) < 0.3
        assert BoundednessCriterion(cap=1.0 + 1e-6).judge(traj, 1.0, 1.0)

    def test_tail_excursion_between_samples_does_not_decay(self):
        # above 1 = decay_ratio * 2 only on (0.8998, 0.9002), between two of
        # 256 uniform samples of the tail [0.8, 1]; elsewhere at most 1 - 5e-12
        traj = narrow_excursion(1.0, 0.9, 2e-4, 0.85)
        assert np.max(traj.norm_grid(np.linspace(0.8, 1.0, 256))) < 1.0
        decaying = BoundednessCriterion(kind="decaying_tail", decay_ratio=0.5)
        assert not decaying.judge(traj, 2.0, 1.0)
        assert decaying.judge(traj, 2.0 + 1e-9, 1.0)

    def test_a_trapped_run_is_good_before_the_horizon(self):
        traj = integrate(cubic_basin_scalar(q=1.0), 50.0, replace(PROBE, trap=1.0))
        assert traj.termination == "trapped" and traj.t_end == 0.0
        assert CRIT.judge(traj, 1.0, 50.0)
        with pytest.raises(ValueError, match="trapped run has no tail"):
            BoundednessCriterion(kind="decaying_tail").judge(traj, 1.0, 50.0)


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

    def test_one_problem_per_search_on_case_a(self, monkeypatch):
        # the search builds its problem once and each probe replaces the
        # history, so the right side is generated and `c >= 1` sampled once
        from ddebound.cli import _bundled_config, _search_settings, assemble_pipeline
        pipe = assemble_pipeline(_bundled_config("a"))
        scalar = pipe.scalar_system.homogeneous()
        criterion, probe_tol, duration = _search_settings(pipe)
        built = []
        problem = ScalarDelaySystem.problem

        def counted(self, horizon):
            built.append(horizon)
            return problem(self, horizon)

        monkeypatch.setattr(ScalarDelaySystem, "problem", counted)
        a = pipe.config.analysis
        estimate = estimate_scalar_radius(scalar, criterion, a.q_max, a.bisect_tol, duration,
                                          probe_tol)
        assert estimate.status == "bracketed" and len(estimate.probes) == 15
        assert len(built) == 1

    def test_the_system_history_is_not_read(self):
        negative = cubic_basin_scalar().with_constant_history(-1.0)
        estimates = [estimate_scalar_radius(ss, CRIT, 3.0, bisect_tol=1e-2, horizon=20.0,
                                            tol=PROBE)
                     for ss in (negative, cubic_basin_scalar())]
        assert estimates[0] == estimates[1]

    def test_empty_at_zero_when_forcing_blows_up(self):
        cubic = PolynomialMajorant((PolynomialTerm(1.0, (3,)),), 1)
        sys = ScalarDelaySystem(p=-0.01, c=1.0, majorant=cubic, forcing=5.0,
                                delays=DelaySpec.none(),
                                history=HistoryFunction.constant([0.0]), t0=0.0)
        estimate = estimate_scalar_radius(sys, CRIT, 1.0, horizon=50.0, tol=PROBE)
        assert estimate.status == "empty_at_zero"
        assert estimate.value == 0.0

    def test_a_trap_with_the_decaying_criterion_is_refused(self):
        crit = BoundednessCriterion(kind="decaying_tail", cap=1e6)
        trapping = replace(PROBE, trap=1.0)
        with pytest.raises(ValueError, match="decaying_tail"):
            estimate_scalar_radius(cubic_basin_scalar(), crit, 3.0, tol=trapping)
        with pytest.raises(ValueError, match="decaying_tail"):
            estimate_vector_region(symmetric_cubic_vector_system([0.1, 0.0]), crit, 3.0,
                                   tol=trapping, angle_count=2)

    def test_steps_are_logged_with_each_probe(self):
        estimate = estimate_scalar_radius(cubic_basin_scalar(), CRIT, 3.0, bisect_tol=1e-2,
                                          horizon=20.0, tol=replace(PROBE, trap=1.0))
        assert len(estimate.steps) == len(estimate.probes)
        full = estimate_scalar_radius(cubic_basin_scalar(), CRIT, 3.0, bisect_tol=1e-2,
                                      horizon=20.0, tol=PROBE)
        assert estimate.probes == full.probes
        for (q, _good), steps, full_steps in zip(estimate.probes, estimate.steps, full.steps):
            # a probe inside the trap ball takes no step, one above it stops early
            assert (steps == 0) == (q <= 1.0) and 0 < full_steps and steps <= full_steps

    @pytest.mark.parametrize("bisect_tol", [2.0, -0.05, 0.0, 1.0, math.nan])
    def test_a_bisect_tol_outside_the_unit_interval_is_refused(self, bisect_tol):
        with pytest.raises(ValueError, match=r"^bisect_tol must lie in \(0, 1\)"):
            estimate_scalar_radius(cubic_basin_scalar(), CRIT, 3.0, bisect_tol=bisect_tol,
                                   horizon=50.0, tol=PROBE)


class TestFrozenRadius:
    def _frozen(self, p, terms, arg_count=1, delays=None):
        return ScalarDelaySystem(p=p, c=1.0, majorant=PolynomialMajorant(terms, arg_count),
                                 forcing=0.0, delays=delays or DelaySpec.none(),
                                 history=HistoryFunction.constant([0.0]), t0=0.0)

    def test_cubic_basin_is_exact(self):
        estimate = frozen_scalar_radius(self._frozen(-2.0, (PolynomialTerm(1.0, (3,)),)),
                                        CRIT, 3.0)
        assert estimate.status == "analytic"
        assert estimate.value == estimate.lo == estimate.hi
        assert estimate.value == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert estimate.probes == ()

    def test_terms_collapse_by_total_degree(self):
        # 0.5 y(t-1) + 0.5 y^2 y(t-1) on the diagonal: -2q + 0.5q + 0.5q^3 = 0
        terms = (PolynomialTerm(0.5, (0, 1)), PolynomialTerm(0.5, (2, 1)))
        sys = self._frozen(-2.0, terms, 2, DelaySpec.constant([1.0]))
        assert frozen_scalar_radius(sys, CRIT, 3.0).value == pytest.approx(math.sqrt(3.0))

    def test_limits(self):
        linear = self._frozen(-2.0, (PolynomialTerm(1.0, (1,)),))
        estimate = frozen_scalar_radius(linear, CRIT, 3.0)
        assert (estimate.status, estimate.value) == ("unbracketed_above", 3.0)
        unstable = self._frozen(-1.0, (PolynomialTerm(1.0, (1,)), PolynomialTerm(1.0, (3,))))
        estimate = frozen_scalar_radius(unstable, CRIT, 3.0)
        assert (estimate.status, estimate.value) == ("empty_at_zero", 0.0)

    def test_time_varying_or_forced_systems_rejected(self):
        cubic = (PolynomialTerm(1.0, (3,)),)
        with pytest.raises(ValueError, match="constant"):
            frozen_scalar_radius(self._frozen(lambda t: -2.0, cubic), CRIT, 3.0)
        forced = replace(self._frozen(-2.0, cubic), forcing=ConstantFn(0.1))
        with pytest.raises(ValueError, match="no forcing"):
            frozen_scalar_radius(forced, CRIT, 3.0)

    def test_perturbed_cubic_is_exact(self):
        # -2q + 0.25 q(t - 0.5)^3 on the diagonal: the root is sqrt(8)
        bump = PolynomialMajorant((PolynomialTerm(0.25, (0, 3)),), 2)
        perturbed = build_perturbed_scalar(self._frozen(-2.0, ()), bump,
                                           DelaySpec.constant([0.5]))
        estimate = frozen_scalar_radius(perturbed, CRIT, 10.0)
        assert estimate.status == "analytic"
        assert estimate.value == pytest.approx(math.sqrt(8.0), rel=1e-14)

    def test_constant_term_rejected(self):
        # y' = -2y + 1e-3 + y^3 settles at a small positive level, so its
        # radius is not "empty at zero"
        offset = PolynomialMajorant((PolynomialTerm(1e-3, (0,)),), 1,
                                    allow_constant_terms=True)
        perturbed = build_perturbed_scalar(self._frozen(-2.0, (PolynomialTerm(1.0, (3,)),)),
                                           offset, DelaySpec.none())
        with pytest.raises(ValueError, match=r"constant \(degree-0\) terms"):
            frozen_scalar_radius(perturbed, CRIT, 3.0)

    def test_the_value_reads_below_zero_and_the_next_float_does_not(self):
        # the root is bisected in the frozen right side's arithmetic, so the
        # ball of that radius is a trap of the system as it is integrated
        from ddebound.cli import _bundled_config, assemble_pipeline
        bundled = [assemble_pipeline(_bundled_config(case)).autonomous_system.homogeneous()
                   for case in "ab"]
        for ss in (cubic_basin_scalar(), *bundled):
            q = frozen_scalar_radius(ss, CRIT, 10.0).value

            def reads(y, ss=ss):
                return ss.rhs(ss.t0, (y,), ((y,),) * ss.delays.count)[0]

            assert reads(q) < 0.0 <= reads(math.nextafter(q, math.inf))

    @pytest.mark.parametrize("case", ["a", "b"])
    @pytest.mark.parametrize("kind", ["bounded_on_horizon", "decaying_tail"])
    def test_root_inside_the_bisection_bracket(self, case, kind):
        # the frozen system of each bundled case, bisected as a test oracle
        from ddebound.cli import _bundled_config, assemble_pipeline
        cfg = _bundled_config(case)
        frozen = assemble_pipeline(cfg).autonomous_system.homogeneous()
        crit = BoundednessCriterion(kind=kind, cap=1e6)
        exact = frozen_scalar_radius(frozen, crit, cfg.analysis.q_max)
        bisected = estimate_scalar_radius(frozen, crit, cfg.analysis.q_max, tol=PROBE)
        assert exact.status == "analytic" and bisected.status == "bracketed"
        assert bisected.lo <= exact.value <= bisected.hi
        # each estimate holds the criterion that judged it
        assert exact.criterion is crit and bisected.criterion is crit


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

    def test_angle_count_must_be_positive(self):
        sys = symmetric_cubic_vector_system([0.1, 0.0])
        with pytest.raises(ValueError, match="angle_count"):
            estimate_vector_region(sys, CRIT, 3.0, tol=PROBE, angle_count=0)


class TestRegionProtocol:
    # (lo, hi, probe count) of the five angles of case a and its scalar
    # radius, each probe one `integrate` run; the autonomous radius is the
    # exact root, inside the bracket [3.30810546875, 3.310546875] it was
    # once bisected to
    EXPECTED = [(22.57080078125, 22.5830078125, 14), (6.353759765625, 6.35986328125, 15),
                (8.5205078125, 8.526611328125, 15), (11.407470703125, 11.41357421875, 15),
                (5.9295654296875, 5.9326171875, 16)]

    def _check(self, result):
        boundary, scalar, autonomous, inclusion = result
        assert [(r.lo, r.hi, len(r.probes)) for r in boundary.radii] == self.EXPECTED
        assert all(r.status == "bracketed" for r in boundary.radii)
        assert scalar.value == 3.685302734375
        assert autonomous.status == "analytic"
        assert autonomous.value == pytest.approx(3.3103661346, abs=1e-10)
        assert inclusion

    def test_probes_reproduce_the_expected_radii(self):
        from ddebound.cli import _bundled_config, fig2_protocol
        self._check(fig2_protocol(_bundled_config("a"), angle_count=5))

    @pytest.mark.parametrize("bisect_tol", [2.0, -0.05])
    def test_a_bisect_tol_outside_the_unit_interval_runs_no_probe(self, bisect_tol,
                                                                  monkeypatch):
        # bisect_tol = 2 once bracketed every angle by [0, 50] after two
        # probes, and -0.05 ran 42 probes per angle
        from ddebound import analysis
        from ddebound.cli import _bundled_config, fig2_protocol

        def refuse(system, horizon, tol=None):
            raise AssertionError("a probe ran")

        monkeypatch.setattr(analysis, "integrate", refuse)
        cfg = _bundled_config("a")
        cfg = replace(cfg, analysis=replace(cfg.analysis, bisect_tol=bisect_tol))
        with pytest.raises(ValueError, match=r"^bisect_tol must lie in \(0, 1\)"):
            fig2_protocol(cfg, angle_count=3)

    def test_a_failing_probe_is_bad_and_other_angles_keep_brackets(self, monkeypatch):
        from ddebound import analysis
        from ddebound.cli import _bundled_config, fig2_protocol

        # every run of the second angle (72 degrees, the only one with both
        # coordinates positive) fails once it leaves the origin
        def failing(system, horizon, tol=None):
            start = system.history.vector
            if start is not None and start.size == 2 and start[0] > 0.0 and start[1] > 0.0:
                raise IntegrationError("probe failed")
            return integrate(system, horizon, tol)

        monkeypatch.setattr(analysis, "integrate", failing)
        boundary, scalar, _autonomous, _inclusion = fig2_protocol(_bundled_config("a"),
                                                                  angle_count=5)
        failed = boundary.radii[1]
        assert [good for _q, good in failed.probes] == [False, True] + [False] * 40
        assert failed.lo == 0.0 and failed.status == "bracketed"
        others = [(r.lo, r.hi, len(r.probes)) for k, r in enumerate(boundary.radii) if k != 1]
        assert others == self.EXPECTED[:1] + self.EXPECTED[2:]
        assert scalar.value == 3.685302734375

    @staticmethod
    def _untrapped(cfg, angle_count):
        """The vector sweep and scalar search of `fig2_protocol` on ``cfg``,
        without a trap: every probe runs to the horizon."""
        from ddebound.cli import _search_settings, assemble_pipeline
        pipe = assemble_pipeline(cfg)
        criterion, probe_tol, duration = _search_settings(pipe)
        assert probe_tol.trap is None
        a = cfg.analysis
        homogeneous = replace(cfg.system, forcing_amplitude=0.0, forcing_shape=None)
        boundary = estimate_vector_region(homogeneous, criterion, a.r_max, a.bisect_tol,
                                          duration, probe_tol, angle_count=angle_count)
        scalar = estimate_scalar_radius(pipe.scalar_system.homogeneous(), criterion, a.q_max,
                                        a.bisect_tol, duration, probe_tol)
        return boundary, scalar

    @staticmethod
    def _log(boundary):
        return [(r.lo, r.hi, r.probes) for r in boundary.radii]

    def test_trapped_probes_leave_every_estimate_of_case_b_as_it_was(self):
        from ddebound.cli import _bundled_config, fig2_protocol
        cfg = _bundled_config("b")
        boundary, scalar, _autonomous, _inclusion = fig2_protocol(cfg, angle_count=40)
        full_boundary, full_scalar = self._untrapped(cfg, 40)
        assert self._log(boundary) == self._log(full_boundary)
        assert scalar.probes == full_scalar.probes
        trapped = sum(sum(r.steps) for r in boundary.radii)
        assert trapped < 0.5 * sum(sum(r.steps) for r in full_boundary.radii)
        assert sum(scalar.steps) < sum(full_scalar.steps)

    @pytest.mark.parametrize("criterion", ["bounded", "decaying"])
    def test_both_searches_get_the_frozen_trap_under_the_bounded_criterion(
            self, criterion, monkeypatch):
        from ddebound import analysis
        from ddebound.cli import _bundled_config, assemble_pipeline, fig2_protocol
        traps = set()

        def recorded(system, horizon, tol=None):
            traps.add((system.history.dim, tol.trap))
            return integrate(system, horizon, tol)

        monkeypatch.setattr(analysis, "integrate", recorded)
        cfg = _bundled_config("a")
        cfg = replace(cfg, analysis=replace(cfg.analysis, criterion=criterion))
        _boundary, _scalar, autonomous, _inclusion = fig2_protocol(cfg, angle_count=1)
        assert 3.3103 < autonomous.value
        expected = autonomous.value if criterion == "bounded" else None
        assert traps == {(1, expected), (2, expected)}

    def test_a_numerical_reduction_without_a_frozen_ball_runs_full_probes(self):
        # the frozen radius of perfbench/reduce.cfg is 0, so no search gets a trap
        from ddebound.cli import fig2_protocol
        from ddebound.config import load_config
        cfg = load_config("perfbench/reduce.cfg")
        boundary, scalar, autonomous, _inclusion = fig2_protocol(cfg, angle_count=1)
        full_boundary, full_scalar = self._untrapped(cfg, 1)
        assert autonomous.status == "empty_at_zero"
        assert scalar.probes == full_scalar.probes and scalar.steps == full_scalar.steps
        assert boundary.radii[0].steps == full_boundary.radii[0].steps

    def test_a_trap_above_the_true_radius_changes_the_estimates(self):
        # mutation check: a ball the solutions can leave calls bad probes good
        from ddebound.cli import _bundled_config, _search_settings, assemble_pipeline
        cfg = _bundled_config("a")
        pipe = assemble_pipeline(cfg)
        criterion, probe_tol, duration = _search_settings(pipe)
        a = cfg.analysis
        scalar = pipe.scalar_system.homogeneous()
        too_big = estimate_scalar_radius(scalar, criterion, a.q_max, a.bisect_tol, duration,
                                         replace(probe_tol, trap=4.0))
        assert too_big.value > 3.685302734375 + 0.3
        homogeneous = replace(cfg.system, forcing_amplitude=0.0, forcing_shape=None)
        boundary = estimate_vector_region(homogeneous, criterion, a.r_max, a.bisect_tol,
                                          duration, replace(probe_tol, trap=7.0),
                                          angle_count=5)
        assert [(r.lo, r.hi, len(r.probes)) for r in boundary.radii] != self.EXPECTED
        assert boundary.min_radius() > 6.99 > self.EXPECTED[4][1]
