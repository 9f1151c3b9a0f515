import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (DEFAULT, TIGHT, cubic_basin_scalar, delayed_decay_oracle,
                      delayed_decay_system, linear_ode_system, narrow_excursion)
from ddebound import (DelayProblem, DelaySpec, HistoryFunction, IntegrationError,
                      ScalarDelaySystem, ToleranceSettings, Trajectory, VectorDelaySystem,
                      integrate, integrate_batch, parse_expression)
from ddebound import dde_core
from ddebound.majorant import PolynomialMajorant
from ddebound.timefn import ConstantFn, locate_zeros
from ddebound.vectorfield import NonlinearTerm, PolynomialVectorField


class TestDelaySpec:
    def test_constant_bounds_exact(self):
        spec = DelaySpec.constant([0.5, 1.5])
        assert spec.h_bar == 1.5
        assert spec.h_under == 0.5

    def test_zero_delay_rejected(self):
        with pytest.raises(ValueError):
            DelaySpec.constant([0.0])

    def test_sampled_bounds(self):
        spec = DelaySpec.from_functions([parse_expression("1 + 0.5*sin(t)")], 0.0, 20.0)
        assert spec.h_under == pytest.approx(0.5, abs=1e-4)
        assert spec.h_bar == pytest.approx(1.5, abs=1e-4)

    def test_sampled_extremes_are_refined(self):
        # the narrow dip to 0.05 at t = 3.05 falls between two of the 512
        # samples, which alone give h_under = 0.0848
        dip = parse_expression("0.5 - 0.45*exp(-10000*(t-3.05)^2)")
        spec = DelaySpec.from_functions([dip], 0.0, 10.0)
        assert spec.h_under == pytest.approx(0.05, abs=1e-12)
        assert spec.h_bar == 0.5
        bump = parse_expression("1 + 0.45*exp(-10000*(t-3.05)^2)")
        assert DelaySpec.from_functions([bump], 0.0, 10.0).h_bar == pytest.approx(1.45,
                                                                                 abs=1e-12)

    def test_nonpositive_sampled_delay_rejected(self):
        with pytest.raises(ValueError):
            DelaySpec.from_functions([parse_expression("sin(t)")], 0.0, 10.0)

    def test_validate_on_catches_out_of_band_values(self):
        bad = DelaySpec((lambda t: 2.0,), h_bar=1.0, h_under=1.0)
        with pytest.raises(ValueError):
            bad.validate_on(0.0, 5.0)


class TestHistoryFunction:
    def test_constant(self):
        hist = HistoryFunction.constant([1.0, 2.0])
        assert np.array_equal(hist(-0.3), [1.0, 2.0])
        assert hist.dim == 2

    def test_expressions(self):
        hist = HistoryFunction.from_expressions([parse_expression("exp(t)"),
                                                 parse_expression("t")])
        assert hist(-1.0)[0] == pytest.approx(math.exp(-1.0))
        assert hist(-1.0)[1] == -1.0

    def test_samples_interpolate_linearly(self):
        hist = HistoryFunction.from_samples([-1.0, 0.0], [[0.0, 2.0], [1.0, 4.0]])
        assert np.allclose(hist(-0.5), [0.5, 3.0])
        with pytest.raises(IntegrationError):
            hist(-2.0)

    def test_norm_history_matches_exactly(self):
        hist = HistoryFunction.from_expressions([parse_expression("sin(t)"),
                                                 parse_expression("cos(2*t)")])
        scalar = hist.norm()
        for t in np.linspace(-1.0, 0.0, 100):
            assert scalar(float(t))[0] == np.linalg.norm(hist(float(t)))


class TestIntegrate:
    def test_zero_field_constant(self):
        sys = VectorDelaySystem(dim=2, A=None, f=None, forcing_amplitude=0.0,
                                forcing_shape=None, delays=DelaySpec.none(),
                                history=HistoryFunction.constant([1.0, 2.0]), t0=0.0)
        traj = integrate(sys, 5.0, DEFAULT)
        for t in (0.0, 1.7, 5.0):
            assert np.array_equal(traj.eval(t), [1.0, 2.0])

    def test_hand_derived_piecewise_polynomial(self):
        traj = integrate(delayed_decay_system(), 3.0, TIGHT)
        assert traj.eval(1.0)[0] == pytest.approx(0.0, abs=1e-9)
        assert traj.eval(2.0)[0] == pytest.approx(-0.5, abs=1e-9)
        grid = np.linspace(0.0, 3.0, 601)
        err = max(abs(traj.eval(float(t))[0] - delayed_decay_oracle(float(t)))
                  for t in grid)
        assert err < 1e-6

    def test_convergence_order_of_embedded_pair(self):
        # same delayed equation with an exponential history: the solution is
        # not piecewise polynomial, so truncation error is visible.  Fixed
        # steps (every step accepted at the loose tolerance) that land on the
        # walls t = 1, 2: each halving of h must cut both the node error and
        # the error of the continuous extension inside the steps by ~2^5
        hist = HistoryFunction.from_expressions([parse_expression("exp(t)")])
        sys = delayed_decay_system(history=hist)

        def oracle(t):
            if t <= 1.0:
                return 1.0 + math.exp(-1.0) - math.exp(t - 1.0)
            return -(1.0 + math.exp(-1.0)) * (t - 1.0) + math.exp(t - 2.0)

        node_errors, dense_errors = [], []
        for h in (1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0):
            traj = integrate(sys, 2.0, ToleranceSettings(rtol=1e-1, atol=1e-1,
                                                         first_step=h, max_step=h))
            assert np.allclose(np.diff(traj.ts), h, rtol=0.0, atol=1e-15)
            node_errors.append(max(abs(y[0] - oracle(float(t)))
                                   for t, y in zip(traj.ts, traj.ys)))
            inner = traj.ts[:-1] + 0.3 * h
            dense_errors.append(float(np.max(np.abs(
                traj.eval_grid(inner)[:, 0] - np.array([oracle(float(t)) for t in inner])))))
        for errors in (node_errors, dense_errors):
            assert errors[0] / errors[1] >= 24.0
            assert errors[1] / errors[2] >= 24.0

    def test_steps_never_exceed_minimal_delay(self):
        traj = integrate(delayed_decay_system(), 3.0, DEFAULT)
        assert np.max(np.diff(traj.ts)) <= 1.0 + 1e-12

    def test_deterministic_bitwise(self):
        a = integrate(delayed_decay_system(), 3.0, DEFAULT)
        b = integrate(delayed_decay_system(), 3.0, DEFAULT)
        assert np.array_equal(a.ts, b.ts)
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_lookup_past_the_accepted_solution_raises(self):
        # the 10,000 delay samples miss the dip to 0.05 at t = 3.4, so h_under
        # is 0.5 and the stage at t = 3.4 reads y(3.35) while the accepted
        # solution ends at t = 3
        delay = parse_expression("0.5 - 0.45*exp(-((t-3.4)/1e-6)^2)")
        spec = DelaySpec.from_functions([delay], 0.0, 10.0)
        assert spec.h_under == 0.5
        problem = DelayProblem(lambda t, y, z: -z[0], spec,
                               HistoryFunction.constant([1.0]), 0.0)
        tol = ToleranceSettings(rtol=0.1, atol=0.1, first_step=0.5, max_step=0.5)
        with pytest.raises(IntegrationError, match="past the accepted solution") as err:
            integrate(problem, 10.0, tol)
        assert err.value.time == pytest.approx(3.35)

    def test_lookup_at_the_last_node_is_legal(self):
        # steps as long as the delay read the last accepted node itself
        tol = ToleranceSettings(rtol=0.1, atol=0.1, first_step=1.0, max_step=1.0)
        traj = integrate(delayed_decay_system(), 3.0, tol)
        assert traj.ts.tolist() == [0.0, 1.0, 2.0, 3.0]
        for t in (1.0, 2.0, 3.0):
            assert traj.eval(t)[0] == pytest.approx(delayed_decay_oracle(t), abs=1e-12)

    def test_continuity_at_segment_junctions(self):
        traj = integrate(delayed_decay_system(), 3.0, DEFAULT)
        eps = 1e-10
        for tk in traj.ts[1:-1]:
            tk = float(tk)
            left = traj.eval(tk - eps)[0]
            right = traj.eval(tk + eps)[0]
            assert abs(left - right) < 1e-5

    def test_horizon_must_exceed_start(self):
        with pytest.raises(ValueError):
            integrate(delayed_decay_system(), -1.0, DEFAULT)

    def test_history_not_covering_delay_interval(self):
        hist = HistoryFunction.from_samples([-0.5, 0.0], [[1.0], [1.0]])
        sys = delayed_decay_system(history=hist)   # needs [-1, 0]
        with pytest.raises(ValueError):
            integrate(sys, 2.0, DEFAULT)

    def test_problem_without_history_needs_start_value_and_no_delays(self):
        rhs = lambda t, y, z: -y
        problem = DelayProblem(rhs, DelaySpec.none(), None, 0.0, y0=np.array([1.0]))
        assert problem.problem(1.0) is problem
        assert integrate(problem, 1.0, TIGHT).eval(1.0)[0] == pytest.approx(math.exp(-1.0))
        with pytest.raises(ValueError):
            DelayProblem(rhs, DelaySpec.none(), None, 0.0)
        with pytest.raises(ValueError):
            DelayProblem(rhs, DelaySpec.constant([1.0]), None, 0.0, y0=np.array([1.0]))

    def test_step_underflow_raises_with_time(self):
        def rhs(t, y, z):
            if t > 0.5:
                return np.array([math.nan])
            return np.array([1.0])

        sys = DelayProblem(rhs, DelaySpec.none(), HistoryFunction.constant([0.0]), 0.0)
        with pytest.raises(IntegrationError) as err:
            integrate(sys, 2.0, DEFAULT)
        assert err.value.time == pytest.approx(0.5, abs=1e-6)

    def test_nonlinearity_must_vanish_at_origin(self):
        poly = PolynomialVectorField(1, 0, [(0, 1.0, [(0, 0, 1)])])

        class Shifted(NonlinearTerm):
            def __call__(self, t, x, delayed):
                return super().__call__(t, x, delayed) + 0.5

        sys = VectorDelaySystem(dim=1, A=None, f=Shifted(1, 0, poly),
                                forcing_amplitude=0.0, forcing_shape=None,
                                delays=DelaySpec.none(),
                                history=HistoryFunction.constant([1.0]), t0=0.0)
        with pytest.raises(ValueError):
            integrate(sys, 1.0, DEFAULT)


class TestEvalTrajectory:
    def test_grid_matches_pointwise_evaluation(self):
        traj = integrate(delayed_decay_system(), 3.0, DEFAULT)
        grid = np.concatenate([np.linspace(0.0, 3.0, 397), traj.ts])
        batch = traj.eval_grid(grid)
        for t, row in zip(grid, batch):
            assert np.array_equal(row, traj.eval(float(t)))
        assert np.array_equal(traj.eval_grid(traj.ts), traj.ys)
        assert np.array_equal(traj.norm_grid(grid), np.abs(batch[:, 0]))
        with pytest.raises(ValueError):
            traj.eval_grid(np.array([0.0, 3.5]))

    def test_node_values_exact(self):
        traj = integrate(delayed_decay_system(), 3.0, DEFAULT)
        for k in range(len(traj.ts)):
            assert traj.eval(float(traj.ts[k]))[0] == traj.ys[k][0]

    def test_midpoint_of_linear_segment(self):
        traj = integrate(delayed_decay_system(), 3.0, TIGHT)
        assert traj.eval(0.5)[0] == pytest.approx(0.5, abs=1e-9)

    def test_outside_domain_raises(self):
        traj = integrate(delayed_decay_system(), 3.0, DEFAULT)
        with pytest.raises(ValueError):
            traj.eval(3.5)
        with pytest.raises(ValueError):
            traj.eval(-0.1)

    def test_crossings_of_a_level(self):
        sine = DelayProblem(lambda t, y, delayed: np.array([math.cos(t)]),
                            DelaySpec.none(), None, y0=np.array([0.0]))
        traj = integrate(sine, 2.0 * math.pi, ToleranceSettings(rtol=1e-10, atol=1e-12))
        crossings = traj.crossings(0.5, 0.0, 2.0 * math.pi)
        exact = np.array([1.0, 5.0, 7.0, 11.0]) * math.pi / 6.0
        assert crossings.shape == exact.shape
        assert np.all(np.diff(crossings) > 0.0)
        assert np.max(np.abs(crossings - exact)) < 1e-8
        assert traj.crossings(0.5, 1.0, 3.0).size == 1
        assert traj.crossings(2.0, 0.0, 2.0 * math.pi).size == 0

    def test_inverted_window_is_refused(self):
        # the norm of x' = x from 0.9 is above 2 on all of [1, 3]
        traj = integrate(linear_ode_system(1.0, 0.9), 3.0, TIGHT)
        assert traj.first_crossing(2.0, 1.0, 3.0) == 1.0
        with pytest.raises(ValueError, match="empty interval"):
            traj.first_crossing(2.0, 3.0, 1.0)
        with pytest.raises(ValueError, match="empty interval"):
            traj.crossings(2.0, 3.0, 1.0)

    def test_window_slack_is_clipped(self):
        traj = integrate(linear_ode_system(-1.0, 0.9), 5.0, TIGHT)
        assert traj.covers(-5e-13, 5.0 + 5e-13) and not traj.covers(0.0, 5.0 + 5e-10)
        assert traj.sup_norm(5.0 + 5e-13, 5.0 + 5e-13) == traj.norm_at(5.0)
        with pytest.raises(ValueError, match="leaves the trajectory domain"):
            traj.sup_norm(0.0, 5.0 + 5e-10)

    def test_blown_up_trajectory_end_state_finite(self):
        sys = cubic_basin_scalar(q=5.0)   # far outside the basin
        traj = integrate(sys, 50.0, ToleranceSettings(rtol=1e-6, atol=1e-9, cap=1e6))
        assert traj.blew_up
        end_state = traj.eval(traj.t_end)
        assert np.all(np.isfinite(end_state))
        assert np.linalg.norm(end_state) == pytest.approx(1e6, rel=1e-2)


class TestSupNorm:
    def test_constant_trajectory(self):
        sys = VectorDelaySystem(dim=2, A=None, f=None, forcing_amplitude=0.0,
                                forcing_shape=None, delays=DelaySpec.none(),
                                history=HistoryFunction.constant([1.0, 2.0]), t0=0.0)
        traj = integrate(sys, 4.0, DEFAULT)
        assert traj.sup_norm(0.0, 4.0) == pytest.approx(math.sqrt(5.0))

    def test_decaying_delayed_solution(self):
        traj = integrate(delayed_decay_system(), 2.0, TIGHT)
        assert traj.sup_norm(0.0, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_blown_up_trajectory_reaches_cap(self):
        traj = integrate(cubic_basin_scalar(q=5.0), 50.0,
                         ToleranceSettings(rtol=1e-6, atol=1e-9, cap=1e6))
        assert traj.sup_norm(traj.t_start, traj.t_end) >= 1e6 * 0.99

    def test_guards(self):
        traj = integrate(delayed_decay_system(), 2.0, DEFAULT)
        with pytest.raises(ValueError):
            traj.sup_norm(1.0, 0.5)

    def test_excursion_between_grid_points(self):
        # above 1 only on (0.300025, 0.300225), peaking at 1 + delta with
        # delta = 0.05 * 1e-8 * 0.500125^2; a 512-point grid and its zoom
        # read 0.99999999987
        traj = narrow_excursion(1.0, 0.300125, 1e-4, 0.8)
        assert traj.sup_norm() >= 1.0
        assert traj.sup_norm() == pytest.approx(1.0 + 0.05e-8 * 0.500125 ** 2, abs=1e-12)
        assert traj.sup_norm(0.0, 0.3) < 1.0

    def test_window_ends_are_read(self):
        # x' = x grows, so its sup is the window's end; |y| of y' = -y(t-1)
        # falls from 0.5 at t = 0.5 to 0 at t = 1, then rises to 0.375 at 1.5
        traj = integrate(linear_ode_system(1.0, 0.9), 3.0, TIGHT)
        assert traj.sup_norm(1.0, 2.0) == traj.norm_at(2.0)
        assert traj.sup_norm() == traj.norm_at(3.0)
        decay = integrate(delayed_decay_system(), 3.0, TIGHT)
        assert decay.sup_norm(0.5, 1.5) == decay.norm_at(0.5)
        assert decay.sup_norm(2.0, 2.0) == decay.norm_at(2.0)

    def test_peak_on_an_inner_node_is_read(self):
        # a tent through (1, 1): no step has a critical point inside it
        tent = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0], [0.0]]),
                          np.array([[[1.0], [0.0], [0.0], [0.0]],
                                    [[-1.0], [0.0], [0.0], [0.0]]]), 2.0)
        assert tent.sup_norm() == 1.0
        assert tent.sup_norm(0.5, 1.5) == 1.0

    def test_bernstein_screen_bounds_random_quartics(self):
        # the step bound is at least the quartic's norm on a fine grid and at
        # most the triangle bound | |y_k| + sum_j |q_kj| |
        rng = np.random.default_rng(12)
        steps, dim = 400, 3
        ys = rng.normal(0.0, 1.0, (steps + 1, dim)) * rng.uniform(1e-3, 1e3, (steps + 1, 1))
        coeffs = rng.normal(0.0, 1.0, (steps, 4, dim)) * rng.uniform(1e-3, 1e3, (steps, 1, 1))
        traj = Trajectory(np.arange(steps + 1.0), ys, coeffs, float(steps))
        bound = traj._step_bounds(0, steps)
        theta = np.linspace(0.0, 1.0, 10_001)[:, None, None]
        values = dde_core._dense(ys[:-1], np.moveaxis(coeffs, 1, 0), theta)
        peak = np.linalg.norm(values, axis=2).max(axis=0)
        triangle = np.linalg.norm(np.abs(ys[:-1]) + np.abs(coeffs).sum(axis=1), axis=1)
        assert np.all(bound >= peak)
        assert np.all(bound <= triangle)
        assert np.mean(bound < 0.9 * triangle) > 0.5

    def test_bernstein_screen_passes_few_steps_of_an_oscillation(self):
        # y' = -y(t-2) oscillates with growing amplitude; the screen of the
        # last stretch passes only the steps near its peak
        osc = integrate(DelayProblem(lambda t, y, z: -z[0], DelaySpec.constant([2.0]),
                                     HistoryFunction.constant([1.0])), 30.0, TIGHT)
        lo, hi, first, last = osc._window(20.0, 30.0)
        best = float(np.max(osc.norm_grid(np.linspace(lo, hi, 1001))))
        passed = np.count_nonzero(osc._step_bounds(first, last) * (1.0 + dde_core._SCREEN_SLACK)
                                  > best)
        triangle = np.linalg.norm(np.abs(osc.ys[first:last])
                                  + np.abs(osc.coeffs[first:last]).sum(axis=1), axis=1)
        assert passed < np.count_nonzero(triangle > best)

    def test_interior_maxima_match_a_fine_grid(self):
        # an elliptic spiral and the growing oscillation of y' = -y(t-2)
        # peak inside their steps
        def ellipse(t, y, z):
            return np.array([y[1], -4.0 * y[0] - 0.1 * y[1]])

        spiral = integrate(DelayProblem(ellipse, DelaySpec.none(),
                                        HistoryFunction.constant([1.0, 0.0])), 10.0, TIGHT)
        osc = integrate(DelayProblem(lambda t, y, z: -z[0], DelaySpec.constant([2.0]),
                                     HistoryFunction.constant([1.0])), 30.0, TIGHT)
        for traj, lo, hi in ((spiral, 0.1, 10.0), (osc, 3.0, 30.0), (osc, 10.0, 12.5)):
            grid = np.linspace(lo, hi, 20_001)
            norms = traj.norm_grid(grid)
            k = int(np.argmax(norms))
            zoom = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], 20_001)
            sup = traj.sup_norm(lo, hi)
            assert sup >= norms[k]
            assert sup == pytest.approx(float(np.max(traj.norm_grid(zoom))), rel=1e-13)


class TestDetectBlowup:
    """Blow-up detection: the first time the dense output reads the cap."""

    def test_cap_crossing_is_the_first_root(self):
        # y(theta) = 1e3 - 1e4 (theta-0.01)(theta-0.02)(theta-0.5)(theta-0.9)
        # exceeds the cap on the narrow window (0.01, 0.02) and again from 0.5
        poly = -1e4 * np.poly([0.01, 0.02, 0.5, 0.9])[::-1]    # ascending
        poly[0] += 1e3
        crossing = dde_core._locate_cap_crossing(0.0, 1.0, poly[:1], poly[1:, None],
                                                 1e3, 0.0, 0.7)
        assert crossing == pytest.approx(0.01, abs=1e-12)
        # from 0.015 the window starts above the cap; on [0.03, 0.45] it stays below
        assert dde_core._locate_cap_crossing(0.0, 1.0, poly[:1], poly[1:, None],
                                             1e3, 0.015, 0.7) == 0.015
        assert dde_core._locate_cap_crossing(0.0, 1.0, poly[:1], poly[1:, None],
                                             1e3, 0.03, 0.45) is None

    def test_decaying_is_bounded(self):
        traj = integrate(linear_ode_system(-1.0, 1.0), 10.0, DEFAULT)
        assert traj.first_crossing(1e6) is None

    def test_quadratic_blowup_before_one(self):
        poly = PolynomialVectorField(1, 0, [(0, 1.0, [(0, 0, 2)])])
        sys = VectorDelaySystem(dim=1, A=None, f=NonlinearTerm(1, 0, poly),
                                forcing_amplitude=0.0, forcing_shape=None,
                                delays=DelaySpec.none(),
                                history=HistoryFunction.constant([2.0]), t0=0.0)
        traj = integrate(sys, 2.0, ToleranceSettings(rtol=1e-6, atol=1e-9, cap=1e6))
        assert traj.blew_up
        assert traj.first_crossing(1e6) == traj.blow_time
        assert traj.blow_time < 1.0
        assert traj.blow_time == pytest.approx(0.5, abs=1e-3)

    def test_lower_cap_found_inside_segments(self):
        traj = integrate(linear_ode_system(1.0, 1.0), 5.0,
                         ToleranceSettings(rtol=1e-8, atol=1e-12, cap=1e9))
        crossing = traj.first_crossing(math.e)     # e^t reaches e at t = 1
        assert crossing == pytest.approx(1.0, abs=1e-5)
        assert traj.norm_at(crossing) >= math.e
        assert traj.first_crossing(math.e, 0.0, 0.9) is None
        assert traj.first_crossing(math.e, 2.0, 3.0) == 2.0     # above from the start

    def test_window_ending_on_a_node_reads_the_node(self):
        # the step's quartic y = 0.5 theta ends at 0.5; eval reads the node, 1.0
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]),
                          np.array([[[0.5], [0.0], [0.0], [0.0]]]), 1.0)
        assert traj.first_crossing(0.75) == 1.0
        assert traj.first_crossing(0.25) == 0.5
        assert traj.first_crossing(0.75, 0.0, 0.9) is None


class TestKinks:
    def test_zeros_of_crossing_and_touching_functions(self):
        exact = np.arange(160) * math.pi / 10.0
        for text in ("sin(10*t)", "abs(sin(10*t))"):
            zeros = locate_zeros(parse_expression(text).compiled(), 0.0, 50.0)
            assert len(zeros) == 160
            assert np.max(np.abs(np.array(zeros) - exact)) < 1e-12

    def test_no_zeros_of_positive_or_constant_functions(self):
        assert locate_zeros(lambda t: 1.0 + 0.5 * math.sin(t), 0.0, 50.0) == []
        assert locate_zeros(ConstantFn(0.0), 0.0, 50.0) == []

    def test_kinks_are_nodes_of_the_bound(self):
        from ddebound.cli import _bundled_config, assemble_pipeline

        system = assemble_pipeline(_bundled_config("a")).scalar_system
        kinks = system.problem(50.0).kinks
        assert len(kinks) == 160
        traj = integrate(system, 50.0, ToleranceSettings(rtol=1e-6, atol=1e-9))
        inner = [k for k in kinks if 0.0 < k < 50.0]
        assert np.all(np.isin(inner, traj.ts))

    def test_bound_stays_high_order(self):
        # the 2(3) stepper took 10,913 steps here; a 5(4) pair that loses
        # its order at the kinks would take several thousand again
        from ddebound.cli import _bundled_config, assemble_pipeline

        system = assemble_pipeline(_bundled_config("a")).scalar_system
        traj = integrate(system, 50.0, ToleranceSettings(rtol=1e-6, atol=1e-9))
        assert len(traj.ts) - 1 < 3000


class TestScalarSystemGuards:
    def test_negative_history_rejected(self):
        sys = cubic_basin_scalar().with_constant_history(-0.1)
        with pytest.raises(ValueError):
            integrate(sys, 1.0, DEFAULT)

    def test_narrow_negative_dip_in_the_history_rejected(self):
        # below zero only within 1.35e-4 of t = -0.5, between two of 256
        # samples of [-1, 0] but within reach of the 10,000-point grid
        dip = parse_expression("0.5 - 0.6*exp(-10000000*(t+0.5)^2)")
        sys = ScalarDelaySystem(p=-1.0, c=1.0, majorant=PolynomialMajorant.zero(2),
                                forcing=0.0, delays=DelaySpec.constant([1.0]),
                                history=HistoryFunction.from_expressions([dip]), t0=0.0)
        with pytest.raises(ValueError, match="scalar history must be nonnegative"):
            sys.problem(5.0)

    def test_condition_coefficient_below_one_rejected(self):
        sys = ScalarDelaySystem(p=-1.0, c=0.5, majorant=PolynomialMajorant.zero(1),
                                forcing=0.0, delays=DelaySpec.none(),
                                history=HistoryFunction.constant([0.1]), t0=0.0)
        with pytest.raises(ValueError):
            integrate(sys, 1.0, DEFAULT)

    def test_coefficient_horizon_enforced(self):
        sys = ScalarDelaySystem(p=-1.0, c=1.0, majorant=PolynomialMajorant.zero(1),
                                forcing=0.0, delays=DelaySpec.none(),
                                history=HistoryFunction.constant([0.1]), t0=0.0,
                                coeff_horizon=2.0)
        with pytest.raises(ValueError):
            integrate(sys, 5.0, DEFAULT)
        integrate(sys, 2.0, DEFAULT)


PROBE = ToleranceSettings(rtol=1e-4, atol=1e-8, cap=1e6)


def _case_a_homogeneous():
    from ddebound.cli import _bundled_config, assemble_pipeline
    vs = assemble_pipeline(_bundled_config("a")).vector_system
    return replace(vs, forcing_amplitude=0.0, forcing_shape=None)


class TestIntegrateBatch:
    @pytest.mark.parametrize("radius", [10.0, 50.0])
    def test_one_member_batch_equals_integrate(self, radius):
        vs = _case_a_homogeneous()
        history = HistoryFunction.constant([radius, 0.0])
        alone = integrate(replace(vs, history=history), 50.0, PROBE)
        (member,) = integrate_batch(vs, [history], 50.0, PROBE)
        assert alone.blew_up == (radius == 50.0)
        for name in ("ts", "ys", "coeffs"):
            assert np.array_equal(getattr(member, name), getattr(alone, name)), name
        assert member.t_end == alone.t_end
        assert member.blew_up == alone.blew_up

    def test_mixed_batch_matches_single_runs(self):
        # angle 0 of case a: the radius lies in [22.5708, 22.5830], so the
        # batch holds survivors and members that reach the cap at different times
        vs = _case_a_homogeneous()
        radii = [0.0, 10.0, 22.5, 22.6, 50.0]
        histories = [HistoryFunction.constant([r, 0.0]) for r in radii]
        batch = integrate_batch(vs, histories, 50.0, PROBE)
        grid = np.linspace(0.0, 50.0, 2001)
        for r, history, member in zip(radii, histories, batch):
            alone = integrate(replace(vs, history=history), 50.0, PROBE)
            assert member.blew_up == alone.blew_up, r
            assert member.history is history
            if alone.blew_up:
                assert member.blow_time == pytest.approx(alone.blow_time, rel=1e-3)
            else:
                expected = alone.norm_grid(grid)
                gap = np.max(np.abs(member.norm_grid(grid) - expected))
                assert gap <= 100 * PROBE.rtol * max(np.max(expected), 1e-300), r
        assert [m.blew_up for m in batch] == [False, False, False, True, True]

    def test_idle_members_do_not_loosen_the_step_control(self):
        # members resting at zero have zero error: the step sequence is the
        # lone member's (an average over the members would stretch it)
        problem = DelayProblem(lambda t, y, z: y * math.cos(t), DelaySpec.none(),
                               HistoryFunction.constant([1.0]), 0.0)
        tol = ToleranceSettings(rtol=1e-6, atol=1e-9, first_step=0.01)
        alone = integrate(problem, 20.0, tol)
        *idle, member = integrate_batch(
            problem, [HistoryFunction.constant([0.0])] * 3 + [problem.history], 20.0, tol)
        assert abs(len(member.ts) - len(alone.ts)) <= 1
        grid = np.linspace(0.0, 20.0, 401)
        assert np.allclose(member.eval_grid(grid)[:, 0], np.exp(np.sin(grid)), rtol=1e-4)
        assert all(not np.any(m.ys) for m in idle)

    def test_member_frozen_at_the_step_floor_leaves_the_rest_running(self):
        # the right side fails for y >= 5, so the first member runs into the
        # step floor at t = 4 with a norm above 0.01 * cap; the second one
        # stays at zero and must still reach the horizon
        def rhs(t, y, z):
            return np.where(y >= 5.0, np.nan, 1.0 * (y > 0.0))

        problem = DelayProblem(rhs, DelaySpec.none(), HistoryFunction.constant([1.0]), 0.0)
        tol = ToleranceSettings(rtol=1e-6, atol=1e-9, cap=100.0)
        alone = integrate(problem, 10.0, tol)
        stuck, running = integrate_batch(
            problem, [HistoryFunction.constant([1.0]), HistoryFunction.constant([0.0])],
            10.0, tol)
        assert alone.blew_up and stuck.blew_up
        assert stuck.blow_time == pytest.approx(alone.blow_time, abs=1e-9)
        assert stuck.t_end == stuck.ts[-1]
        assert not running.blew_up
        assert running.t_end == 10.0
        assert running.eval(10.0)[0] == 0.0

    def test_right_side_of_the_wrong_shape_is_rejected_before_the_first_step(self,
                                                                            monkeypatch):
        calls = []
        lone_rhs = ScalarDelaySystem.rhs

        def counted(self, t, y, delayed):
            calls.append(t)
            return lone_rhs(self, t, y, delayed)

        monkeypatch.setattr(ScalarDelaySystem, "rhs", counted)
        histories = [HistoryFunction.constant([0.1]), HistoryFunction.constant([0.2])]
        with pytest.raises(ValueError, match="shape"):
            integrate_batch(cubic_basin_scalar(), histories, 5.0, DEFAULT)
        assert calls == [0.0]

    def test_batch_inputs_are_checked(self):
        one = HistoryFunction.constant([1.0])
        short = HistoryFunction.from_samples([-0.5, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="cover"):
            integrate_batch(delayed_decay_system(), [one, short], 3.0, DEFAULT)
        with pytest.raises(ValueError, match="dimension"):
            integrate_batch(delayed_decay_system(),
                            [one, HistoryFunction.constant([1.0, 2.0])], 3.0, DEFAULT)
        with pytest.raises(ValueError, match="at least one"):
            integrate_batch(delayed_decay_system(), [], 3.0, DEFAULT)
        jump = DelayProblem(lambda t, y, z: -y, DelaySpec.none(), None, 0.0,
                            y0=np.array([1.0]))
        with pytest.raises(ValueError, match="start value"):
            integrate_batch(jump, [one], 3.0, DEFAULT)


class TestConcurrentIntegrations:
    def test_shared_system_is_safe_across_threads(self):
        # systems are immutable and shareable: concurrent integrations of one
        # instance (whose bound coefficients share a memoized matrix norm)
        # must reproduce the sequential result bit for bit
        from concurrent.futures import ThreadPoolExecutor
        from ddebound.cli import _bundled_config, assemble_pipeline

        system = assemble_pipeline(_bundled_config("a")).scalar_system
        tol = ToleranceSettings(rtol=1e-5, atol=1e-8)
        reference = integrate(system, 10.0, tol)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(integrate, system, 10.0, tol) for _ in range(8)]
            results = [f.result() for f in futures]
        for traj in results:
            assert np.array_equal(traj.ts, reference.ts)
            assert np.array_equal(traj.ys, reference.ys)
