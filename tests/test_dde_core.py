import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import (DEFAULT, TIGHT, cubic_basin_scalar, delayed_decay_oracle,
                      delayed_decay_system, linear_ode_system, narrow_excursion)
from ddebound import (DelayProblem, DelaySpec, HistoryFunction, IntegrationError,
                      ScalarDelaySystem, ToleranceSettings, Trajectory, VectorDelaySystem,
                      integrate, on_arrays, parse_expression)
from ddebound import dde_core
from ddebound.majorant import PolynomialMajorant
from ddebound.linalg import MatrixFunction, VectorFunction
from ddebound.timefn import ConstantFn, locate_zeros
from ddebound.vectorfield import NonlinearTerm, PolynomialVectorField


class TestDelaySpec:
    def test_constant_bounds_exact(self):
        h_bar, h_under = DelaySpec.constant([0.5, 1.5]).bounds(0.0, 5.0)
        assert h_bar == 1.5
        assert h_under == 0.5

    def test_zero_delay_rejected(self):
        with pytest.raises(ValueError):
            DelaySpec.constant([0.0])

    def test_sampled_bounds(self):
        spec = DelaySpec.from_functions([parse_expression("1 + 0.5*sin(t)")])
        h_bar, h_under = spec.bounds(0.0, 20.0)
        assert h_under == pytest.approx(0.5, abs=1e-4)
        assert h_bar == pytest.approx(1.5, abs=1e-4)

    def test_sampled_extremes_are_refined(self):
        # the narrow dip to 0.05 at t = 3.05 falls between two of the 512
        # samples, which alone give h_under = 0.0848
        dip = parse_expression("0.5 - 0.45*exp(-10000*(t-3.05)^2)")
        h_bar, h_under = DelaySpec.from_functions([dip]).bounds(0.0, 10.0)
        assert h_under == pytest.approx(0.05, abs=1e-12)
        assert h_bar == 0.5
        bump = parse_expression("1 + 0.45*exp(-10000*(t-3.05)^2)")
        assert DelaySpec.from_functions([bump]).bounds(0.0, 10.0)[0] == pytest.approx(
            1.45, abs=1e-12)

    def test_nonpositive_sampled_delay_rejected(self):
        with pytest.raises(ValueError):
            DelaySpec.from_functions([parse_expression("sin(t)")]).bounds(0.0, 10.0)

    def test_band_is_read_on_the_given_interval(self):
        spec = DelaySpec.from_functions([parse_expression("0.5 + 0.1*t")])
        assert spec.bounds(0.0, 5.0) == (1.0, 0.5)
        assert spec.bounds(0.0, 10.0) == (1.5, 0.5)

    def test_no_delays(self):
        assert DelaySpec.none().bounds(0.0, 5.0) == (0.0, math.inf)

    def test_constant_delays_are_read_off_their_values(self, monkeypatch):
        varying = parse_expression("1 + 0.5*sin(t)")
        sampled = DelaySpec.from_functions([varying]).bounds(0.0, 20.0)

        def refuse(*args):
            raise AssertionError("a constant delay was sampled")

        monkeypatch.setattr(dde_core, "sample", refuse)
        assert DelaySpec.constant([0.7, 0.3, 1.1]).bounds(0.0, 5.0) == (1.1, 0.3)
        monkeypatch.undo()
        # beside a delay that varies, a constant one is not sampled either
        assert DelaySpec.from_functions([0.75, varying]).bounds(0.0, 20.0) == sampled
        assert DelaySpec.from_functions([2.0, varying, 0.25]).bounds(0.0, 20.0) == (2.0, 0.25)


class TestToleranceSettings:
    @pytest.mark.parametrize("field", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-6])
    def test_tolerances_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            ToleranceSettings(**{field: value})

    def test_cap_may_be_infinite_but_not_nan(self):
        assert ToleranceSettings(cap=math.inf).cap == math.inf
        with pytest.raises(ValueError, match="cap"):
            ToleranceSettings(cap=math.nan)

    @pytest.mark.parametrize("trap", [math.nan, math.inf, 0.0, -1.0, 1e6, 2e6])
    def test_trap_must_be_positive_finite_and_below_the_cap(self, trap):
        with pytest.raises(ValueError, match="trap must be positive, finite and below"):
            ToleranceSettings(cap=1e6, trap=trap)
        assert ToleranceSettings(cap=math.inf, trap=1e300).trap == 1e300

    @pytest.mark.parametrize("field", ["first_step", "max_step"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -0.1])
    def test_step_settings_must_be_positive(self, field, value):
        # at a NaN first step the run would spin toward the step budget
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ToleranceSettings(**{field: value})

    @pytest.mark.parametrize("field", ["first_step", "max_step"])
    def test_step_settings_may_be_infinite(self, field):
        problem = DelayProblem(on_arrays(lambda t, y, z: -y), DelaySpec.none(),
                               HistoryFunction.constant([1.0]), 0.0)
        traj = integrate(problem, 1.0, ToleranceSettings(**{field: math.inf}))
        assert traj.eval(1.0)[0] == pytest.approx(math.exp(-1.0), rel=1e-5)


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
            assert scalar(float(t))[0] == dde_core._norm(hist(float(t)))


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
        spec = DelaySpec.from_functions([delay])
        assert spec.bounds(0.0, 10.0)[1] == 0.5
        problem = DelayProblem(on_arrays(lambda t, y, z: -z[0]), spec,
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

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, 1e-14])
    def test_a_horizon_that_leaves_no_step_is_refused(self, horizon):
        # the loop's own end test: a NaN or infinite horizon fails it too,
        # and 1e-14 would end the run at t0 with one node
        with pytest.raises(ValueError, match="leaves no step after the start time"):
            integrate(delayed_decay_system(), horizon, DEFAULT)

    def test_history_not_covering_delay_interval(self):
        hist = HistoryFunction.from_samples([-0.5, 0.0], [[1.0], [1.0]])
        sys = delayed_decay_system(history=hist)   # needs [-1, 0]
        with pytest.raises(ValueError):
            integrate(sys, 2.0, DEFAULT)

    def test_history_coverage_is_checked_on_the_band_of_the_run(self):
        # h(t) = 0.5 + 0.1 t reaches 1.0 on [0, 5] and 1.5 on [0, 10]
        delay = DelaySpec.from_functions([parse_expression("0.5 + 0.1*t")])
        history = HistoryFunction.from_samples([-1.0, 0.0], [[1.0], [1.0]])
        problem = DelayProblem(on_arrays(lambda t, y, z: -z[0]), delay, history)
        assert integrate(problem, 5.0, DEFAULT).t_end == 5.0
        with pytest.raises(ValueError, match=re.escape("history must cover [-1.5, 0.0]")):
            integrate(problem, 10.0, DEFAULT)

    def test_scalar_history_not_covering_the_band_is_refused(self):
        short = HistoryFunction.from_samples([-0.5, 0.0], [[0.1], [0.1]])
        scalar = replace(cubic_basin_scalar(), delays=DelaySpec.constant([1.0]),
                         majorant=PolynomialMajorant.zero(2), history=short)
        with pytest.raises(ValueError, match=re.escape("history must cover [-1.0, 0.0]")):
            integrate(scalar, 2.0, DEFAULT)

    def test_problem_without_history_is_refused(self):
        rhs = on_arrays(lambda t, y, z: -y)
        problem = DelayProblem(rhs, DelaySpec.none(), HistoryFunction.constant([1.0]), 0.0)
        assert problem.problem(1.0) is problem
        assert integrate(problem, 1.0, TIGHT).eval(1.0)[0] == pytest.approx(math.exp(-1.0))
        for delays in (DelaySpec.none(), DelaySpec.constant([1.0])):
            with pytest.raises(ValueError, match="a history is required"):
                DelayProblem(rhs, delays, None, 0.0)

    def test_step_underflow_raises_with_time(self):
        def rhs(t, y, z):
            if t > 0.5:
                return np.array([math.nan])
            return np.array([1.0])

        sys = DelayProblem(on_arrays(rhs), DelaySpec.none(), HistoryFunction.constant([0.0]),
                           0.0)
        with pytest.raises(IntegrationError) as err:
            integrate(sys, 2.0, DEFAULT)
        assert err.value.time == pytest.approx(0.5, abs=1e-6)


class TestVectorDelaySystem:
    # f(t, 0, 0, ...) = 0 holds by construction: a monomial has a factor of
    # positive power, the couplings are linear, and nothing else is accepted
    def test_a_monomial_without_factors_is_refused(self):
        with pytest.raises(ValueError, match="constant monomials"):
            PolynomialVectorField(1, 0, [(0, 0.5, [])])

    @pytest.mark.parametrize("part, kind", [("A", "MatrixFunction"), ("f", "NonlinearTerm"),
                                            ("forcing_shape", "VectorFunction")])
    def test_a_plain_callable_part_is_refused(self, part, kind):
        parts = {"A": None, "f": None, "forcing_shape": None, part: lambda *args: np.ones(1)}
        with pytest.raises(TypeError, match=kind):
            VectorDelaySystem(dim=1, forcing_amplitude=0.0, delays=DelaySpec.none(),
                              history=HistoryFunction.constant([1.0]), **parts)


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
        sine = DelayProblem(on_arrays(lambda t, y, delayed: np.array([math.cos(t)])),
                            DelaySpec.none(), HistoryFunction.constant([0.0]))
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
        osc = integrate(DelayProblem(on_arrays(lambda t, y, z: -z[0]), DelaySpec.constant([2.0]),
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

        spiral = integrate(DelayProblem(on_arrays(ellipse), DelaySpec.none(),
                                        HistoryFunction.constant([1.0, 0.0])), 10.0, TIGHT)
        osc = integrate(DelayProblem(on_arrays(lambda t, y, z: -z[0]), DelaySpec.constant([2.0]),
                                     HistoryFunction.constant([1.0])), 30.0, TIGHT)
        for traj, lo, hi in ((spiral, 0.1, 10.0), (osc, 3.0, 30.0), (osc, 10.0, 12.5)):
            grid = np.linspace(lo, hi, 20_001)
            norms = traj.norm_grid(grid)
            k = int(np.argmax(norms))
            zoom = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], 20_001)
            sup = traj.sup_norm(lo, hi)
            assert sup >= norms[k]
            assert sup == pytest.approx(float(np.max(traj.norm_grid(zoom))), rel=1e-13)


class TestTrap:
    """A run that ends once a delay window lies in the trap ball."""

    @staticmethod
    def _decay(history):
        # y' = -y + 0.5 y(t - 0.5): solutions decay, and every ball is a trap
        return DelayProblem(on_arrays(lambda t, y, z: -y + 0.5 * z[0]),
                            DelaySpec.constant([0.5]), history, 0.0)

    def test_a_constant_history_inside_is_trapped_at_the_start(self):
        traj = integrate(self._decay(HistoryFunction.constant([1.0])), 10.0,
                         replace(DEFAULT, trap=1.0))
        assert traj.termination == "trapped" and traj.trapped
        assert traj.t_end == 0.0 and traj.ts.tolist() == [0.0]
        assert traj.stats.accepted == 0 and traj.coeffs.shape == (0, 4, 1)
        assert not traj.blew_up and traj.sup_norm() == 1.0

    def test_a_history_that_varies_counts_only_after_one_delay(self):
        ramp = HistoryFunction.from_expressions([parse_expression("0.5 + 0.1*t")])
        traj = integrate(self._decay(ramp), 10.0, replace(DEFAULT, trap=1.0))
        assert traj.termination == "trapped"
        assert 0.5 <= traj.t_end < 1.0 and traj.stats.accepted > 0

    def test_the_run_stops_at_the_first_window_inside_and_steps_as_without_a_trap(self):
        problem = self._decay(HistoryFunction.constant([4.0]))
        full = integrate(problem, 20.0, DEFAULT)
        traj = integrate(problem, 20.0, replace(DEFAULT, trap=1.0))
        assert traj.termination == "trapped" and full.termination == "completed"
        n = traj.ts.size
        assert np.array_equal(traj.ts, full.ts[:n]) and np.array_equal(traj.ys, full.ys[:n])
        assert np.array_equal(traj.coeffs, full.coeffs[:n - 1])
        bounds = full._step_bounds(0, full.ts.size - 1)
        window = full.ts[1:n] > traj.t_end - 0.5
        assert np.all(bounds[:n - 1][window] <= 1.0)
        # one step earlier the window still held a step outside the ball
        assert np.any(bounds[:n - 2][full.ts[1:n - 1] > full.ts[n - 2] - 0.5] > 1.0)

    def test_a_run_that_never_enters_is_the_run_without_a_trap(self):
        problem = DelayProblem(on_arrays(lambda t, y, z: 0.1 * y), DelaySpec.constant([0.5]),
                               HistoryFunction.constant([2.0]), 0.0)
        full = integrate(problem, 5.0, DEFAULT)
        traj = integrate(problem, 5.0, replace(DEFAULT, trap=1.0))
        assert traj.termination == "completed"
        assert np.array_equal(traj.ys, full.ys) and traj.stats == full.stats

    def test_the_generated_hull_is_the_step_bound(self):
        rng = np.random.default_rng(5)
        steps, dim = 200, 3
        ys = rng.normal(0.0, 1.0, (steps + 1, dim)) * rng.uniform(1e-3, 1e3, (steps + 1, 1))
        coeffs = rng.normal(0.0, 1.0, (steps, 4, dim)) * rng.uniform(1e-3, 1e3, (steps, 1, 1))
        bound = Trajectory(np.arange(steps + 1.0), ys, coeffs, float(steps))._step_bounds(0, steps)
        hull = dde_core._generated_hull(dim)
        generated = np.array([hull(tuple(ys[k]), tuple(coeffs[k].ravel()))
                              for k in range(steps)])
        assert np.allclose(generated, bound, rtol=1e-14, atol=0.0)
        theta = np.linspace(0.0, 1.0, 10_001)[:, None, None]
        values = dde_core._dense(ys[:-1], np.moveaxis(coeffs, 1, 0), theta)
        assert np.all(generated >= np.linalg.norm(values, axis=2).max(axis=0))


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
        assert traj.first_crossing(1e6) == traj.t_end
        assert traj.t_end == pytest.approx(0.5, abs=1e-3)

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


    def test_step_floor_is_a_blow_up_only_near_the_cap(self):
        # the right side fails for y >= 5, so the run from 1 meets the step
        # floor near t = 4 with a norm near 5: a blow-up there when that norm
        # is at least 0.01 * cap, an underflow when it is below
        def rhs(t, y, z):
            return np.where(y >= 5.0, np.nan, 1.0 * (y > 0.0))

        problem = DelayProblem(on_arrays(rhs), DelaySpec.none(), HistoryFunction.constant([1.0]),
                               0.0)
        traj = integrate(problem, 10.0, ToleranceSettings(rtol=1e-6, atol=1e-9, cap=100.0))
        assert traj.blew_up
        assert traj.t_end == traj.ts[-1] == pytest.approx(4.0, abs=1e-9)
        with pytest.raises(IntegrationError, match="underflow") as info:
            integrate(problem, 10.0, ToleranceSettings(rtol=1e-6, atol=1e-9, cap=1000.0))
        assert info.value.time == traj.t_end


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

    def test_unsorted_kinks_each_give_a_node(self):
        problem = DelayProblem(on_arrays(lambda t, y, z: -y), DelaySpec.none(),
                               HistoryFunction.constant([1.0]), kinks=(3.0, 1.0))
        traj = integrate(problem, 5.0, DEFAULT)
        assert {1.0, 3.0} <= set(traj.ts.tolist())
        in_order = integrate(replace(problem, kinks=(1.0, 3.0)), 5.0, DEFAULT)
        assert np.array_equal(traj.ts, in_order.ts) and np.array_equal(traj.ys, in_order.ys)

    def test_bound_stays_high_order(self):
        # the 2(3) stepper took 10,913 steps here; a 5(4) pair that loses
        # its order at the kinks would take several thousand again
        from ddebound.cli import _bundled_config, assemble_pipeline

        system = assemble_pipeline(_bundled_config("a")).scalar_system
        traj = integrate(system, 50.0, ToleranceSettings(rtol=1e-6, atol=1e-9))
        assert len(traj.ts) - 1 < 3000


class TestBreaks:
    def test_one_constant_delay_breaks_six_deep(self):
        assert DelaySpec.constant([0.5]).breaks(0.0, 50.0) == tuple(0.5 * k for k in range(1, 7))
        assert DelaySpec.constant([0.5]).breaks(1.0, 2.5) == (1.5, 2.0)
        assert DelaySpec.none().breaks(0.0, 5.0) == ()

    def test_several_constant_delays_break_at_their_sums(self):
        # every t0 + sum n_i tau_i with 1 <= sum n_i <= 6 below the horizon,
        # not only the multiples 0.5k of the smallest delay
        spec = DelaySpec.constant([0.5, 0.7])
        breaks = spec.breaks(0.0, 3.0)
        assert breaks == tuple(sorted(set(breaks)))
        # 0.5a + 0.7b < 3 for 17 pairs (a, b), no two of them equal
        assert len(breaks) == 17 and max(breaks) < 3.0
        assert {0.5, 0.7, 1.0, 1.2, 1.4} <= set(breaks)
        problem = DelayProblem(on_arrays(lambda t, y, z: -z[0] - z[1]), spec,
                               HistoryFunction.constant([1.0]), 0.0)
        traj = integrate(problem, 3.0, DEFAULT)
        for node in (0.7, 1.2, 1.4):
            assert node in traj.ts
        assert traj.stats.breaks == len(breaks)

    def test_time_varying_delay_steps_onto_every_wall(self):
        spec = DelaySpec.from_functions([parse_expression("1 + 0.5*sin(t)")])
        assert spec.breaks(0.0, 9.8) is None
        h_under = spec.bounds(0.0, 9.8)[1]
        walls = [k * h_under for k in range(1, 20) if k * h_under < 9.8]
        problem = DelayProblem(on_arrays(lambda t, y, z: -z[0]), spec,
                               HistoryFunction.constant([1.0]), 0.0)
        traj = integrate(problem, 9.8, DEFAULT)
        assert np.all(np.isin(walls, traj.ts))
        assert traj.stats.breaks == len(walls) == 19

    def test_vector_run_of_case_a_steps_onto_six_breaks(self):
        # the one delay 0.5 from a constant history: 0.5, 1.0, ..., 3.0, not
        # the 100 walls 0.5k of [0, 50]
        from ddebound.cli import _bundled_config

        traj = integrate(_bundled_config("a").system, 50.0,
                         ToleranceSettings(rtol=1e-6, atol=1e-9))
        assert traj.stats.breaks == 6
        assert np.all(np.isin([0.5 * k for k in range(1, 7)], traj.ts))


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


class TestConcurrentIntegrations:
    def test_shared_system_is_safe_across_threads(self):
        # systems are immutable and shareable: concurrent integrations of one
        # instance (whose bound coefficients read one shared matrix norm)
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


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def _same_run(a: Trajectory, b: Trajectory) -> bool:
    return all(np.array_equal(_bits(getattr(a, name)), _bits(getattr(b, name)))
               for name in ("ts", "ys", "coeffs")) and a.t_end == b.t_end


def _vector_system(dim: int, delays: int, history: HistoryFunction) -> VectorDelaySystem:
    """A stable dim-dimensional system with time-varying coupling, a cubic
    monomial per coordinate and, with a delay, a delayed square."""
    entries = {(i, i): -2.0 - 0.1 * i for i in range(dim)}
    for i in range(dim - 1):
        entries[i, i + 1] = parse_expression(f"0.3*sin({i + 1}*t)")
        entries[i + 1, i] = -0.2
    monomials = [(i, -0.5, [(0, i, 3)]) for i in range(dim)]
    if delays:
        monomials += [(i, 0.25, [(1, (i + 1) % dim, 2)]) for i in range(dim)]
    return VectorDelaySystem(
        dim=dim, A=MatrixFunction(dim, entries),
        f=NonlinearTerm(dim, delays, PolynomialVectorField(dim, delays, monomials)),
        forcing_amplitude=0.0, forcing_shape=None,
        delays=DelaySpec.constant([0.5] * delays), history=history, t0=0.0)


# the Dormand-Prince 5(4) tableau written out again, for a step by hand
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# the continuous extension's weights, one row per power of theta, stage 1 left out
_DP_Q = ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
         (-8048581381 / 2820520608, 0.0, 131558114200 / 32700410799,
          -1754552775 / 470086768, 127303824393 / 49829197408, -282668133 / 205662961,
          40617522 / 29380423),
         (8663915743 / 2820520608, 0.0, -68118460800 / 10900136933,
          14199869525 / 1410260304, -318862633887 / 49829197408, 2019193451 / 616988883,
          -110615467 / 29380423),
         (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
          -10690763975 / 1880347072, 701980252875 / 199316789632,
          -1453857185 / 822651844, 69997945 / 29380423))


def _by_hand(weights, stages, i):
    """``sum_s weights[s] * stages[s][i]`` over the nonzero weights, left to right."""
    terms = [w * k[i] for w, k in zip(weights, stages) if w != 0.0]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


class TestFloatStep:
    """The generated step source on a state of Python floats sums each stage
    combination in stage order."""

    def test_fixed_step_equals_a_step_by_hand(self):
        vs = _vector_system(2, 0, HistoryFunction.constant([0.6, -0.3]))
        h = 0.125
        traj = integrate(vs, h, ToleranceSettings(rtol=0.1, atol=0.1, first_step=h))
        assert traj.ts.tolist() == [0.0, h]

        def f(t, y):
            return list(vs.rhs(t, y, []))

        y = [0.6, -0.3]
        stages = [f(0.0, y)]
        for c, row in zip(_DP_C[1:], _DP_A[1:]):
            stages.append(f(c * h if c != 1.0 else h,
                            [y[i] + h * _by_hand(row, stages, i) for i in range(2)]))
        new = [y[i] + h * _by_hand(_DP_B, stages, i) for i in range(2)]
        stages.append(f(h, new))
        q = [[h * _by_hand(row, stages, i) for i in range(2)] for row in _DP_Q]
        assert np.array_equal(_bits(traj.ys[1]), _bits(new))
        assert np.array_equal(_bits(traj.coeffs[0]), _bits(q))

    def test_array_right_side_through_the_wrapper_equals_the_system(self):
        from ddebound.cli import _bundled_config
        vs = _bundled_config("a").system

        def on_array_states(t, y, delayed):
            assert isinstance(y, np.ndarray) and all(isinstance(z, np.ndarray) for z in delayed)
            return np.array(vs.rhs(t, y.tolist(), [z.tolist() for z in delayed]))

        plain = DelayProblem(on_arrays(on_array_states), vs.delays, vs.history, vs.t0)
        assert _same_run(integrate(plain, 20.0, DEFAULT), integrate(vs, 20.0, DEFAULT))

    @pytest.mark.parametrize("dim", [1, 9, 130, 3000])
    def test_generated_norm_is_the_state_norm(self, dim):
        # the loop reads the cap on the generated norm and a trajectory on
        # `_norm`, of one vector or of a stack; a forcing shape's norm is
        # generated from its entries.  All sum the squares in index order,
        # past 1,000 terms in statements of 1,000 (one sum of 3,000 terms
        # nests too deep to compile)
        y = np.random.default_rng(dim).normal(size=dim)
        norm = dde_core._norm(y)
        assert _bits(dde_core._norm(np.stack([2.0 * y, y, -y]))[1]) == _bits(norm)
        assert _bits(dde_core._norm(np.stack([[y, y], [y, -y]]))[1, 1]) == _bits(norm)
        assert _bits(dde_core._generated_step(dim, ()).norm(tuple(y.tolist()))) == _bits(norm)
        assert _bits(VectorFunction(dim, dict(enumerate(y.tolist()))).norm(0.5)) == _bits(norm)

    @pytest.mark.parametrize("dim", [1, 9, 130, 3000])
    def test_generated_rms_is_numpys(self, dim):
        # the first step reads the generated RMS: the squares folded left to
        # right, over the count, as numpy's sequential `cumsum` adds them
        y = np.random.default_rng(dim).normal(size=dim)
        rms = dde_core._generated_step(dim, ()).rms(tuple(y.tolist()))
        total = 0.0
        for v in y.tolist():
            total += v * v
        assert _bits(rms) == _bits(math.sqrt(total / dim))
        assert _bits(rms) == _bits(np.sqrt(np.cumsum(y * y)[-1] / dim))

    def test_constant_delays_of_other_values_share_one_step(self):
        # the step is cached by the state dimension and which delays vary; a
        # constant delay's value is an argument
        dde_core._generated_step.cache_clear()
        history = HistoryFunction.constant([0.1, 0.1])
        rhs = _vector_system(2, 1, history).rhs
        for delay in (0.5, 0.7):
            integrate(DelayProblem(rhs, DelaySpec.constant([delay]), history, 0.0), 2.0, DEFAULT)
        assert dde_core._generated_step.cache_info().currsize == 1

    def test_right_side_of_the_wrong_shape_fails_before_the_first_step(self):
        # `on_arrays` checks the shape of every result
        calls = []

        def rhs(t, y, z):
            calls.append(t)
            return np.array([-y[0], 0.0])

        problem = DelayProblem(on_arrays(rhs), DelaySpec.none(),
                               HistoryFunction.constant([0.1]), 0.0)
        with pytest.raises(ValueError, match="shape"):
            integrate(problem, 5.0, DEFAULT)
        assert calls == [0.0]

    def test_array_right_side_without_the_wrapper_fails_at_the_start_time(self):
        # `integrate` checks the length of the first result, which stops an
        # array right side passed as is
        calls = []

        def rhs(t, y, z):
            calls.append(t)
            return np.array([-y[0], 0.0])

        problem = DelayProblem(rhs, DelaySpec.none(), HistoryFunction.constant([0.1]), 0.0)
        with pytest.raises(ValueError, match="returned 2 values"):
            integrate(problem, 5.0, DEFAULT)
        assert calls == [0.0]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_right_side_that_stops_being_finite_fails_alike(self, bad):
        # from t = 1 on every stage is infinite or NaN: each step is refused
        # until the step floor, where the state is far below the cap
        def rhs(t, y, z):
            return np.where(t > 1.0, bad, -y)

        problem = DelayProblem(on_arrays(rhs), DelaySpec.none(), HistoryFunction.constant([1.0]),
                               0.0)
        with pytest.raises(IntegrationError, match="underflow") as info:
            integrate(problem, 3.0, DEFAULT)
        assert info.value.time == pytest.approx(1.0, abs=1e-9)

    def test_overflow_of_a_generated_power_is_a_rejected_step(self):
        # x' = -x^5 from 100 with a first step of 1: the trial states of the
        # long steps overflow in float ** int, which raises, and the step
        # shrinks instead; x(1) = (4 + 100^-4)^(-1/4)
        poly = PolynomialVectorField(1, 0, [(0, -1.0, [(0, 0, 5)])])
        history = HistoryFunction.constant([100.0])
        vs = VectorDelaySystem(dim=1, A=None, f=NonlinearTerm(1, 0, poly),
                               forcing_amplitude=0.0, forcing_shape=None,
                               delays=DelaySpec.none(), history=history)
        tol = ToleranceSettings(rtol=1e-8, atol=1e-12, first_step=1.0)
        traj = integrate(vs, 1.0, tol)
        assert not traj.blew_up and traj.stats.rejected > 0
        assert traj.eval(1.0)[0] == pytest.approx((4.0 + 1e-8) ** -0.25, rel=1e-6)

    def test_step_counts(self):
        problem = DelayProblem(on_arrays(lambda t, y, z: y * math.cos(t)), DelaySpec.none(),
                               HistoryFunction.constant([1.0]), 0.0)
        traj = integrate(problem, 20.0, DEFAULT)
        stats = traj.stats
        assert stats.accepted == len(traj.ts) - 1
        assert stats.rejected > 0
        # the start value, the first-step probe and six stages per attempt
        assert stats.breaks == 0
        assert stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected)

    def test_step_counts_of_a_delayed_run(self):
        # the step after a break reuses the last stage, as every step does:
        # no evaluation at the delay's breaks 1, 2 and 3
        hist = HistoryFunction.from_expressions([parse_expression("exp(t)")])
        traj = integrate(delayed_decay_system(history=hist), 3.5, TIGHT)
        stats = traj.stats
        assert stats.accepted == len(traj.ts) - 1
        assert stats.breaks == 3
        assert stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected)
