import math

import numpy as np
import pytest

from conftest import (DEFAULT, TIGHT, cubic_basin_scalar, delayed_decay_oracle,
                      delayed_decay_system, linear_ode_system)
from ddebound import (DelayProblem, DelaySpec, HistoryFunction, IntegrationError,
                      ScalarDelaySystem, ToleranceSettings, VectorDelaySystem,
                      detect_blowup, integrate, parse_expression, sup_norm_on_interval)
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
        # the 512 delay samples miss the dip to 0.05 at t = 3.4, so h_under
        # is 0.5 and the stage at t = 3.4 reads y(3.35) while the accepted
        # solution ends at t = 3
        delay = parse_expression("0.5 - 0.45*exp(-((t-3.4)/1e-4)^2)")
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
        assert sup_norm_on_interval(traj, 0.0, 4.0, 64) == pytest.approx(math.sqrt(5.0))

    def test_decaying_delayed_solution(self):
        traj = integrate(delayed_decay_system(), 2.0, TIGHT)
        assert sup_norm_on_interval(traj, 0.0, 2.0, 256) == pytest.approx(1.0, abs=1e-9)

    def test_blown_up_trajectory_reaches_cap(self):
        traj = integrate(cubic_basin_scalar(q=5.0), 50.0,
                         ToleranceSettings(rtol=1e-6, atol=1e-9, cap=1e6))
        assert sup_norm_on_interval(traj, traj.t_start, traj.t_end, 128) >= 1e6 * 0.99

    def test_guards(self):
        traj = integrate(delayed_decay_system(), 2.0, DEFAULT)
        with pytest.raises(ValueError):
            sup_norm_on_interval(traj, 1.0, 0.5, 16)
        with pytest.raises(ValueError):
            sup_norm_on_interval(traj, 0.0, 2.0, 1)


class TestDetectBlowup:
    def test_decaying_is_bounded(self):
        traj = integrate(linear_ode_system(-1.0, 1.0), 10.0, DEFAULT)
        report = detect_blowup(traj, 1e6)
        assert not report.blew_up

    def test_quadratic_blowup_before_one(self):
        poly = PolynomialVectorField(1, 0, [(0, 1.0, [(0, 0, 2)])])
        sys = VectorDelaySystem(dim=1, A=None, f=NonlinearTerm(1, 0, poly),
                                forcing_amplitude=0.0, forcing_shape=None,
                                delays=DelaySpec.none(),
                                history=HistoryFunction.constant([2.0]), t0=0.0)
        traj = integrate(sys, 2.0, ToleranceSettings(rtol=1e-6, atol=1e-9, cap=1e6))
        report = detect_blowup(traj, 1e6)
        assert report.blew_up
        assert report.time < 1.0
        assert report.time == pytest.approx(0.5, abs=1e-3)

    def test_lower_cap_found_inside_segments(self):
        traj = integrate(linear_ode_system(1.0, 1.0), 5.0,
                         ToleranceSettings(rtol=1e-8, atol=1e-12, cap=1e9))
        report = detect_blowup(traj, math.e)   # crossing at t = 1
        assert report.blew_up
        assert report.time == pytest.approx(1.0, abs=1e-5)


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
