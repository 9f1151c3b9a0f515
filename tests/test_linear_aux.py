import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import TIGHT
from ddebound import (DelaySpec, HistoryFunction, LinearScalarDDE, ToleranceSettings,
                      cauchy_function, integrate, integrate_linear, iss_bound_series,
                      linearize_majorant, parse_expression, particular_response,
                      superposition_check)
from ddebound.linear_aux import build_linear_auxiliary
from ddebound.majorant import LinearizedCoefficients, PolynomialMajorant, PolynomialTerm
from ddebound.reduction import CoefficientPair
from ddebound.timefn import ConstantFn, locate_zeros, sample


def _plain(rate=0.0, delayed=(), delays=None, shape=0.0, amplitude=0.0,
           history=0.0, zeta_tilde=None):
    return LinearScalarDDE(rate=rate, delayed_coeffs=tuple(delayed),
                           delays=delays or DelaySpec.none(),
                           forcing_shape=shape, forcing_amplitude=amplitude,
                           history=HistoryFunction.constant([history]), t0=0.0,
                           zeta_tilde=zeta_tilde)


def _benchmark_linearized(forcing_amplitude=0.0, zeta_tilde=0.5, history=0.05):
    """Linearized comparison system of the bundled planar test system."""
    lam = parse_expression("-3 + 0.1*sin(5*t)")
    coeffs = CoefficientPair.closed_form(lam, 1.0)
    omega = parse_expression("1 + 0.1*sin(t) + 0.1*sin(3.14*t)").compiled()

    def a1_norm(t):
        return max(1.0, omega(t))

    L = PolynomialMajorant((
        PolynomialTerm(a1_norm, (1, 0)),
        PolynomialTerm(lambda t: 0.5 * a1_norm(t), (0, 1)),
        PolynomialTerm(0.1, (0, 3)),
    ), 2)
    lc = linearize_majorant(L, zeta_tilde)
    e_norm = parse_expression("abs(sin(10*t))")
    return build_linear_auxiliary(coeffs, lc, DelaySpec.constant([0.5]), e_norm,
                                  forcing_amplitude,
                                  HistoryFunction.constant([history]), 0.0)


class TestCauchyFunction:
    def test_zero_rate(self):
        C = cauchy_function(_plain(), 1.0, 5.0, TIGHT)
        for t in (1.0, 2.5, 5.0):
            assert C.eval(t)[0] == pytest.approx(1.0, abs=1e-12)

    def test_pure_exponential(self):
        C = cauchy_function(_plain(rate=-0.7), 1.0, 4.0, TIGHT)
        for t in np.linspace(1.0, 4.0, 13):
            assert C.eval(float(t))[0] == pytest.approx(
                math.exp(-0.7 * (float(t) - 1.0)), rel=1e-7)

    def test_delayed_term_sees_zero_prehistory(self):
        # u' = u(t-1): flat at 1 on [s, s+1), then 1 + (t-s-1)
        sys = _plain(delayed=(1.0,), delays=DelaySpec.constant([1.0]))
        C = cauchy_function(sys, 2.0, 5.0, TIGHT)
        assert C.eval(2.0)[0] == 1.0
        assert C.eval(2.9)[0] == pytest.approx(1.0, abs=1e-12)
        assert C.eval(3.5)[0] == pytest.approx(1.5, abs=1e-9)
        assert C.eval(4.0)[0] == pytest.approx(2.0, abs=1e-9)

    def test_negative_delayed_coefficient_rejected(self):
        # u' = -u - 0.5 u(t-1) is no comparison system: its Cauchy function
        # dips below zero, and `integrate` refuses the system as well
        sys = _plain(rate=-1.0, delayed=(-0.5,), delays=DelaySpec.constant([1.0]))
        with pytest.raises(ValueError, match="delayed coefficient is negative"):
            cauchy_function(sys, 0.0, 10.0, TIGHT)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            cauchy_function(_plain(), 2.0, 2.0, TIGHT)

    def test_nonnegative_on_benchmark_instance(self):
        sys = _benchmark_linearized()
        C = cauchy_function(sys, 1.0, 20.0, TIGHT)
        grid = np.linspace(1.0, 20.0, 400)
        assert min(C.eval(float(t))[0] for t in grid) >= -1e-8

    @pytest.mark.parametrize("case", ["a", "b"])
    def test_constant_bound_decays_at_the_hayes_rate(self, case):
        # U' = a U + b U(t - h): its Cauchy function decays at the rightmost
        # characteristic root lambda = a + W0(b h e^(-a h)) / h
        from scipy.special import lambertw
        from ddebound.cli import _bundled_config, assemble_pipeline, build_linear_chain
        _linear, constant = build_linear_chain(assemble_pipeline(_bundled_config(case)))
        a = constant.rate.value
        (b,) = [g.value for g in constant.delayed_coeffs]
        h = constant.delays.bounds(0.0, 30.0)[0]
        rate = a + lambertw(b * h * math.exp(-a * h)).real / h
        C = cauchy_function(constant, 0.0, 30.0, ToleranceSettings(rtol=1e-10, atol=1e-14))
        fitted = math.log(C.eval(30.0)[0] / C.eval(20.0)[0]) / 10.0
        assert fitted == pytest.approx(rate, abs=1e-6)


class TestParticularResponse:
    def test_zero_forcing(self):
        traj = particular_response(_plain(rate=-1.0, shape=0.0), 5.0, TIGHT)
        assert max(abs(traj.eval(float(t))[0]) for t in np.linspace(0, 5, 50)) < 1e-12

    def test_first_order_step_response(self):
        traj = particular_response(_plain(rate=-1.0, shape=1.0, history=7.0), 5.0, TIGHT)
        # history is replaced by zero: u = 1 - e^{-t}
        for t in np.linspace(0.0, 5.0, 21):
            assert traj.eval(float(t))[0] == pytest.approx(
                1.0 - math.exp(-float(t)), abs=1e-7)

    def test_benchmark_instance_nonnegative_and_bounded(self):
        sys = _benchmark_linearized(forcing_amplitude=1.0)
        traj = particular_response(sys, 50.0, ToleranceSettings())
        values = [traj.eval(float(t))[0] for t in np.linspace(0.0, 50.0, 800)]
        assert min(values) >= -1e-8
        assert max(values) < 10.0


class TestSuperposition:
    def test_zero_amplitude(self):
        sys = _plain(rate=-0.5, shape=1.0)
        res = superposition_check(sys, HistoryFunction.constant([0.8]), 0.0, 10.0, TIGHT)
        assert res < 1e-10

    def test_first_order_closed_form(self):
        # u' = -u + F0: u = F0 + (1 - F0) e^{-t} for phi = 1
        sys = _plain(rate=-1.0, shape=1.0)
        res = superposition_check(sys, HistoryFunction.constant([1.0]), 0.7, 8.0, TIGHT)
        assert res < 100 * TIGHT.rtol
        full = integrate(replace(sys, history=HistoryFunction.constant([1.0]),
                                 forcing_amplitude=0.7), 8.0, TIGHT)
        assert full.eval(2.0)[0] == pytest.approx(0.7 + 0.3 * math.exp(-2.0), rel=1e-7)

    def test_benchmark_instance_random_pairs(self):
        rng = np.random.default_rng(62)
        sys = _benchmark_linearized(forcing_amplitude=1.0)
        for _ in range(3):
            phi = float(rng.uniform(0.0, 0.2))
            amp = float(rng.uniform(0.0, 1.0))
            res = superposition_check(sys, HistoryFunction.constant([phi]), amp, 50.0,
                                      ToleranceSettings())
            assert res < 1e-4


    def test_kinks_located_once_per_check(self, monkeypatch):
        from ddebound import linear_aux
        calls = []

        def counted(fn, t_lo, t_hi):
            calls.append((t_lo, t_hi))
            return locate_zeros(fn, t_lo, t_hi)

        monkeypatch.setattr(linear_aux, "locate_zeros", counted)
        sys = _benchmark_linearized(forcing_amplitude=1.0)
        for phi, amp in ((0.05, 0.3), (0.1, 0.8)):
            res = superposition_check(sys, HistoryFunction.constant([phi]), amp, 20.0,
                                      ToleranceSettings())
            assert res < 1e-4
        # the checks share the system's coefficients: its kinks are located once
        assert calls == [(0.0, 20.0)]

    def test_coefficients_read_once_over_three_checks(self, monkeypatch):
        from ddebound import linear_aux
        grids = []

        def counted(fns, t_lo, t_hi):
            grids.append((t_lo, t_hi))
            return sample(fns, t_lo, t_hi)

        monkeypatch.setattr(linear_aux, "sample", counted)
        sys = _benchmark_linearized(forcing_amplitude=1.0)
        for phi, amp in ((0.05, 0.3), (0.1, 0.8), (0.02, 0.0)):
            superposition_check(sys, HistoryFunction.constant([phi]), amp, 20.0,
                                ToleranceSettings())
        assert grids == [(0.0, 20.0)]
        # a new horizon is a new interval to check
        superposition_check(sys, HistoryFunction.constant([0.05]), 0.3, 25.0,
                            ToleranceSettings())
        assert grids == [(0.0, 20.0), (0.0, 25.0)]


class TestLinearity:
    def test_homogeneous_scaling(self):
        sys = _benchmark_linearized()
        base = integrate(replace(sys, history=HistoryFunction.constant([0.04])),
                         30.0, TIGHT)
        scaled = integrate(replace(sys, history=HistoryFunction.constant([0.12])),
                           30.0, TIGHT)
        for t in np.linspace(0.0, 30.0, 100):
            assert scaled.eval(float(t))[0] == pytest.approx(
                3.0 * base.eval(float(t))[0], abs=1e-8)

    def test_negative_delayed_coefficient_rejected_on_integrate(self):
        sys = _plain(delayed=(-1.0,), delays=DelaySpec.constant([1.0]), history=1.0)
        with pytest.raises(ValueError):
            integrate(sys, 3.0, TIGHT)


class TestLinearizationTracking:
    def test_within_domain(self):
        sys = _benchmark_linearized(zeta_tilde=0.5, history=0.05)
        response = integrate_linear(sys, 20.0, TIGHT)
        assert not response.exceeded_linearization
        assert response.sup_value == pytest.approx(0.05, abs=1e-6)

    def test_flagged_when_exceeded(self):
        sys = _benchmark_linearized(zeta_tilde=0.01, history=0.05)
        response = integrate_linear(sys, 5.0, TIGHT)
        assert response.exceeded_linearization


class TestIssBound:
    def test_zero_system(self):
        zero = _plain(rate=0.0)
        traj = integrate(zero, 5.0, TIGHT)
        report = iss_bound_series(traj, traj, traj, 0.0, np.linspace(0.0, 5.0, 50))
        assert report.holds
        assert report.max_violation <= 0.0

    def test_benchmark_chain_bound_holds(self):
        # |x(t)| <= u_h(t) + F0 * u_nh(t) on the bundled planar system with a
        # small amplitude and history inside the linearization radius
        from ddebound.cli import _bundled_config, assemble_pipeline, build_linear_chain
        pipe = assemble_pipeline(_bundled_config("a"))
        linear, _constant = build_linear_chain(pipe)
        tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
        vector_traj = integrate(pipe.config.system, 50.0, tol)
        u_h = integrate(replace(linear, history=pipe.scalar_system.history,
                                forcing_amplitude=0.0), 50.0, tol)
        u_nh = particular_response(linear, 50.0, tol)
        amplitude = pipe.config.system.forcing_amplitude
        report = iss_bound_series(vector_traj, u_h, u_nh, amplitude,
                                  np.linspace(0.0, 50.0, 600), tol=1e-6)
        assert report.holds

    def test_mismatched_domain_rejected(self):
        zero = _plain(rate=0.0)
        traj = integrate(zero, 5.0, TIGHT)
        short = integrate(zero, 2.0, TIGHT)
        with pytest.raises(ValueError):
            iss_bound_series(traj, short, short, 0.0, np.linspace(0.0, 5.0, 20))
        # past t_end by more than the 1e-12 every evaluation allows
        with pytest.raises(ValueError, match="time grid leaves a trajectory domain"):
            iss_bound_series(traj, traj, traj, 0.0, np.linspace(0.0, 5.0 + 5e-10, 20))

    def test_violation_reported_not_raised(self):
        big = integrate(_plain(rate=0.1, history=1.0), 5.0, TIGHT)
        small_sys = _plain(rate=-1.0, history=1.0)
        small = integrate(small_sys, 5.0, TIGHT)
        report = iss_bound_series(big, small, small, 0.0, np.linspace(0.0, 5.0, 64))
        assert not report.holds
        assert report.max_violation > 0.0
        assert report.first_violation_time is not None


class TestConstantBuilder:
    # the constant-coefficient U is build_linear_auxiliary on constant inputs
    def test_rate_composition(self):
        sys = build_linear_auxiliary(
            CoefficientPair.closed_form(-2.9, 1.0),
            LinearizedCoefficients(0.5, (1.2, 0.625)), DelaySpec.constant([0.5]),
            0.8, 0.0, HistoryFunction.constant([0.05]))
        assert sys.rate(3.0) == pytest.approx(-2.9 + 1.2)
        assert sys.delayed_coeffs[0](1.0) == pytest.approx(0.625)
        assert all(isinstance(f, ConstantFn)
                   for f in (sys.rate, *sys.delayed_coeffs, sys.forcing_shape))

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            build_linear_auxiliary(
                CoefficientPair.closed_form(-1.0, 1.0), LinearizedCoefficients(0.5, (0.1,)),
                DelaySpec.constant([0.5]), 0.0, 0.0, HistoryFunction.constant([0.0]))

    def test_constant_condition_number_scales_constant_coefficients(self):
        sys = build_linear_auxiliary(
            CoefficientPair.closed_form(-2.9, 1.5),
            LinearizedCoefficients(0.5, (1.2, 0.625)), DelaySpec.constant([0.5]),
            0.8, 0.05, HistoryFunction.constant([0.05]))
        assert sys.rate.value == -2.9 + 1.5 * 1.2
        assert sys.delayed_coeffs[0].value == 1.5 * 0.625
        assert sys.forcing_shape.value == 1.5 * 0.8

    def test_frozen_coefficients_dominate_time_varying_ones(self):
        from ddebound.cli import _bundled_config, assemble_pipeline, build_linear_chain
        pipe = assemble_pipeline(_bundled_config("a"))
        linear, constant = build_linear_chain(pipe)
        for t in np.linspace(0.0, 50.0, 2001).tolist():
            assert linear.rate(t) <= constant.rate.value
            assert linear.delayed_coeffs[0](t) <= constant.delayed_coeffs[0].value
            assert linear.forcing_shape(t) <= constant.forcing_shape.value

    def test_forced_chain_stays_dominated(self):
        # with forcing on, the frozen system must still ride above the
        # time-varying one (its forcing shape is the supremum of c|e|)
        from ddebound.cli import _bundled_config, assemble_pipeline, build_linear_chain
        from ddebound import verify_pointwise_ordering
        pipe = assemble_pipeline(_bundled_config("a"))
        linear, constant = build_linear_chain(pipe)
        assert constant.forcing_shape(0.0) >= 1.0
        tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
        u = integrate(linear, 50.0, tol)
        upper = integrate(constant, 50.0, tol)
        report = verify_pointwise_ordering([u, upper], grid=800, tol=1e-6)
        assert report.holds
