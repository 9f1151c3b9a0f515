import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import TIGHT
from ddebound import (DelaySpec, HistoryFunction, LinearScalarDDE, ToleranceSettings,
                      integrate, linearize_majorant, load_config,
                      parse_expression, superposition_check, verify_pointwise_ordering)
from ddebound.cli import _bundled_config, assemble_pipeline
from ddebound.linear_aux import build_linear_auxiliary, build_linear_chain
from ddebound.majorant import LinearizedCoefficients, PolynomialMajorant, PolynomialTerm
from ddebound.reduction import CoefficientPair
from ddebound.timefn import ConstantFn, locate_zeros, sample


def _plain(rate=0.0, delayed=(), delays=None, shape=0.0, amplitude=0.0,
           history=0.0):
    return LinearScalarDDE(rate=rate, delayed_coeffs=tuple(delayed),
                           delays=delays or DelaySpec.none(),
                           forcing_shape=shape, forcing_amplitude=amplitude,
                           history=HistoryFunction.constant([history]), t0=0.0)


def _benchmark_linearized(forcing_amplitude=0.0, history=0.05):
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
    lc = linearize_majorant(L, 0.5)
    e_norm = parse_expression("abs(sin(10*t))")
    return build_linear_auxiliary(coeffs, lc, DelaySpec.constant([0.5]), e_norm,
                                  forcing_amplitude,
                                  HistoryFunction.constant([history]), 0.0)


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


class TestForcedChain:
    @pytest.mark.parametrize("case", ["a", "b"])
    def test_the_norm_lies_below_the_whole_chain(self, case):
        # |x| <= y <= u <= U with the config's history and forcing: u is the
        # forced response u_h + F0 u_nh (superposition), and it stays inside
        # the linearization radius it was built for
        cfg = _bundled_config(case)
        pipe = assemble_pipeline(cfg)
        linear, constant = build_linear_chain(pipe)
        x, y, u, upper = (integrate(s, pipe.horizon, pipe.tol) for s in
                          (cfg.system, pipe.scalar_system, linear, constant))
        report = verify_pointwise_ordering([x, y, u, upper], grid=2000, tol=1e-4)
        assert report.holds
        assert u.sup_norm() <= cfg.reduction.zeta_tilde


class TestCoefficientHorizon:
    # u is valid as far as the reduction's coefficients, U as far as the
    # frozen system it linearizes; past either the splines extrapolate and
    # the suprema were never read
    REDUCE_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "reduce.cfg"

    def test_runs_past_the_coefficient_horizon_are_refused(self):
        numerical = assemble_pipeline(load_config(self.REDUCE_CONFIG), horizon=10.0)
        linear, _constant = build_linear_chain(numerical)
        _linear, constant = build_linear_chain(assemble_pipeline(_bundled_config("b"),
                                                                 horizon=10.0))
        refused = "^coefficients are only valid up to t=10.0, requested horizon "
        with pytest.raises(ValueError, match=refused + "11.5$"):
            integrate(linear, 11.5)
        with pytest.raises(ValueError, match=refused + "20.0$"):
            integrate(constant, 20.0)
        for run in (integrate(linear, 10.0), integrate(constant, 10.0)):
            assert run.t_end == 10.0


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
        pipe = assemble_pipeline(_bundled_config("a"))
        linear, constant = build_linear_chain(pipe)
        for t in np.linspace(0.0, 50.0, 2001).tolist():
            assert linear.rate(t) <= constant.rate.value
            assert linear.delayed_coeffs[0](t) <= constant.delayed_coeffs[0].value
            assert linear.forcing_shape(t) <= constant.forcing_shape.value

    @pytest.mark.parametrize("case", ["a", "b"])
    def test_constant_bound_decays_at_the_hayes_rate(self, case):
        # U' = a U + b U(t - h) from the constant history 1 decays at the
        # rightmost characteristic root lambda = a + W0(b h e^(-a h)) / h
        from scipy.special import lambertw
        _linear, constant = build_linear_chain(assemble_pipeline(_bundled_config(case)))
        a = constant.rate.value
        (b,) = [g.value for g in constant.delayed_coeffs]
        h = constant.delays.bounds(0.0, 30.0)[0]
        rate = a + lambertw(b * h * math.exp(-a * h)).real / h
        unforced = replace(constant, history=HistoryFunction.constant([1.0]),
                           forcing_amplitude=0.0)
        U = integrate(unforced, 30.0, ToleranceSettings(rtol=1e-10, atol=1e-14))
        fitted = math.log(U.eval(30.0)[0] / U.eval(20.0)[0]) / 10.0
        assert fitted == pytest.approx(rate, abs=1e-6)

    def test_forced_chain_stays_dominated(self):
        # with forcing on, the frozen system must still ride above the
        # time-varying one (its forcing shape is the supremum of c|e|)
        pipe = assemble_pipeline(_bundled_config("a"))
        linear, constant = build_linear_chain(pipe)
        assert constant.forcing_shape(0.0) >= 1.0
        tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
        u = integrate(linear, 50.0, tol)
        upper = integrate(constant, 50.0, tol)
        report = verify_pointwise_ordering([u, upper], grid=800, tol=1e-6)
        assert report.holds
