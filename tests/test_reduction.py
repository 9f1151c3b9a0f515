import math
from importlib import resources

import numpy as np
import pytest

from conftest import DEFAULT
from ddebound import (CoefficientPair, DelaySpec, HistoryFunction, ScalarDelaySystem,
                      ToleranceSettings, VectorDelaySystem, build_autonomous_auxiliary,
                      build_scalar_auxiliary, compute_fundamental_matrix,
                      integrate, parse_expression, verify_pointwise_ordering)
from ddebound import reduction
from ddebound.cli import _bundled_config, assemble_pipeline, fig1_protocol
from ddebound.config import load_config_text
from ddebound.dde_core import _norm
from ddebound.linalg import MatrixFunction, VectorFunction, spectral_norm
from ddebound.majorant import PolynomialMajorant, PolynomialTerm
from ddebound.reduction import IllConditionedError
from ddebound.timefn import ConstantFn, grid_supremum
from ddebound.vectorfield import NonlinearTerm, PolynomialVectorField

FUND_TOL = ToleranceSettings(rtol=1e-8, atol=1e-12, cap=math.inf)


class TestJacobiSvd:
    # the closed-form 2x2 spectral norm (the class name keeps test ids stable)
    def test_spectral_norm_closed_form_matches(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.normal(size=(2, 2))
            assert spectral_norm(m) == pytest.approx(
                float(np.linalg.norm(m, 2)), rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((2, 2))) == 0.0


class TestFundamentalMatrix:
    def test_zero_generator_is_identity(self):
        W = compute_fundamental_matrix(MatrixFunction(2, {}), 0.0, 5.0, FUND_TOL)
        assert np.allclose(W.w(3.0), np.eye(2), atol=1e-12)
        (smax,), (c,), _p = W.spectra([3.0])
        assert smax == pytest.approx(1.0, abs=1e-12)
        assert smax / c == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_closed_form(self):
        A = MatrixFunction(2, {(0, 0): -1.0, (1, 1): -2.0})
        W = compute_fundamental_matrix(A, 0.0, 3.2, FUND_TOL)
        (smax,), (c,), _p = W.spectra([1.0])
        assert smax == pytest.approx(math.exp(-1.0), rel=1e-7)
        assert c / smax == pytest.approx(math.exp(2.0), rel=1e-7)     # 1 / sigma_min
        ts = np.linspace(0.1, 3.0, 30)
        _smax, c, p = W.spectra(ts)
        assert p == pytest.approx(np.full(ts.size, -1.0), abs=1e-5)
        assert c == pytest.approx(np.exp(ts), rel=1e-5)

    def test_rate_at_start_is_top_eigenvalue_of_symmetric_part(self):
        # w(t0) = I has a repeated sigma_max: the rate there is the largest
        # eigenvalue of the symmetric part of A0, which no difference stencil
        # around t0 can produce
        A = MatrixFunction(2, {(0, 0): -1.0, (0, 1): 2.0, (1, 1): -2.0})
        W = compute_fundamental_matrix(A, 0.0, 1.0, FUND_TOL)
        sym_top = (-3.0 + math.sqrt(5.0)) / 2.0
        _smax, _c, p = W.spectra([0.0, 1e-6])
        assert p[0] == pytest.approx(sym_top, abs=1e-12)
        assert p[1] == pytest.approx(sym_top, abs=1e-5)

    def test_analytic_rate_matches_independent_difference(self):
        from scipy.integrate import solve_ivp

        def a0(t):
            return np.array([[-1.0 + 0.3 * math.sin(t), 0.8 * math.cos(2.0 * t)],
                             [0.2, -2.0 + 0.5 * math.cos(t)]])

        A = MatrixFunction(2, {(0, 0): parse_expression("-1 + 0.3*sin(t)"),
                               (0, 1): parse_expression("0.8*cos(2*t)"),
                               (1, 0): 0.2,
                               (1, 1): parse_expression("-2 + 0.5*cos(t)")})
        W = compute_fundamental_matrix(A, 0.0, 5.0, FUND_TOL)
        ref = solve_ivp(lambda t, w: (a0(t) @ w.reshape(2, 2)).ravel(), (0.0, 5.0),
                        np.eye(2).ravel(), method="DOP853", rtol=1e-13, atol=1e-16,
                        dense_output=True)

        def log_sigma_max(t):
            return math.log(np.linalg.norm(ref.sol(t).reshape(2, 2), 2))

        delta = 1e-4
        ts = np.linspace(0.5, 4.5, 17)
        _smax, _c, p = W.spectra(ts)
        for t, rate in zip(ts.tolist(), p):
            diff = (log_sigma_max(t + delta) - log_sigma_max(t - delta)) / (2.0 * delta)
            assert rate == pytest.approx(diff, abs=1e-6)

    def test_decaying_generator_stays_resolved(self):
        # w = diag(e^-3t, e^-3.5t) falls below any fixed absolute tolerance;
        # the scaled solve keeps c = e^(t/2) and p = -3 accurate regardless
        A = MatrixFunction(2, {(0, 0): -3.0, (1, 1): -3.5})
        W = compute_fundamental_matrix(A, 0.0, 30.0, FUND_TOL)
        pair = CoefficientPair.from_fundamental(W)
        (smax,), (c_w,), (p_w,) = W.spectra([20.0])
        for c, p in ((c_w, p_w), (pair.c(20.0), pair.p(20.0))):
            assert c == pytest.approx(math.exp(10.0), rel=1e-6)
            assert p == pytest.approx(-3.0, abs=1e-7)
        assert smax == pytest.approx(math.exp(-60.0), rel=1e-6)

    def test_initial_matrix_is_identity_exactly(self):
        A = MatrixFunction(2, {(0, 0): -1.0, (0, 1): 2.0, (1, 1): -2.0})
        W = compute_fundamental_matrix(A, 0.0, 1.0, FUND_TOL)
        assert np.array_equal(W.w(0.0), np.eye(2))

    def test_ill_conditioning_reported_with_time(self):
        A = MatrixFunction(2, {(1, 1): -40.0})
        # atol well below the condition floor so the decay is actually resolved
        W = compute_fundamental_matrix(
            A, 0.0, 1.0, ToleranceSettings(rtol=1e-8, atol=1e-20, cap=math.inf))
        with pytest.raises(IllConditionedError) as err:
            W.spectra([0.9])
        assert err.value.time == pytest.approx(0.9)


class TestCoefficientPair:
    def test_time_varying_scalar_multiple_of_identity(self):
        lam = parse_expression("-3 + 0.1*sin(5*t)")
        A = MatrixFunction(2, {(0, 0): lam, (1, 1): lam})
        W = compute_fundamental_matrix(A, 0.0, 3.2, FUND_TOL)
        ts = np.linspace(0.1, 3.0, 30)
        _smax, c, p = W.spectra(ts)
        assert p == pytest.approx([lam(t) for t in ts.tolist()], abs=1e-5)
        assert c == pytest.approx(np.ones(ts.size), abs=1e-8)
        # w(t) = diag(eta, eta) with eta = exp of the integrated rate
        eta = math.exp(-3.0 + 0.02 * (1.0 - math.cos(5.0)))
        assert np.allclose(W.w(1.0), eta * np.eye(2), rtol=1e-7)

    def test_spline_interpolation_tracks_pointwise_values(self):
        A = MatrixFunction(2, {(0, 0): -1.0, (1, 1): -2.0})
        W = compute_fundamental_matrix(A, 0.0, 3.2, FUND_TOL)
        pair = CoefficientPair.from_fundamental(W)
        assert pair.provenance == "numerical"
        for t in np.linspace(0.1, 3.0, 30):
            t = float(t)
            assert pair.p(t) == pytest.approx(-1.0, abs=1e-5)
            assert pair.c(t) == pytest.approx(math.exp(t), rel=1e-5)

    def test_splines_track_pointwise_values_over_the_whole_horizon(self):
        # non-normal, time-varying A0 with no closed form: the splines through
        # the steps and their midpoints follow the pointwise rate and
        # condition number from the start time to the horizon itself
        A = MatrixFunction(2, {(0, 0): parse_expression("-3 + 0.1*sin(5*t)"),
                               (0, 1): parse_expression("0.5*cos(t)"),
                               (1, 1): parse_expression("-3 + exp(-t)")})
        W = compute_fundamental_matrix(A, 0.0, 50.0, FUND_TOL)
        pair = CoefficientPair.from_fundamental(W)
        assert pair.t_hi == 50.0
        grid = np.linspace(0.0, 50.0, 1001)
        _sigma_max, c, rate = W.spectra(grid)
        assert rate[0] == W.spectra([0.0])[2][0]
        assert np.max(np.abs([pair.p(float(t)) for t in grid] - rate)) < 1e-5
        assert np.max(np.abs([pair.c(float(t)) for t in grid] - c) / c) < 1e-5

    def test_condition_number_lower_bound(self):
        rng = np.random.default_rng(3)
        entries = {(i, j): float(rng.uniform(-1.0, 1.0)) for i in range(2)
                   for j in range(2)}
        W = compute_fundamental_matrix(MatrixFunction(2, entries), 0.0, 2.0, FUND_TOL)
        _smax, c, _p = W.spectra(np.linspace(0.1, 1.9, 20))
        assert np.all(c >= 1.0)

    def test_closed_form_constructor(self):
        pair = CoefficientPair.closed_form(parse_expression("-3 + 0.1*sin(5*t)"), 1.0)
        assert pair.provenance == "closed_form"
        assert pair.p(0.0) == -3.0
        assert pair.c(17.0) == 1.0


def _refuse(*args, **kwargs):
    raise AssertionError("the fundamental matrix was integrated")


def _a0_config(diagonal: str) -> str:
    return f"[system]\ndim = 2\n{diagonal}\nhistory = constant 0.1 0.1\n[solver]\nhorizon = 3\n"


class TestCoefficientsFromA0:
    # the reduction reads p and c off A0: in closed form when A0 is a(t) I,
    # else from the integrated fundamental matrix

    @pytest.mark.parametrize("case", ["a", "b"])
    def test_bundled_cases_read_the_diagonal_entry(self, case, monkeypatch):
        monkeypatch.setattr(reduction, "compute_fundamental_matrix", _refuse)
        cfg = _bundled_config(case)
        pipe = assemble_pipeline(cfg)
        assert pipe.coefficients.provenance == "closed_form"
        assert pipe.coefficients.p is cfg.a0.entries()[(0, 0)]
        assert pipe.scalar_system.p is pipe.coefficients.p
        assert pipe.coefficients.c.value == 1.0

    @pytest.mark.parametrize("text", [
        "[system]\ndim = 1\nA0 1 1 = -1 + 0.2*sin(t)\nhistory = constant 0.1\n",
        "[system]\ndim = 1\nA0 1 1 = -2\nhistory = constant 0.1\n",
        _a0_config("A0 1 1 = -1 + 0.2*sin(t)\nA0 2 2 = -1+0.2 * sin(t)"),
        _a0_config("A0 1 1 = -2\nA0 2 2 = -2\nA0 1 2 = 0"),
        _a0_config(""),
    ], ids=["dim 1", "dim 1 constant", "diag(a, a)", "diag(-2, -2)", "zero"])
    def test_a_times_the_identity_integrates_nothing(self, text, monkeypatch):
        monkeypatch.setattr(reduction, "compute_fundamental_matrix", _refuse)
        cfg = load_config_text(text)
        pipe = assemble_pipeline(cfg)
        diagonal = cfg.a0.entries().get((0, 0), 0.0)
        assert pipe.coefficients.provenance == "closed_form"
        if callable(diagonal):
            assert pipe.coefficients.p is diagonal
        else:
            assert pipe.coefficients.p.value == diagonal
        assert pipe.scalar_system.c.value == 1.0

    @pytest.mark.parametrize("diagonal", [
        "A0 1 1 = -1\nA0 2 2 = -2",
        "A0 1 1 = -1\nA0 2 2 = -1\nA0 1 2 = 0.5",
        "A0 1 1 = -1 + 0.2*sin(t)\nA0 2 2 = -1 + 0.2*cos(t)",
        "A0 1 1 = -1",
    ], ids=["diag(-1, -2)", "off-diagonal", "two functions", "one entry"])
    def test_any_other_a0_stays_numerical(self, diagonal):
        assert assemble_pipeline(load_config_text(_a0_config(diagonal))).coefficients.provenance \
            == "numerical"

    def test_case_a_bound_equals_the_typed_rate(self):
        # the bound on A0's own entry is the bound on the same text typed as p
        cfg = _bundled_config("a")
        report, _pipe = fig1_protocol(cfg)
        typed = CoefficientPair.closed_form(parse_expression("-3 + 0.1*sin(5*t)"), 1.0)
        scalar = build_scalar_auxiliary(cfg.system, cfg.a1, typed, cfg.system.f.majorize())
        y = integrate(scalar, cfg.horizon, cfg.solver).norm_grid(report.grid)
        assert y.tobytes() == report.scalar_bounds[0].tobytes()


class TestGeneratedFundamentalSolve:
    # the solve is a vector system generated from the entries of A0: each
    # column of V is one block of n coordinates, with A0's row i, shifted by
    # the mean rate on the diagonal, in the row of coordinate i of every block
    def test_non_normal_time_varying_3x3_matches_an_independent_solve(self):
        from scipy.integrate import solve_ivp

        def a0(t):
            return np.array([[-1.0 + 0.3 * math.sin(t), 2.0 * math.cos(t), 0.5],
                             [0.1, -2.0 + 0.2 * math.cos(2.0 * t), 1.5 * math.sin(t)],
                             [0.3 * math.cos(t), 0.0, -1.5 + math.exp(-t)]])

        A = MatrixFunction(3, {(0, 0): parse_expression("-1 + 0.3*sin(t)"),
                               (0, 1): parse_expression("2*cos(t)"),
                               (0, 2): 0.5,
                               (1, 0): 0.1,
                               (1, 1): parse_expression("-2 + 0.2*cos(2*t)"),
                               (1, 2): parse_expression("1.5*sin(t)"),
                               (2, 0): parse_expression("0.3*cos(t)"),
                               (2, 2): parse_expression("-1.5 + exp(-t)")})
        W = compute_fundamental_matrix(A, 0.0, 5.0, FUND_TOL)
        ref = solve_ivp(lambda t, w: (a0(t) @ w.reshape(3, 3)).ravel(), (0.0, 5.0),
                        np.eye(3).ravel(), method="DOP853", rtol=1e-13, atol=1e-16,
                        dense_output=True)
        for t in np.linspace(0.0, 5.0, 21).tolist():
            expected = ref.sol(t).reshape(3, 3)
            assert np.linalg.norm(W.w(t) - expected) <= 1e-7 * np.linalg.norm(expected)

    def test_a_plain_callable_is_refused(self):
        with pytest.raises(TypeError, match="expected a MatrixFunction"):
            compute_fundamental_matrix(lambda t: -np.eye(2), 0.0, 1.0, FUND_TOL)


def _planar_benchmark_system(forcing_amplitude=0.0, dim=2):
    lam = parse_expression("-3 + 0.1*sin(5*t)")
    a0 = MatrixFunction(dim, {(i, i): lam for i in range(dim)})
    omega = parse_expression("-(1 + 0.1*sin(t) + 0.1*sin(3.14*t))")
    a1 = MatrixFunction(dim, {(0, 1): 1.0, (1, 0): omega})
    poly = PolynomialVectorField(dim, 1, [(1, 0.1, [(1, 1, 3)])])
    from ddebound.vectorfield import DelayedMatrixTerm
    f = NonlinearTerm(dim, 1, poly, (DelayedMatrixTerm(1, 0.5, a1),))
    shape = None
    if forcing_amplitude > 0:
        shape = VectorFunction(dim, {1: parse_expression("sin(10*t)")})
    vs = VectorDelaySystem(dim=dim, A=a0.plus(a1), f=f,
                           forcing_amplitude=forcing_amplitude, forcing_shape=shape,
                           delays=DelaySpec.constant([0.5]),
                           history=HistoryFunction.constant([0.1] * dim), t0=0.0)
    return vs, a1, CoefficientPair.closed_form(lam, 1.0)


class TestBuildScalarAuxiliary:
    def test_linear_diagonal_reduction(self):
        lam = parse_expression("-3 + 0.1*sin(5*t)")
        a0 = MatrixFunction(2, {(0, 0): lam, (1, 1): lam})
        vs = VectorDelaySystem(dim=2, A=a0, f=None, forcing_amplitude=0.0,
                               forcing_shape=None, delays=DelaySpec.none(),
                               history=HistoryFunction.constant([0.6, 0.8]), t0=0.0)
        ss = build_scalar_auxiliary(vs, None, CoefficientPair.closed_form(lam, 1.0),
                                    PolynomialMajorant.zero(1))
        assert not ss.majorant.terms
        assert ss.history(0.0)[0] == 1.0
        traj = integrate(ss, 2.0, DEFAULT)
        d = parse_expression("-3*t - 0.02*cos(5*t) + 0.02")  # int of p
        assert traj.eval(1.5)[0] == pytest.approx(math.exp(d(1.5)), rel=1e-5)

    def test_planar_benchmark_structure(self):
        vs, a1, coeffs = _planar_benchmark_system()
        ss = build_scalar_auxiliary(vs, a1, coeffs, vs.f.majorize())
        # terms: |b| z2^3, 0.5 |A1(t)| z2, folded |A1(t)| z1
        exps = sorted(term.exponents for term in ss.majorant.terms)
        assert exps == [(0, 1), (0, 3), (1, 0)]
        # coefficient values at t = 0: |A1(0)| with omega(0) = 1 is 1
        by_exp = {term.exponents: term for term in ss.majorant.terms}
        assert abs(by_exp[(0, 3)].coeff(0.0)) == pytest.approx(0.1)
        assert abs(by_exp[(0, 1)].coeff(0.0)) == pytest.approx(0.5, rel=1e-12)
        assert abs(by_exp[(1, 0)].coeff(0.0)) == pytest.approx(1.0, rel=1e-12)

    def test_history_norm_match_is_exact(self):
        hist = HistoryFunction.from_expressions([parse_expression("sin(t)"),
                                                 parse_expression("cos(3*t)")])
        vs, a1, coeffs = _planar_benchmark_system()
        vs = VectorDelaySystem(dim=2, A=vs.A, f=vs.f, forcing_amplitude=0.0,
                               forcing_shape=None, delays=vs.delays, history=hist,
                               t0=0.0)
        ss = build_scalar_auxiliary(vs, a1, coeffs, vs.f.majorize())
        for t in np.linspace(-0.5, 0.0, 1000):
            t = float(t)
            assert ss.history(t)[0] == _norm(hist(t))

    def test_forcing_magnitude(self):
        vs, a1, coeffs = _planar_benchmark_system(forcing_amplitude=0.05)
        ss = build_scalar_auxiliary(vs, a1, coeffs, vs.f.majorize())
        t = 0.3
        assert ss.forcing(t) == pytest.approx(0.05 * abs(math.sin(10 * t)))

    def test_remainder_norm_computed_once_per_time_point(self, monkeypatch):
        # a 2x2 |A1(t)| is generated from its entries and calls no
        # spectral_norm; a 3x3 one is one function, which the folded |A1(t)|
        # term and the delayed 0.5 |A1(t)| term share and the generated right
        # side reads once, so each evaluation computes the norm once
        import ddebound.linalg as linalg

        calls = []
        monkeypatch.setattr(linalg, "spectral_norm",
                            lambda m: calls.append(1) or spectral_norm(m))
        for dim, expected in ((2, 0), (3, 3)):
            vs, a1, coeffs = _planar_benchmark_system(dim=dim)
            ss = build_scalar_auxiliary(vs, a1, coeffs, vs.f.majorize())
            calls.clear()
            for t in (0.1, 0.2, 0.3):
                ss.rhs(t, np.array([0.1]), [np.array([0.2])])
            assert len(calls) == expected

    def test_arity_mismatch_rejected(self):
        vs, a1, coeffs = _planar_benchmark_system()
        with pytest.raises(ValueError):
            build_scalar_auxiliary(vs, a1, coeffs, PolynomialMajorant.zero(1))


class TestBuildAutonomousAuxiliary:
    def _scalar(self, p_expr_text):
        vs, a1, _ = _planar_benchmark_system()
        lam = parse_expression(p_expr_text)
        coeffs = CoefficientPair.closed_form(lam, 1.0)
        return build_scalar_auxiliary(vs, a1, coeffs, vs.f.majorize())

    def test_case_a_rate_supremum(self):
        ss = self._scalar("-3 + 0.1*sin(5*t)")
        auto = build_autonomous_auxiliary(ss, 50.0)
        assert auto.p(0.0) == pytest.approx(-2.9, abs=0.01)

    def test_case_b_rate_supremum(self):
        ss = self._scalar("-3 + exp(-t)")
        auto = build_autonomous_auxiliary(ss, 50.0)
        assert auto.p(0.0) == pytest.approx(-2.0, abs=0.01)

    def test_constant_input_identity_at_zero_margin(self):
        cubic = PolynomialMajorant((PolynomialTerm(0.3, (1, 2)),), 2)
        ss = ScalarDelaySystem(p=-1.5, c=1.25, majorant=cubic, forcing=0.2,
                               delays=DelaySpec.constant([0.4]),
                               history=HistoryFunction.constant([0.1]), t0=0.0)
        auto = build_autonomous_auxiliary(ss, 10.0, margin=0.0)
        assert auto.p(0.0) == -1.5
        assert auto.c(0.0) == 1.25
        assert auto.forcing(0.0) == 0.2
        assert abs(auto.majorant.terms[0].coeff(0.0)) == 0.3

    def test_constants_stay_exact_under_a_margin(self):
        # case a has c = 1: sampling it would inflate it to 1.001
        ss = self._scalar("-3 + 0.1*sin(5*t)")
        auto = build_autonomous_auxiliary(ss, 50.0, margin=1e-3)
        assert auto.c(0.0) == 1.0
        assert abs(auto.majorant.terms[0].coeff(0.0)) == 0.1
        assert auto.p(0.0) == pytest.approx(-2.9 * (1.0 - 1e-3), rel=1e-6)

    def test_one_norm_per_grid_point_on_case_a(self, monkeypatch):
        # case a's 2x2 |A1(t)| is generated and calls no spectral_norm; with a
        # 3x3 A1 the two |A1(t)| terms share one norm function, which the
        # sampling reads once per grid point; U is built from the frozen
        # coefficients and samples no norm at all
        import ddebound.cli as cli
        import ddebound.linalg as linalg

        calls = []
        monkeypatch.setattr(linalg, "spectral_norm",
                            lambda m: calls.append(1) or spectral_norm(m))
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                before = len(calls)
                result = fn(*args, **kwargs)
                counts[name] = len(calls) - before
                return result
            return wrapper

        monkeypatch.setattr(cli, "build_autonomous_auxiliary",
                            counted("freeze", build_autonomous_auxiliary))
        text = (resources.files("ddebound") / "configs/planar_case_a.cfg").read_text()
        rate = "-3 + 0.1*sin(5*t)"
        for dim, freeze in ((2, 0), (3, 10_000)):
            # A0 stays a(t) I, so the reduction keeps its closed form
            cfg = cli.load_config_text(text.replace("dim = 2", f"dim = {dim}").replace(
                "history = constant 0.1 0.1", "history = constant" + " 0.1" * dim).replace(
                f"A0 2 2 = {rate}", "\n".join(f"A0 {i} {i} = {rate}" for i in range(2, dim + 1))))
            pipe = cli.assemble_pipeline(cfg)
            pipe.autonomous_system    # the stages are built on first read
            counted("chain", cli.build_linear_chain)(pipe)
            assert counts == {"freeze": freeze, "chain": 0}

    def test_frozen_system_is_valid_up_to_its_horizon(self):
        import ddebound.cli as cli

        pipe = cli.assemble_pipeline(cli._bundled_config("a"), horizon=2.0)
        auto = pipe.autonomous_system
        assert auto.coeff_horizon == 2.0
        with pytest.raises(ValueError, match="coefficients are only valid up to"):
            integrate(auto, pipe.horizon + 1.0)

    def test_frozen_system_dominates_pointwise(self):
        ss = self._scalar("-3 + 0.1*sin(5*t)")
        auto = build_autonomous_auxiliary(ss, 30.0)
        tol = ToleranceSettings(rtol=1e-7, atol=1e-10)
        traj = integrate(ss, 30.0, tol)
        traj_hat = integrate(auto, 30.0, tol)
        report = verify_pointwise_ordering([traj, traj_hat], grid=800, tol=1e-6)
        assert report.holds


class TestNumericalProvenanceBound:
    def test_non_normal_matrix_end_to_end(self):
        # coefficients from the integrated fundamental matrix (no closed form)
        # must still produce a dominating scalar bound chain
        text = """
[system]
dim = 2
t0 = 0
A0 1 1 = -1
A0 1 2 = 0.5 + 0.2*sin(t)
A0 2 2 = -2
delay 1 = 0.4
f 2 = 0.1 ; 1 2 3
history = constant 0.3 0.4
[solver]
rtol = 1e-6
horizon = 10
[output]
grid = 800
"""
        cfg = load_config_text(text, "<numerical>")
        report, pipe = fig1_protocol(cfg)
        assert pipe.coefficients.provenance == "numerical"
        assert report.holds
        # rate at the start equals the top eigenvalue of the symmetric part
        sym_top = (-3.0 + math.sqrt(1.0 + 4 * 0.25 ** 2)) / 2.0
        assert pipe.coefficients.p(0.0) == pytest.approx(sym_top, abs=1e-4)


class TestGridSupremum:
    def test_constants_pass_through(self):
        # constants are exact, with or without a margin
        fns = (ConstantFn(0.3), ConstantFn(0.7), ConstantFn(1.0))
        assert grid_supremum(fns, 0.0, 10.0) == [0.3, 0.7, 1.0]
        assert grid_supremum(fns, 0.0, 10.0, margin=1e-3) == [0.3, 0.7, 1.0]

    def test_rectified_sine(self):
        (sup,) = grid_supremum([lambda t: 0.1 * abs(math.sin(t))], 0.0, 10.0, margin=1e-3)
        assert sup == pytest.approx(0.1, rel=3e-3)
        assert sup >= 0.1 * (1.0 - 1e-6)

    def test_unbounded_sample_rejected(self):
        with pytest.raises(OverflowError):
            grid_supremum([ConstantFn(1.0), lambda t: math.exp(t)], 0.0, 100.0)
