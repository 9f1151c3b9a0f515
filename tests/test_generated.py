"""The generated coefficients and right sides are bit-identical to the
compositions they replace: the forcing magnitude, the matrix norms, the
linear comparison coefficients, both scalar right sides and the reduction's
splines; and the whole-grid evaluator reads each of them as its calls would.
The vector right side equals a term-by-term sum in Python floats.

Each reference below is the former composition written out: lambdas over
``np.linalg.norm``, over ``spectral_norm``, over ``sum`` and over a per-term
loop.  Floats are compared by their bits, so a signed zero counts.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from ddebound import (DelayProblem, DelaySpec, HistoryFunction, PolynomialMajorant,
                      PolynomialTerm, ScalarDelaySystem, ToleranceSettings, integrate,
                      linearize_majorant, on_arrays, parse_expression)
from ddebound.analysis import build_perturbed_scalar
from ddebound.cli import _bundled_config, assemble_pipeline, build_linear_chain
from ddebound.config import load_config
from ddebound.linalg import MatrixFunction, VectorFunction, spectral_norm
from ddebound.reduction import CoefficientPair, _piecewise_cubic, compute_fundamental_matrix
from ddebound.timefn import ConstantFn, _compose, as_time_function, grid_values

REDUCE_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "reduce.cfg"


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def _same(a, b) -> bool:
    return np.array_equal(_bits(a), _bits(b))


def _config(name):
    return load_config(REDUCE_CONFIG) if name == "reduce" else _bundled_config(name)


@pytest.fixture(scope="module", params=["a", "b", "reduce"])
def pipe(request):
    return assemble_pipeline(_config(request.param))


def _times(pipe, count=1000):
    rng = np.random.default_rng(11)
    return np.concatenate([np.linspace(pipe.config.system.t0, pipe.horizon, count // 2),
                           rng.uniform(pipe.config.system.t0, pipe.horizon,
                                       count - count // 2)]).tolist()


def _shape_value(shape, t):
    """The vector ``e(t)`` of a `VectorFunction`, entry by entry."""
    value = np.zeros(shape.dim)
    for i, fn in shape.entries:
        value[i] = fn(t)
    return value


def _library_norm(shape):
    return lambda t: float(np.linalg.norm(_shape_value(shape, t)))


# -- the former compositions ------------------------------------------------

def _old_clamped(majorant, t, zeta):
    total = 0.0
    for term in majorant.terms:
        value = abs(term.coeff(t))
        if value == 0.0:
            continue
        for i, k in enumerate(term.exponents):
            if k == 0:
                continue
            z = zeta[i]
            if z <= 0.0:
                value = 0.0
                break
            value *= z ** k
        total += value
    return total


def _old_spectral_norm(m):
    m = np.asarray(m, dtype=float)
    if m.shape == (1, 1):
        return abs(float(m[0, 0]))
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    g11 = a * a + c * c
    g22 = b * b + d * d
    g12 = a * b + c * d
    trace = g11 + g22
    disc = math.hypot(g11 - g22, 2.0 * g12)
    return math.sqrt(max(0.5 * (trace + disc), 0.0))


def _old_scalar_rhs(ss, forcing, t, y, delayed):
    state = y[0]
    zeta = [state] + [z[0] for z in delayed]
    value = _old_clamped(ss.majorant, t, zeta) + abs(forcing(t))
    return np.array([ss.p(t) * state + ss.c(t) * value])


def _old_linear(pipe, zeta_tilde):
    """rate, delayed coefficients and forcing shape as lambdas over ``sum``."""
    scalar = pipe.scalar_system
    p, c = pipe.coefficients.p, pipe.coefficients.c
    buckets = [[] for _ in range(scalar.majorant.arg_count)]
    for term in scalar.majorant.terms:
        target = next(i for i, k in enumerate(term.exponents) if k > 0)
        buckets[target].append((term.coeff, zeta_tilde ** (term.degree - 1)))
    mu = [lambda t, b=tuple(b): sum(abs(f(t)) * s for f, s in b) for b in buckets]
    norm = _library_norm(pipe.config.system.forcing_shape)
    rate = lambda t: p(t) + c(t) * abs(mu[0](t))
    delayed = [lambda t, g=m: c(t) * abs(g(t)) for m in mu[1:]]
    if isinstance(c, ConstantFn) and c.value == 1.0:
        shape = norm
    else:
        shape = lambda t: c(t) * norm(t)
    return rate, delayed, shape


def _old_linear_rhs(rate, delayed_coeffs, shape, amplitude, t, y, delayed):
    value = rate(t) * y[0]
    for g, z in zip(delayed_coeffs, delayed):
        value += g(t) * z[0]
    if amplitude != 0.0:
        value += amplitude * shape(t)
    return np.array([value])


def _row(matrix, i, x, t):
    """``sum_j M_ij(t) x_j`` over the nonzero entries of row ``i``, in index
    order; None for an empty row."""
    total = None
    for (row, j), value in sorted(matrix.entries().items()):
        if row == i:
            term = as_time_function(value)(t) * x[j]
            total = term if total is None else total + term
    return total


def _term_by_term_vector_rhs(vs, t, y, delayed):
    """The vector right side of one state in Python floats, term by term:
    ``A(t) x`` row by row, then the monomials and the delayed couplings as one
    group, then ``F0 e(t)``."""
    states = [y.tolist(), *(z.tolist() for z in delayed)]
    out = []
    for i in range(vs.dim):
        nonlinear = []
        for mono in vs.f.poly.monomials if vs.f and vs.f.poly else ():
            if mono.coord == i:
                value = mono.coeff(t)
                for slot, c, power in mono.factors:
                    value *= states[slot][c] ** power
                nonlinear.append(value)
        for term in vs.f.matrix_terms if vs.f else ():
            row = _row(term.matrix, i, states[term.slot], t)
            if row is not None:
                nonlinear.append(term.weight * row)
        linear = None if vs.A is None else _row(vs.A, i, states[0], t)
        parts = [] if linear is None else [linear]
        if nonlinear:
            parts.append(sum(nonlinear[1:], nonlinear[0]))
        if vs.forcing_amplitude > 0.0:
            parts += [vs.forcing_amplitude * fn(t) for k, fn in vs.forcing_shape.entries if k == i]
        out.append(sum(parts[1:], parts[0]) if parts else 0.0)
    return np.array(out)


def _states(rng, count):
    """Stage values of both signs, with exact zeros among them."""
    values = rng.uniform(-0.3, 1.2, count)
    values[::17] = 0.0
    return values


# -- the forcing magnitude --------------------------------------------------

class TestForcingMagnitude:
    @pytest.mark.parametrize("name", ["a", "b", "reduce"])
    def test_equals_the_library_norm_at_10000_points(self, name):
        cfg = _config(name)
        vs = cfg.system
        assert isinstance(vs.forcing_shape, VectorFunction)
        library = _library_norm(vs.forcing_shape)
        grid = np.linspace(cfg.system.t0, cfg.horizon, 10_000).tolist()
        assert _same([vs.forcing_shape.norm(t) for t in grid], [library(t) for t in grid])

    def test_two_entries_within_one_ulp(self):
        shape = VectorFunction(2, {0: parse_expression("sin(10*t)"),
                                   1: parse_expression("0.5*cos(3*t) + 0.1")})
        library = _library_norm(shape)
        for t in np.linspace(0.0, 20.0, 10_000).tolist():
            value = shape.norm(t)
            assert abs(value - library(t)) <= math.ulp(library(t))

    def test_several_entries_sum_their_squares_in_index_order(self):
        entries = {0: parse_expression("sin(t)"), 2: parse_expression("exp(-t)"),
                   1: parse_expression("1.5*cos(7*t)")}
        shape = VectorFunction(3, entries)
        fns = [entries[i].compiled() for i in range(3)]
        for t in np.linspace(0.0, 10.0, 1000).tolist():
            e0, e1, e2 = (f(t) for f in fns)
            assert _same(shape.norm(t), math.sqrt(e0 * e0 + e1 * e1 + e2 * e2))

    def test_constant_entries_fold(self):
        norm = VectorFunction(2, {1: -0.5}).norm
        assert isinstance(norm, ConstantFn) and norm.value == 0.5
        assert _same(VectorFunction(2, {0: 3.0, 1: 4.0}).norm(0.0), 5.0)


# -- the comparison coefficients and right sides ----------------------------

class TestLinearCoefficients:
    def test_equal_the_composition_of_lambdas(self, pipe):
        linear, _constant = build_linear_chain(pipe)
        rate, delayed, shape = _old_linear(pipe, pipe.config.reduction.zeta_tilde)
        times = _times(pipe)
        assert _same([linear.rate(t) for t in times], [rate(t) for t in times])
        for new, old in zip(linear.delayed_coeffs, delayed, strict=True):
            assert _same([new(t) for t in times], [old(t) for t in times])
        assert _same([linear.forcing_shape(t) for t in times], [shape(t) for t in times])

    def test_mu_equals_the_sum_over_its_bucket(self):
        # four terms share the delayed argument's bucket, one constant
        coeffs = [parse_expression(text).compiled()
                  for text in ("sin(t)", "3*cos(2*t)", "exp(-t) - 0.5")] + [0.7]
        L = PolynomialMajorant(tuple(PolynomialTerm(c, (0, k + 1))
                                     for k, c in enumerate(coeffs)), 2)
        lc = linearize_majorant(L, 0.3)
        assert isinstance(lc.mu[0], ConstantFn) and lc.mu[0].value == 0.0
        scales = [0.3 ** k for k in range(4)]
        fns = [c if callable(c) else (lambda t, v=c: v) for c in coeffs]
        for t in np.linspace(0.0, 10.0, 1000).tolist():
            assert _same(lc.mu[1](t), sum(abs(f(t)) * s for f, s in zip(fns, scales)))

    def test_rhs_equals_the_composition(self, pipe):
        linear, constant = build_linear_chain(pipe)
        rate, delayed, shape = _old_linear(pipe, pipe.config.reduction.zeta_tilde)
        rng = np.random.default_rng(5)
        times = _times(pipe)
        ys, zs = _states(rng, len(times)), _states(rng, len(times))
        for amplitude in (0.0, 0.37):
            forced = replace(linear, forcing_amplitude=amplitude)
            for t, y, z in zip(times, ys, zs):
                args = (t, np.array([y]), [np.array([z])])
                assert _same(forced.rhs(*args),
                             _old_linear_rhs(rate, delayed, shape, amplitude, *args))
        # the constant-coefficient U: literals in place of calls
        for t, y, z in zip(times[:50], ys, zs):
            args = (t, np.array([y]), [np.array([z])])
            assert _same(constant.rhs(*args), _old_linear_rhs(
                constant.rate, constant.delayed_coeffs, constant.forcing_shape,
                constant.forcing_amplitude, *args))


class TestVectorRhs:
    @pytest.mark.parametrize("forced", [True, False])
    def test_equals_the_term_loop(self, pipe, forced):
        vs = pipe.config.system
        if not forced:
            vs = replace(vs, forcing_amplitude=0.0, forcing_shape=None)
        rng = np.random.default_rng(13)
        times = _times(pipe)
        ys = _states(rng, len(times) * vs.dim).reshape(len(times), vs.dim)
        zs = [_states(rng, ys.size).reshape(ys.shape) for _ in range(vs.delays.count)]

        for k, t in enumerate(times):
            delayed = [z[k] for z in zs]
            assert _same(vs.rhs(t, ys[k], delayed),
                         _term_by_term_vector_rhs(vs, t, ys[k], delayed))


class TestScalarRhs:
    def _check(self, ss, forcing, times, rng):
        ys = _states(rng, len(times))
        zs = [_states(rng, len(times)) for _ in range(ss.delays.count)]
        for k, t in enumerate(times):
            args = (t, np.array([ys[k]]), [np.array([z[k]]) for z in zs])
            assert _same(ss.rhs(*args), _old_scalar_rhs(ss, forcing, *args))

    def test_equals_the_term_loop(self, pipe):
        vs = pipe.config.system
        norm = _library_norm(vs.forcing_shape)
        forcing = lambda t: vs.forcing_amplitude * norm(t)
        assert _same([pipe.scalar_system.forcing(t) for t in _times(pipe)],
                     [forcing(t) for t in _times(pipe)])
        self._check(pipe.scalar_system, forcing, _times(pipe), np.random.default_rng(7))
        homogeneous = pipe.scalar_system.homogeneous()
        self._check(homogeneous, homogeneous.forcing, _times(pipe), np.random.default_rng(8))

    def test_delayed_matrix_coefficient(self, pipe):
        # the majorant coefficient |weight| * |A1(t)| of the delayed coupling
        f = pipe.config.system.f
        (term,) = f.matrix_terms
        coeff = f.majorize().terms[-1].coeff
        norm = term.matrix.norm
        times = _times(pipe)
        assert _same([coeff(t) for t in times], [abs(term.weight) * norm(t) for t in times])

    def test_perturbed_system(self, pipe):
        # a zero constant term, a coefficient that vanishes on half the
        # times, a constant term and a delay-only term; the perturbation's
        # terms follow the system's, so the sum is (L + L_R) + |g|
        bump = PolynomialMajorant((
            PolynomialTerm(0.0, (1, 1, 0)),
            PolynomialTerm(lambda t: max(0.0, math.sin(t)), (1, 0, 2)),
            PolynomialTerm(1e-3, (0, 0, 0)),
            PolynomialTerm(parse_expression("0.2*cos(3*t)"), (0, 2, 1)),
        ), 3, allow_constant_terms=True)
        base, extra = pipe.scalar_system, DelaySpec.constant([0.51, 0.7])
        ss = build_perturbed_scalar(base, bump, extra)
        m = base.delays.count
        assert ss.delays.delays == base.delays.delays + extra.delays
        assert [(term.coeff, term.exponents) for term in ss.majorant.terms] == [
            *((term.coeff, term.exponents + (0, 0)) for term in base.majorant.terms),
            *((term.coeff, (term.exponents[0], *(0,) * m, *term.exponents[1:]))
              for term in bump.terms)]
        self._check(ss, ss.forcing, _times(pipe), np.random.default_rng(9))

    def test_a_coefficient_read_by_two_terms_is_called_once(self):
        calls = []

        def coeff(t):
            calls.append(t)
            return 0.5 + math.sin(t) ** 2

        majorant = PolynomialMajorant((PolynomialTerm(coeff, (2, 0)),
                                       PolynomialTerm(coeff, (0, 1))), 2)
        ss = ScalarDelaySystem(p=-1.0, c=1.0, majorant=majorant, forcing=0.0,
                               delays=DelaySpec.constant([0.5]),
                               history=HistoryFunction.constant([0.1]))
        times = [0.1, 0.2, 0.3]
        self._check(ss, ss.forcing, times, np.random.default_rng(10))
        calls.clear()
        for t in times:
            ss.rhs(t, np.array([0.3]), [np.array([0.2])])
        assert calls == times

    def test_majorant_evaluate_equals_the_term_loop(self, pipe):
        majorant = pipe.scalar_system.majorant
        rng = np.random.default_rng(3)
        for t in _times(pipe, 300):
            zeta = tuple(rng.uniform(0.0, 2.0, majorant.arg_count).tolist())
            assert _same(majorant.evaluate(t, zeta), _old_clamped(majorant, t, zeta))


# -- the reduction's splines ------------------------------------------------

class TestDirectSpline:
    def _points(self, knots, rng):
        mids = 0.5 * (knots[:-1] + knots[1:])
        span = knots[-1] - knots[0]
        return np.concatenate([
            knots, mids, [knots[0], knots[-1], np.nextafter(knots[-1], -np.inf),
                          np.nextafter(knots[0], np.inf)],
            rng.uniform(knots[0], knots[-1], 2000),
            rng.uniform(knots[0] - 0.2 * span, knots[0], 50),
            rng.uniform(knots[-1], knots[-1] + 0.2 * span, 50)]).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_library_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        knots = np.cumsum(rng.uniform(1e-3, 0.5, 300))
        spline = CubicSpline(knots, np.sin(knots) + rng.normal(0.0, 0.1, knots.size))
        direct = _piecewise_cubic(spline)
        points = self._points(knots, rng)
        assert _same([direct(s) for s in points], [float(spline(s)) for s in points])

    @pytest.fixture(scope="class")
    def reduction(self):
        cfg = load_config(REDUCE_CONFIG)
        W = compute_fundamental_matrix(cfg.a0, cfg.system.t0, cfg.horizon,
                                       ToleranceSettings(rtol=1e-8, atol=1e-12, cap=math.inf))
        ts = W.trajectory.ts
        knots = np.empty(2 * ts.size - 1)
        knots[0::2] = ts
        knots[1::2] = 0.5 * (ts[:-1] + ts[1:])
        return cfg, W, CoefficientPair.from_fundamental(W), knots

    def test_reduction_coefficients(self, reduction):
        # p and c of the numerical reduction read as CubicSpline.__call__ would
        _cfg, W, pair, knots = reduction
        _sigma_max, condition, rate = W.spectra(knots)
        points = self._points(knots, np.random.default_rng(4))
        for direct, values in ((pair.p, rate), (pair.c, condition)):
            spline = CubicSpline(knots, values)
            assert _same([direct(s) for s in points], [float(spline(s)) for s in points])

    def test_whole_grid_equals_the_calls(self, reduction):
        # the sampling grid of 10,000 points, the knots and the points beside them
        cfg, _W, pair, knots = reduction
        times = np.concatenate([np.linspace(cfg.system.t0, cfg.horizon, 10_000), knots,
                                np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        rows, scalar_calls = _scalar_calls_of_generated(
            lambda: grid_values([pair.p, pair.c, _compose("{} * {}", pair.c, pair.p)], times))
        assert scalar_calls == 0
        for fn, row in zip((pair.p, pair.c), rows):
            assert _same(fn.on_grid(times), row)
            assert _same(row, [fn(s) for s in times.tolist()])
        assert _same(rows[2], rows[1] * rows[0])


# -- constant histories ----------------------------------------------------

class TestConstantHistories:
    def test_norm_of_a_constant_history_is_constant(self):
        history = HistoryFunction.constant([0.3, -0.4])
        norm = history.norm()
        assert _same(norm.vector, [float(np.linalg.norm(history.vector))])
        assert _same(norm(-1.0), [0.5])

    def test_stacked_lookups_equal_the_per_member_calls(self, pipe):
        vs = replace(pipe.config.system, forcing_amplitude=0.0, forcing_shape=None)
        value = np.array([0.3, -0.2])
        called = HistoryFunction(lambda t: value, 2)
        assert called.vector is None
        x = integrate(replace(vs, history=HistoryFunction.constant(value)), 10.0)
        y = integrate(replace(vs, history=called), 10.0)
        assert _same(x.ys, y.ys) and _same(x.coeffs, y.coeffs)

    def test_right_side_cannot_write_into_a_history(self):
        seen = []

        def rhs(t, y, delayed):
            seen.append(delayed[0].flags.writeable)
            return -delayed[0]

        history = HistoryFunction.constant([1.0])
        integrate(DelayProblem(on_arrays(rhs), DelaySpec.constant([1.0]), history), 0.5)
        assert seen and not any(seen)
        assert _same(history.vector, [1.0])


# -- the matrix norms --------------------------------------------------------

class TestMatrixNorm:
    @pytest.mark.parametrize("name", ["a", "b", "reduce"])
    def test_equals_the_closed_form_at_10000_points(self, name):
        cfg = _config(name)
        times = np.linspace(cfg.system.t0, cfg.horizon, 10_000).tolist()
        for matrix in (cfg.a0, cfg.a1, cfg.system.A):
            assert not matrix.is_constant
            expected = [_old_spectral_norm(matrix(t)) for t in times]
            assert _same([matrix.norm(t) for t in times], expected)
            assert _same([spectral_norm(matrix(t)) for t in times], expected)

    def test_constant_entries_and_one_dimension(self):
        wave = parse_expression("0.3*sin(2*t) - 0.1")
        times = np.linspace(-3.0, 3.0, 2001).tolist()
        for entries in ({(0, 0): wave, (0, 1): -0.0, (1, 0): 2.5, (1, 1): lambda t: -t},
                        {(1, 0): wave}, {(0, 1): lambda t: 1e-170 * t, (1, 1): 1e-170}):
            matrix = MatrixFunction(2, entries)
            assert _same([matrix.norm(t) for t in times],
                         [_old_spectral_norm(matrix(t)) for t in times])
        assert _same(MatrixFunction(2, {(0, 1): -3.0, (1, 1): 4.0}).norm.value, 5.0)
        line = MatrixFunction(1, {(0, 0): wave})
        assert _same([line.norm(t) for t in times],
                     [_old_spectral_norm(line(t)) for t in times])


# -- the whole-grid evaluator -----------------------------------------------

def _scalar_calls_of_generated(thunk):
    """``thunk()`` and the number of calls of generated functions and spline
    evaluators it made with a scalar time, that is outside a whole-array run."""
    calls = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if (event == "call" and code.co_name in ("_generated", "evaluate")
                and not isinstance(frame.f_locals.get(code.co_varnames[0]), np.ndarray)):
            calls.append(frame)

    sys.setprofile(profile)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, len(calls)


def _coefficient_reads(pipe):
    """Every coefficient read of the comparison systems of ``pipe``, by name."""
    scalar, vs = pipe.scalar_system, pipe.config.system
    linear, constant = build_linear_chain(pipe)
    mu = linearize_majorant(scalar.majorant, pipe.config.reduction.zeta_tilde).mu
    (coupling,) = vs.f.matrix_terms
    reads = {"p": scalar.p, "c": scalar.c, "forcing": scalar.forcing, "|e|": vs.forcing_shape.norm,
             "|A|": vs.A.norm, "|A1|": coupling.matrix.norm,
             "rate": linear.rate, "shape": linear.forcing_shape,
             "U rate": constant.rate, "U shape": constant.forcing_shape}
    for name, fns in (("L", [term.coeff for term in scalar.majorant.terms]), ("mu", mu),
                      ("g", linear.delayed_coeffs), ("U g", constant.delayed_coeffs),
                      ("L hat", [term.coeff for term in pipe.autonomous_system.majorant.terms])):
        reads.update({f"{name}{k}": fn for k, fn in enumerate(fns)})
    return reads


class TestGridValues:
    def test_rows_equal_the_calls_at_10000_points(self, pipe):
        reads = _coefficient_reads(pipe)
        times = np.linspace(pipe.config.system.t0, pipe.horizon, 10_000)
        rows, scalar_calls = _scalar_calls_of_generated(
            lambda: grid_values(list(reads.values()), times))
        assert scalar_calls == 0
        for (name, fn), row in zip(reads.items(), rows, strict=True):
            assert _same(row, [fn(t) for t in times.tolist()]), name

    @pytest.mark.parametrize("text", ["exp(-t/3) * 2^sin(t) - t^1.5 / (1 + t)",
                                      "abs(cos(3*t))^0.25 * exp(sin(t)) - (t/7)^3",
                                      "exp(t/5)^2 + cos(t)^2 - 1/exp(t)"])
    def test_exp_and_powers(self, text):
        fn = parse_expression(text).compiled()
        times = np.linspace(0.0, 50.0, 10_000)
        (row,), scalar_calls = _scalar_calls_of_generated(lambda: grid_values([fn], times))
        assert scalar_calls == 0
        assert _same(row, [fn(t) for t in times.tolist()])

    def test_a_generated_function_reads_an_opaque_one_once_per_time(self):
        calls = []

        def opaque(t):
            calls.append(t)
            return math.sin(t) ** 2

        fn = _compose("{} * {} + abs({})", parse_expression("exp(-t) + 0.5").compiled(),
                      opaque, opaque)
        times = np.linspace(0.0, 10.0, 10_000)
        (row,) = grid_values([fn], times)
        assert calls == times.tolist()
        assert _same(row, [fn(t) for t in times.tolist()])

    def test_constants_are_filled_without_a_call(self):
        rows = grid_values([ConstantFn(-0.0), ConstantFn(2.5)], np.linspace(0.0, 1.0, 7))
        assert _same(rows, [[-0.0] * 7, [2.5] * 7])

    @pytest.mark.parametrize("text, error", [
        ("1/(t - 2)", ZeroDivisionError),
        ("1/(1/(t - 2))", ZeroDivisionError),        # finite in numpy's arithmetic
        ("exp(1000*t)", OverflowError),
        ("exp(1000*(t - 3)) + 1/(t - 1)", ZeroDivisionError),   # t = 1 comes first
        ("(t - 3)^0.5", ValueError),
    ])
    def test_errors_are_those_of_the_calls(self, text, error):
        fn = parse_expression(text).compiled()
        times = np.linspace(0.0, 4.0, 9)
        with pytest.raises(error) as calls:
            [fn(t) for t in times.tolist()]
        with pytest.raises(error) as grid:
            grid_values([fn], times)
        assert str(grid.value) == str(calls.value)

    def test_overflow_without_an_exception_gives_the_values_of_the_calls(self):
        fn = parse_expression("(1e300*t) * (1e300*t) - 1e300*t").compiled()
        times = np.linspace(0.0, 4.0, 9)
        assert _same(grid_values([fn], times)[0], [fn(t) for t in times.tolist()])
