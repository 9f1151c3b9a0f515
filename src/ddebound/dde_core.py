"""Method-of-steps integration of delay differential systems.

The integrator is the explicit embedded Runge-Kutta 5(4) pair of Dormand and
Prince (FSAL, local extrapolation) with the pair's 4th-order continuous
extension (Shampine's free interpolant) as dense output; delayed lookups,
`Trajectory` evaluation and the blow-up crossing all read that polynomial.
Step sizes are capped by the minimal delay, and steps end exactly on the
breaks: for constant delays ``tau_i`` the times ``t0 + sum_i n_i tau_i`` up to
six delays deep (`DelaySpec.breaks`), where the derivative jump at the start
propagates, one order smoother per delay, for time-varying delays the walls
``t0 + k*h_under``, and in both cases the kinks a system reports (the zeros
of the ``|forcing|`` term of the scalar systems).  Every run starts from its
history's value at ``t0``, so the solution is continuous there, the right
side is continuous at every break, and the step after a break reuses the
last stage of the step before it.

`integrate` takes one problem type, `DelayProblem`: the right side
``rhs(t, y, delayed)``, the delays, the history, the start time and the
kinks.
A system class hands its problem over through ``problem(horizon)``, where it
runs its own checks on that horizon; `DelayProblem.problem` returns itself,
so a custom right side is integrated by building a `DelayProblem` directly.
The state is a tuple of Python floats and ``rhs`` is called on it, returning
one float per coordinate: the system classes generate such a right side, and
one written on arrays is read through `on_arrays`.  The step arithmetic is
one source, generated once per state dimension and choice of the delays that
vary (`_generated_step`), which reads the delayed arguments itself; it adds every
sum in one documented order, so no result depends on the BLAS library.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial, reduce
from operator import add, mul
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .expressions import _folded, _generate
from .linalg import MatrixFunction, VectorFunction
from .majorant import PolynomialMajorant
from .timefn import (ConstantFn, TimeFunction, _golden_minimum, _literal, _source_of,
                     as_time_function, locate_zeros, sample)
from .vectorfield import NonlinearTerm

__all__ = [
    "ToleranceSettings",
    "IntegrationError",
    "DelaySpec",
    "HistoryFunction",
    "VectorDelaySystem",
    "ScalarDelaySystem",
    "DelayProblem",
    "Trajectory",
    "StepStats",
    "integrate",
    "on_arrays",
]

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
# PI controller exponents for a 5th-order error estimate, and the elementary
# controller's exponent (first step, rejected steps)
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_ERR_EXPONENT = -1.0 / 5.0
_EPS = float(np.finfo(float).eps)
_MAX_STEPS = 10_000_000
# floats a root of the cap crossing may be stepped up by until it reads the cap
_NUDGE_ULPS = 4
# relative slack of the crossing screen: the Horner evaluation of a step's
# quartic may exceed its bound by a few ulps of that bound
_SCREEN_SLACK = 1e-12
# the rounding of the Bernstein control points, relative to the triangle bound
_HULL_ROUNDING = 16.0 * _EPS
# how many delays deep the breaks of constant delays are followed: a run
# starts from its history, so the solution is continuous at t0 and its
# (k+1)-th derivative jumps at t0 + k*tau; the 6th derivative, which the
# local error of the order-5 pair reads, jumps at depth 5, and the breaks
# are followed one delay further
_BREAK_DEPTH = 6

# Dormand-Prince 5(4): stage nodes, stage coefficients, 5th-order weights
# (the 7th stage is evaluated at the new point and reused as the next first
# stage), error weights (5th minus embedded 4th order, over all 7 stages) and
# the matrix of the 4th-order continuous extension (Shampine 1986), one row
# per stage: y(t + theta*h) = y + sum_j q_j theta^(j+1), q_j = h * sum_s
# _P[s][j] k_s.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_E = (-71.0 / 57600.0, 0.0, 71.0 / 16695.0, -71.0 / 1920.0, 17253.0 / 339200.0,
      -22.0 / 525.0, 1.0 / 40.0)
_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)


def _nonzero(coefficients) -> tuple[tuple[int, float], ...]:
    return tuple((s, c) for s, c in enumerate(coefficients) if c != 0.0)


# every combination of stages the step takes, as ``(stage, coefficient)``
# pairs with the zero tableau entries dropped.  The generated step
# (`_generated_step`) sums ``coefficient * stage`` over these pairs in stage
# order, left to right, and then scales the sum by ``h``: ``y + h * (...)``
# for a stage state and the update, ``h * (...)`` for the error and the dense
# coefficients.
_STAGE_ROWS = tuple(_nonzero(row) for row in _A[1:])
_UPDATE = _nonzero(_B)
_ERROR = _nonzero(_E)
_DENSE = tuple(_nonzero(column) for column in zip(*_P))


# a step's quartic y + sum_j q_j theta^(j+1) in the Bernstein basis of degree
# 4: control point i is sum_j _BERNSTEIN[i, j] (y, q_0, ..., q_3)[j], that is
# b_i = y + sum_{j=1..i} C(i,j)/C(4,j) q_{j-1}
_BERNSTEIN = np.array([[math.comb(i, j) / math.comb(4, j) for j in range(5)]
                       for i in range(5)])


def _norm(x):
    """Euclidean norm over the last axis of ``x``: a number for one vector,
    an array for a stack of them.  Every state and history magnitude reads
    it, and the squares are summed left to right in index order, as in the
    generated norm of a step and of a `VectorFunction`, so a vector, the same
    vector as a row and those norms round alike.  (``np.linalg.norm`` of one
    vector is a dot product and ``np.add.reduce`` sums pairwise from 8
    entries on; either may differ in the last bit.)"""
    if x.ndim == 1:
        values = x.tolist()
        return math.sqrt(reduce(add, map(mul, values, values)))
    return np.sqrt(np.cumsum(x * x, axis=-1)[..., -1])


def _step_floor(t: float) -> float:
    # near the float-representability limit of t; blow-ups must be able to
    # take extremely small steps before the cap is reached
    return 16.0 * _EPS * max(abs(t), 1e-3)


class IntegrationError(RuntimeError):
    """Hard integration failure (step underflow, malformed delay, ...)."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class ToleranceSettings:
    """Solver tolerances and guards.

    ``cap`` ends a run as blown up once the state norm reaches it.  ``trap``,
    when given, ends a run as bounded for good (`Trajectory.termination`
    ``"trapped"``) once the state norm stays at or below it over a whole delay
    window ``[t - h_bar, t]``: the radius of a ball that the solutions cannot
    leave, such as the frozen system's radius (`cli.fig2_protocol`).  It must
    be positive, finite and below ``cap``; the caller vouches that the ball is
    invariant, the integrator only detects the entry."""

    rtol: float = 1e-6
    atol: float = 1e-9
    cap: float = 1e6
    trap: float | None = None
    max_step: float | None = None
    first_step: float | None = None

    def __post_init__(self):
        # a NaN tolerance would make every step size NaN, and an infinite one
        # would switch error control off
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be positive and finite")
        if not self.cap > 0:
            raise ValueError("blow-up cap must be positive")
        if self.trap is not None and not (0 < self.trap < math.inf and self.trap < self.cap):
            raise ValueError(f"trap must be positive, finite and below the cap "
                             f"{self.cap!r}, not {self.trap!r}")
        # a NaN first step never reaches the step floor, `min` drops a NaN
        # step bound, and a step of zero or less divides by zero or underflows
        for name in ("first_step", "max_step"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive or None, not {value!r}")


@dataclass(frozen=True)
class DelaySpec:
    """Delay functions ``h_i(t)``; `bounds` reads their band on the interval
    a run integrates."""

    delays: tuple[TimeFunction, ...]

    @property
    def count(self) -> int:
        return len(self.delays)

    @classmethod
    def none(cls) -> "DelaySpec":
        return cls(())

    @classmethod
    def constant(cls, values: Sequence[float]) -> "DelaySpec":
        vals = [float(v) for v in values]
        if vals and min(vals) <= 0:
            raise ValueError("delays must be positive")
        return cls(tuple(ConstantFn(v) for v in vals))

    @classmethod
    def from_functions(cls, fns: Sequence) -> "DelaySpec":
        return cls(tuple(as_time_function(f) for f in fns))

    def bounds(self, t0: float, horizon: float) -> tuple[float, float]:
        """``(h_bar, h_under)``: the largest and the smallest delay value on
        ``[t0, horizon]``.  A constant delay is read off its value; those that
        vary are read on the one sampling grid (`timefn.sample`, 10,000
        points) with the extremes refined by golden section.  ``(0.0, inf)``
        without delays.  A delay that is not positive or not bounded is an
        error."""
        if not self.delays:
            return 0.0, math.inf
        highs = [fn.value for fn in self.delays if isinstance(fn, ConstantFn)]
        lows = list(highs)
        varying = [fn for fn in self.delays if not isinstance(fn, ConstantFn)]
        if varying:
            grid, rows = sample(varying, t0, horizon)
            for fn, values in zip(varying, rows):
                highs.append(-_refined_minimum(lambda t, fn=fn: -fn(t), grid, -values))
                lows.append(_refined_minimum(fn, grid, values))
        h_bar, h_under = max(highs), min(lows)
        if h_under <= 0:
            raise ValueError(f"minimal delay {h_under!r} is not positive")
        if not math.isfinite(h_bar):
            raise ValueError("delays must be bounded")
        return h_bar, h_under

    def breaks(self, t0: float, horizon: float) -> tuple[float, ...] | None:
        """The ascending times ``t0 + sum_i n_i tau_i`` in ``(t0, horizon)``
        with ``1 <= sum_i n_i <= _BREAK_DEPTH``, when every delay is a
        constant ``tau_i``: where the derivative jump at the start
        propagates, the ``(k+1)``-th derivative at depth ``k``.  Each sum is
        rounded once (``math.fsum``), so one delay gives the times ``t0 +
        k*tau``.  None when a delay varies in time."""
        if not all(isinstance(fn, ConstantFn) for fn in self.delays):
            return None
        values = [fn.value for fn in self.delays]
        times = {t0 + math.fsum(lags) for depth in range(1, _BREAK_DEPTH + 1)
                 for lags in itertools.combinations_with_replacement(values, depth)}
        return tuple(sorted(time for time in times if t0 < time < horizon))

    def merged_with(self, other: "DelaySpec") -> "DelaySpec":
        return DelaySpec(self.delays + other.delays)


def _refined_minimum(fn, grid: np.ndarray, values: np.ndarray) -> float:
    """Smallest of ``values`` (``fn`` sampled on ``grid``), refined by a
    golden-section search over the two grid cells around it."""
    k = int(np.argmin(values))
    t = _golden_minimum(fn, float(grid[max(k - 1, 0)]), float(grid[min(k + 1, grid.size - 1)]))
    return min(float(values[k]), fn(t))


class HistoryFunction:
    """Prescribed solution values on the interval before the start time.

    Three forms are supported: a constant vector, one callable (or
    expression) per coordinate, and a sampled grid with linear
    interpolation.  Evaluation outside the declared domain is an error.
    ``vector`` is the value of a constant history, None for the others.
    """

    def __init__(self, fn: Callable[[float], np.ndarray], dim: int,
                 t_min: float = -math.inf, t_max: float = math.inf):
        self._fn = fn
        self.dim = dim
        self.t_min = t_min
        self.t_max = t_max
        self.vector: np.ndarray | None = None

    @classmethod
    def constant(cls, values) -> "HistoryFunction":
        vec = np.atleast_1d(np.asarray(values, dtype=float))
        history = cls(lambda t: vec, vec.size)
        history.vector = vec
        return history

    @classmethod
    def from_expressions(cls, parts: Sequence) -> "HistoryFunction":
        fns = [as_time_function(p) for p in parts]

        def evaluate(t: float) -> np.ndarray:
            return np.array([f(t) for f in fns])

        return cls(evaluate, len(fns))

    @classmethod
    def from_samples(cls, times: Sequence[float], values) -> "HistoryFunction":
        ts = np.asarray(times, dtype=float)
        ys = np.atleast_2d(np.asarray(values, dtype=float))
        if ys.shape[0] != ts.size:
            ys = ys.T
        if ts.size < 2 or ys.shape[0] != ts.size:
            raise ValueError("sampled history needs >= 2 samples matching the time grid")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("sample times must be strictly increasing")

        def evaluate(t: float) -> np.ndarray:
            return np.array([np.interp(t, ts, ys[:, j]) for j in range(ys.shape[1])])

        return cls(evaluate, ys.shape[1], t_min=float(ts[0]), t_max=float(ts[-1]))

    def __call__(self, t: float) -> np.ndarray:
        if t < self.t_min - 1e-12 or t > self.t_max + 1e-12:
            raise IntegrationError(
                f"history evaluated at t={t!r} outside its domain "
                f"[{self.t_min}, {self.t_max}]", time=t)
        return np.asarray(self._fn(t), dtype=float)

    def covers(self, t_lo: float, t_hi: float) -> bool:
        return self.t_min <= t_lo + 1e-12 and self.t_max >= t_hi - 1e-12

    def reduced(self, reduce: Callable[[np.ndarray], float]) -> TimeFunction:
        """The time function ``t -> reduce(phi(t))``: a `ConstantFn` for a
        constant history, so that checks decide it exactly."""
        if self.vector is not None:
            return ConstantFn(float(reduce(self.vector)))
        return lambda t: float(reduce(self(t)))

    def norm(self) -> "HistoryFunction":
        """Scalar history ``t -> |phi(t)|`` (same arithmetic as the checks),
        itself constant when ``phi`` is."""
        magnitude = self.reduced(_norm)
        if isinstance(magnitude, ConstantFn):
            return HistoryFunction.constant([magnitude.value])
        return HistoryFunction(lambda t: np.array([magnitude(t)]), 1, self.t_min, self.t_max)


@dataclass(frozen=True, eq=False)
class DelayProblem:
    """``y' = rhs(t, y, [y(t - h_i(t))])`` from ``t0`` with ``history`` before it.

    The start value is ``history(t0)``, and a history is required, also
    without delays.  ``kinks`` are extra times, in any order, where the right
    side loses smoothness; the integrator steps onto those inside its interval.
    ``rhs`` takes the state and each delayed value as a sequence of Python
    floats and returns one float per coordinate; a right side written on
    arrays is passed as ``on_arrays(rhs)``.
    """

    rhs: Callable[[float, Sequence[float], Sequence[Sequence[float]]], Sequence[float]]
    delays: DelaySpec
    history: HistoryFunction
    t0: float = 0.0
    kinks: Sequence[float] = ()

    def __post_init__(self):
        if self.history is None:
            raise ValueError("a history is required")

    def problem(self, horizon: float) -> "DelayProblem":
        return self


@dataclass(frozen=True)
class VectorDelaySystem:
    """Vector delay system ``x' = A(t)x + f(t, x, x(t-h_1), ...) + F0*e(t)``: data
    (``A`` a `MatrixFunction`, ``f`` a `NonlinearTerm`, the shape ``e`` a
    `VectorFunction`, each optional) from which `rhs` is generated."""

    dim: int
    A: MatrixFunction | None
    f: NonlinearTerm | None
    forcing_amplitude: float
    forcing_shape: VectorFunction | None
    delays: DelaySpec
    history: HistoryFunction
    t0: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        for part, kind in ((self.A, MatrixFunction), (self.f, NonlinearTerm),
                           (self.forcing_shape, VectorFunction)):
            if part is not None and not isinstance(part, kind):
                raise TypeError(f"expected a {kind.__name__} or None, not {part!r}")
        if self.forcing_amplitude < 0:
            raise ValueError("forcing amplitude must be nonnegative")
        if self.forcing_amplitude > 0 and self.forcing_shape is None:
            raise ValueError("forcing shape required when the forcing amplitude is positive")
        if self.history.dim != self.dim:
            raise ValueError(
                f"history dimension {self.history.dim} != system dimension {self.dim}")
        # generated here, not on first use: the system of a loaded config is
        # shared by all its runs, and each run then does the same work
        object.__setattr__(self, "rhs", self._generated_rhs())

    def _generated_rhs(self):
        """The right side ``rhs(t, y, delayed)`` on a state of Python floats
        (numpy scalars give the same bits), returning a tuple of floats:
        coordinate ``i`` is ``sum_j A_ij(t) x_j + (monomials + sum weight *
        sum_j M_ij(t) x_j(t - h)) + F0 e_i(t)``, each sum in index order, with
        zero matrix entries dropped, constants as literals (a factor 1.0 left
        out), powers as ``float ** int`` and each distinct coefficient read
        once per call into a local."""
        names: dict = {}
        reads: dict[str, str] = {}

        def times(*factors: str) -> str:
            return " * ".join(factor for factor in factors if factor != "1.0") or "1.0"

        def read(value) -> str:
            fn = as_time_function(value)
            source = _source_of(fn, names)
            if isinstance(fn, ConstantFn):
                return source
            return reads.setdefault(source, f"c{len(reads)}")

        def product(matrix: MatrixFunction, columns: list[str]) -> list[str]:
            rows: list[list[str]] = [[] for _ in range(self.dim)]
            for (i, j), value in sorted(matrix.entries().items()):
                rows[i].append(times(read(value), columns[j]))
            return [" + ".join(row) for row in rows]

        states = [[f"s{k}_{j}" for j in range(self.dim)] for k in range(self.delays.count + 1)]
        linear = product(self.A, states[0]) if self.A is not None else [""] * self.dim
        nonlinear: list[list[str]] = [[] for _ in range(self.dim)]
        f = self.f
        for mono in f.poly.monomials if f is not None and f.poly is not None else ():
            nonlinear[mono.coord].append(times(read(mono.coeff), *(
                states[slot][c] if power == 1 else f"{states[slot][c]} ** {power}"
                for slot, c, power in mono.factors)))
        for term in f.matrix_terms if f is not None else ():
            for i, row in enumerate(product(term.matrix, states[term.slot])):
                if row:
                    nonlinear[i].append(times(_literal(term.weight), f"({row})"))
        forcing = [""] * self.dim
        for i, fn in self.forcing_shape.entries if self.forcing_amplitude > 0.0 else ():
            forcing[i] = times(_literal(self.forcing_amplitude), read(fn))
        values = [" + ".join(filter(None, (
            linear[i], f"({' + '.join(nonlinear[i])})" if nonlinear[i] else "", forcing[i])))
            or "0.0" for i in range(self.dim)]
        unpack = [f"{', '.join(state)}, = {f'delayed[{k - 1}]' if k else 'y'}"
                  for k, state in enumerate(states)]
        return _generate("t, y, delayed", f"({', '.join(values)},)", names,
                         [*unpack, *(f"{local} = {source}" for source, local in reads.items())])

    def problem(self, horizon: float) -> DelayProblem:
        if self.forcing_amplitude > 0.0:
            span = max(horizon - self.t0, 20.0)
            sup = float(np.max(sample([self.forcing_shape.norm], self.t0, self.t0 + span)[1]))
            if not 0.95 <= sup <= 1.05:
                raise ValueError(
                    f"forcing shape must have unit sup norm; sampled sup is {sup!r}")
        return DelayProblem(self.rhs, self.delays, self.history, self.t0)


def _check_coeff_horizon(coeff_horizon: float, horizon: float) -> None:
    """Refuse a run past ``coeff_horizon``, the end of the interval a
    comparison system's coefficients were read on."""
    if horizon > coeff_horizon + 1e-9:
        raise ValueError(f"coefficients are only valid up to t={coeff_horizon}, "
                         f"requested horizon {horizon}")


@dataclass(frozen=True)
class ScalarDelaySystem:
    """Scalar comparison system ``y' = p(t)y + c(t)(L(t, y, y(t-h_i)) + g(t))``.

    ``g`` is the nonnegative forcing magnitude.  A persistent perturbation
    (`analysis.build_perturbed_scalar`) is more terms of ``L`` on more delays.
    Histories must be nonnegative and ``c(t) >= 1``.
    """

    p: TimeFunction
    c: TimeFunction
    majorant: PolynomialMajorant
    forcing: TimeFunction
    delays: DelaySpec
    history: HistoryFunction
    t0: float = 0.0
    coeff_horizon: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "p", as_time_function(self.p))
        object.__setattr__(self, "c", as_time_function(self.c))
        object.__setattr__(self, "forcing", as_time_function(self.forcing))
        if self.history.dim != 1:
            raise ValueError("scalar system history must be one-dimensional")
        if self.majorant.arg_count != self.delays.count + 1:
            raise ValueError(
                f"majorant expects {self.majorant.arg_count} arguments but the system "
                f"has {self.delays.count} delays")

    def with_history(self, history: HistoryFunction) -> "ScalarDelaySystem":
        return replace(self, history=history)

    def with_constant_history(self, value: float) -> "ScalarDelaySystem":
        return replace(self, history=HistoryFunction.constant([value]))

    def homogeneous(self) -> "ScalarDelaySystem":
        return replace(self, forcing=as_time_function(0.0))

    @cached_property
    def rhs(self):
        """The right side ``rhs(t, y, delayed)``, one generated function on
        Python floats (numpy scalars give the same bits), returning a
        one-tuple: ``p(t) y + c(t) (L(t, zeta) + |g(t)|)`` in that order, with
        the majorant's terms unrolled and clamped
        (`PolynomialMajorant._clamped_lines`) and every coefficient inlined or
        called once."""
        lags = [f"d{i}" for i in range(self.delays.count)]
        names: dict = {}
        lines = ["z = y[0]", *(f"{d} = delayed[{i}][0]" for i, d in enumerate(lags)),
                 "total = 0.0", *self.majorant._clamped_lines(["z", *lags], names),
                 f"value = total + abs({_source_of(self.forcing, names)})"]
        result = f"({_source_of(self.p, names)} * z + {_source_of(self.c, names)} * value,)"
        return _generate("t, y, delayed", result, names, lines)

    def problem(self, horizon: float) -> DelayProblem:
        """The problem on ``[t0, horizon]``; its kinks are the zeros of the
        forcing magnitude ``|g|``, where it has corners."""
        problem = DelayProblem(self.rhs, self.delays, self.history, self.t0)
        _check_coeff_horizon(self.coeff_horizon, horizon)
        # read where the history is defined: `integrate` refuses one that
        # does not cover the delay band
        h_bar, _h_under = self.delays.bounds(self.t0, horizon)
        lowest = sample([self.history.reduced(np.min)],
                        max(self.t0 - h_bar, self.history.t_min), self.t0)[1]
        if np.min(lowest) < -1e-12:
            raise ValueError("scalar history must be nonnegative")
        grid, (c_values,) = sample([self.c], self.t0, horizon)
        k = int(np.argmax(c_values < 1.0 - 1e-9))
        if c_values[k] < 1.0 - 1e-9:
            raise ValueError(f"condition-number coefficient c({float(grid[k])!r}) < 1")
        return replace(problem, kinks=locate_zeros(self.forcing, self.t0, horizon))


@dataclass(frozen=True)
class StepStats:
    """Counts of one run of the stepping loop: accepted and rejected steps
    (by the error test or for a value that is not finite), right-side
    evaluations, the one at the start time and the first-step probe
    included, and the breaks (walls, propagated breaks and kinks) the run
    stepped onto and went on from.  An attempt counts as six evaluations,
    also one cut short by an arithmetic exception."""

    accepted: int
    rejected: int
    rhs_evals: int
    breaks: int


class Trajectory:
    """Dense piecewise-quartic solution of an integration.

    Each step ``[ts[k], ts[k+1]]`` carries the coefficients ``coeffs[k]`` of
    the Dormand-Prince continuous extension, ``y = ys[k] + sum_j coeffs[k][j]
    * theta^(j+1)`` with ``theta`` the fraction of the step; node values are
    reproduced exactly.  ``t_end`` may precede the last node when integration
    was truncated by blow-up detection, where it is the first time the norm
    reads the cap, and precedes the horizon of a run that ended ``trapped``
    (`ToleranceSettings.trap`).  ``stats`` are the `StepStats` of the run
    that made it, None for a trajectory built otherwise.
    """

    def __init__(self, ts: np.ndarray, ys: np.ndarray,
                 coeffs: np.ndarray, t_end: float, blew_up: bool = False,
                 history: HistoryFunction | None = None, history_span: float = 0.0,
                 stats: StepStats | None = None, trapped: bool = False):
        self.stats = stats
        self.ts = ts
        self.ys = ys
        self.coeffs = coeffs
        self.t_end = float(t_end)
        self.blew_up = blew_up
        self.trapped = trapped
        self.history = history
        self.history_span = history_span

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def dim(self) -> int:
        return self.ys.shape[1]

    @property
    def termination(self) -> str:
        """``"blew_up"`` (the cap was read), ``"trapped"`` (a delay window
        lay inside the trap ball) or ``"completed"`` (the horizon was reached)."""
        return "blew_up" if self.blew_up else "trapped" if self.trapped else "completed"

    def covers(self, lo: float, hi: float) -> bool:
        """Whether ``[lo, hi]`` lies in the domain up to 1e-12, as every evaluation."""
        return self.t_start - 1e-12 <= lo and hi <= self.t_end + 1e-12

    def _check_domain(self, lo: float, hi: float) -> None:
        if not self.covers(lo, hi):
            raise ValueError(f"[{lo!r}, {hi!r}] leaves the trajectory domain "
                             f"[{self.t_start}, {self.t_end}]")

    def eval(self, t: float) -> np.ndarray:
        return self.eval_grid([t])[0]

    def norm_at(self, t: float) -> float:
        return float(_norm(self.eval(t)))

    def _window(self, lo: float | None, hi: float | None) -> tuple[float, float, int, int]:
        """``[lo, hi]`` (by default the whole domain) clipped to the domain,
        and the range ``first:last`` of the steps that overlap it."""
        lo = self.t_start if lo is None else lo
        hi = self.t_end if hi is None else hi
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self._check_domain(lo, hi)
        lo, hi = (min(max(t, self.t_start), self.t_end) for t in (lo, hi))
        ts = self.ts
        first = max(int(np.searchsorted(ts, lo, side="right")) - 1, 0)
        last = min(int(np.searchsorted(ts, hi, side="left")), ts.size - 1)
        return lo, hi, first, last

    def _step_bounds(self, first: int, last: int) -> np.ndarray:
        """A bound on the norm of each step's quartic, for the steps
        ``first:last`` at once: the largest norm of its five Bernstein control
        points (the quartic stays in their convex hull), plus their rounding,
        and never above the triangle bound ``| |y_k| + sum_j |q_kj| |``."""
        ys, coeffs = self.ys[first:last], self.coeffs[first:last]
        triangle = _norm(np.abs(ys) + np.abs(coeffs).sum(axis=1))
        points = _BERNSTEIN @ np.concatenate([ys[:, None, :], coeffs], axis=1)
        hull = _norm(points).max(axis=1)
        return np.minimum(hull + _HULL_ROUNDING * triangle, triangle)

    def crossings(self, level: float, lo: float, hi: float) -> np.ndarray:
        """Ascending times in ``[lo, hi]`` where the state norm equals
        ``level``: the roots of `_level_roots` on every step overlapping the
        interval (a crossing on a node may appear once from each side)."""
        lo, hi, first, last = self._window(lo, hi)
        ts = self.ts
        times = np.concatenate([np.empty(0)] + [
            ts[k] + _level_roots(self.ys[k], self.coeffs[k], level) * (ts[k + 1] - ts[k])
            for k in range(first, last)])
        return times[(times >= lo) & (times <= hi)]

    def first_crossing(self, level: float, lo: float | None = None,
                       hi: float | None = None) -> float | None:
        """First time in ``[lo, hi]`` (by default the whole domain) where the
        state norm reads at or above ``level``; None if there is none.

        Every step is screened at once by `_step_bounds`; only the steps whose
        bound reaches the level are searched, in time order, by
        `_locate_cap_crossing`.  A window ending on a node reads the node's
        value last.
        """
        lo, hi, first, last = self._window(lo, hi)
        ts, ys, coeffs = self.ts, self.ys, self.coeffs
        bound = self._step_bounds(first, last)
        for k in first + np.flatnonzero(bound * (1.0 + _SCREEN_SLACK) >= level):
            ta, tb = float(ts[k]), float(ts[k + 1])
            t = _locate_cap_crossing(ta, tb, ys[k], coeffs[k], level, max(lo, ta), min(hi, tb))
            if t is not None:
                return float(t)
        return hi if hi == ts[last] and float(_norm(ys[last])) >= level else None

    def sup_norm(self, lo: float | None = None, hi: float | None = None) -> float:
        """Largest state norm on ``[lo, hi]`` (by default the whole domain).

        The window ends and inner nodes give a lower bound; the steps whose
        `_step_bounds` exceed it, largest first, are read at the roots of
        ``d/dtheta |y(theta)|^2`` in the window (their real parts, so a
        near-double root is not lost)."""
        lo, hi, first, last = self._window(lo, hi)
        ts, ys, coeffs = self.ts, self.ys, self.coeffs
        best = max(self.norm_at(lo), self.norm_at(hi))
        if last > first + 1:
            best = max(best, float(_norm(ys[first + 1:last]).max()))
        bound = self._step_bounds(first, last)
        for k in first + np.argsort(-bound):
            if bound[k - first] * (1.0 + _SCREEN_SLACK) <= best:
                break
            ta, tb = ts[k], ts[k + 1]
            poly = _norm_squared(ys[k], coeffs[k])
            theta = np.roots((poly[1:] * np.arange(1, 9))[::-1]).real
            times = ta + theta * (tb - ta)
            times = times[(times >= max(lo, ta)) & (times <= min(hi, tb))]
            best = float(np.max(_norm(self.eval_grid(times)), initial=best))
        return best

    def eval_grid(self, grid: np.ndarray) -> np.ndarray:
        """States at every time of ``grid``; bitwise equal to `eval` per point."""
        t = np.asarray(grid, dtype=float).ravel()
        if t.size == 0:
            return np.empty((0, self.dim))
        self._check_domain(float(t.min()), float(t.max()))
        t = np.clip(t, self.t_start, self.t_end)
        ts = self.ts
        if ts.size < 2:
            return np.repeat(self.ys[:1], t.size, axis=0)
        idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)
        ta = ts[idx]
        tb = ts[idx + 1]
        out = _dense(self.ys[idx], np.moveaxis(self.coeffs[idx], 1, 0),
                     ((t - ta) / (tb - ta))[:, None])
        at_a = t == ta
        out[at_a] = self.ys[idx[at_a]]
        at_b = t == tb
        out[at_b] = self.ys[idx[at_b] + 1]
        return out

    def norm_grid(self, grid: np.ndarray) -> np.ndarray:
        return _norm(self.eval_grid(grid))


def _dense(y0, q, theta):
    """Continuous extension ``y0 + sum_j q[j] theta^(j+1)`` in Horner form, on
    the arrays of a `Trajectory`.  The delayed lookups of a run evaluate the
    same expression per coordinate on floats (`_generated_step`), so the two
    agree bit for bit."""
    return y0 + theta * (q[0] + theta * (q[1] + theta * (q[2] + theta * q[3])))


def _initial_step(evaluate, rms, t0, y0, f0, rtol, atol, max_step):
    """Automatic first-step selection (standard two-probe heuristic) on the
    float states ``y0``, ``f0``; ``evaluate(t, y)`` evaluates the right side
    and ``rms`` is the generated root mean square."""
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = rms([v / s for v, s in zip(y0, scale)])
    d1 = rms([f / s for f, s in zip(f0, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, max_step)
    f1 = evaluate(t0 + h0, tuple(v + h0 * f for v, f in zip(y0, f0)))
    d2 = rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1.0 / 5.0))
    return min(100.0 * h0, h1, max_step)


@cache
def _generated_step(dim: int, varying: tuple[bool, ...]) -> SimpleNamespace:
    """The step arithmetic of `integrate` for states of ``dim`` Python
    floats and delays that vary in time where ``varying`` is true, generated
    once as straight-line source.

    Each right-side evaluation is written out as ``rhs(ts, state,
    (past(ts - d0), ...))``, where ``past(time)`` is the run's delayed
    lookup and ``d<i>`` the ``i``-th delay, an argument: a constant delay as
    its float, read as ``ts - d0`` (the bits of ``ts - fn(ts)``), and one
    that varies as its function, read as ``ts - d0(ts)``.  So the
    cache holds no delay, and runs that differ only in their delays' values
    share one step.  The two functions that evaluate take ``rhs, past`` and
    then every delay ``d<i>``, in delay order, before their own arguments.

    ``evaluate(..., t, y)`` is one evaluation at ``(t, y)``.  ``attempt(...,
    t, h, t_new, y, k, atol, rtol)`` takes one Dormand-Prince step of size
    ``h`` from ``(t, y)`` with first stage ``k``, its last stage at
    ``t_new``.  It returns None when a stage, the new state or the error has
    an infinite or NaN entry, else ``(err, y_new,
    k_new, q)``: the scaled RMS error, the new state, its stage and the four
    dense coefficients as one tuple (``q[j]`` of coordinate ``i`` at ``j *
    dim + i``), the last three None when ``err > 1``.  ``horner(y, q,
    theta)`` reads a step's continuous extension (`_dense` per coordinate),
    ``norm(y)`` is `_norm` and ``rms(y)`` the root mean square, the same sum
    of squares over ``dim``.  The combinations follow the rows
    ``_STAGE_ROWS`` ... ``_DENSE`` in their order, and the sums of squares
    the coordinates in index order."""
    coords = range(dim)
    extra = "".join(f"d{i}, " for i in range(len(varying)))

    def names(stem: str) -> list[str]:
        return [f"{stem}{i}" for i in coords]

    def state(values) -> str:
        return f"({', '.join(values)},)"

    def combined(row, i: int) -> str:
        return " + ".join(f"k{s}_{i}" if c == 1.0 else f"{_literal(c)} * k{s}_{i}"
                          for s, c in row)

    def evaluation(values: str) -> str:
        # the right side at the time ``ts``
        delayed = [f"past(ts - d{i}{'(ts)' if varies else ''})"
                   for i, varies in enumerate(varying)]
        return f"rhs(ts, {values}, {state(delayed) if varying else '()'})"

    evaluate = _generate(f"rhs, past, {extra}ts, y", evaluation("y"))
    lines = [f"{state(names('y'))} = y", f"{state(names('k0_'))} = k"]
    for s, row in enumerate(_STAGE_ROWS, 1):
        trial = state(f"y{i} + h * ({combined(row, i)})" for i in coords)
        lines += ["ts = t + h" if _C[s] == 1.0 else f"ts = t + {_C[s]!r} * h",
                  f"{state(names(f'k{s}_'))} = {evaluation(trial)}"]
    lines += [f"n{i} = y{i} + h * ({combined(_UPDATE, i)})" for i in coords]
    lines += ["ts = t_new", f"{state(names('k6_'))} = {evaluation(state(names('n')))}"]
    lines += [f"e{i} = h * ({combined(_ERROR, i)})" for i in coords]
    # the error has every stage but the second with a nonzero weight
    checks = " and ".join(f"_isfinite({v})" for v in names("n") + names("e") + names("k1_"))
    lines += [f"if not ({checks}):", "    return None"]
    lines += [f"x{i} = e{i} / (atol + rtol * max(abs(y{i}), abs(n{i})))" for i in coords]
    sum_lines, total = _folded(f"x{i} * x{i}" for i in coords)
    lines += [*sum_lines, f"err = _sqrt(({total}) / {dim})"]
    lines += ["if err > 1.0:", "    return err, None, None, None"]
    dense = ", ".join(f"h * ({combined(row, i)})" for row in _DENSE for i in coords)
    attempt = _generate(f"rhs, past, {extra}t, h, t_new, y, k, atol, rtol",
                        f"err, {state(names('n'))}, {state(names('k6_'))}, ({dense},)",
                        {"_isfinite": math.isfinite}, lines)
    q = [[f"q{j * dim + i}" for i in coords] for j in range(4)]
    horner = _generate("y, q, theta", state(
        f"y{i} + theta * ({q[0][i]} + theta * ({q[1][i]} + theta * ({q[2][i]} + theta "
        f"* {q[3][i]})))" for i in coords),
        lines=[f"{state(names('y'))} = y", f"{', '.join(sum(q, []))}, = q"])
    sum_lines, squares = _folded(f"y{i} * y{i}" for i in coords)
    squared = [f"{state(names('y'))} = y", *sum_lines]
    norm = _generate("y", f"_sqrt({squares})", lines=squared)
    rms = _generate("y", f"_sqrt(({squares}) / {dim})", lines=squared)
    return SimpleNamespace(evaluate=evaluate, attempt=attempt, horner=horner, norm=norm, rms=rms)


@cache
def _generated_hull(dim: int):
    """``hull(y, q)`` on a step of `_generated_step` (``q[j]`` of coordinate
    ``i`` at ``j * dim + i``): the bound of `Trajectory._step_bounds` on the
    norm of the step's quartic, the largest norm of its Bernstein control
    points (`_BERNSTEIN`) plus their rounding, at most the triangle bound.
    Generated apart from the step, for the runs with a trap only."""
    coords = range(dim)
    ys = [f"y{i}" for i in coords]
    q = [[f"q{j * dim + i}" for i in coords] for j in range(4)]
    basis = [ys, *q]
    lines = [f"{', '.join(ys)}, = y", f"{', '.join(sum(q, []))}, = q"]
    for m, row in enumerate(_BERNSTEIN):
        lines += [f"b{m}_{i} = " + " + ".join(
            basis[j][i] if c == 1.0 else f"{_literal(c)} * {basis[j][i]}"
            for j, c in enumerate(row) if c != 0.0) for i in coords]
        sum_lines, total = _folded((f"b{m}_{i} * b{m}_{i}" for i in coords), f"s{m}")
        lines += sum_lines or [f"s{m} = {total}"]
    lines += [f"a{i} = " + " + ".join(f"abs({column[i]})" for column in basis) for i in coords]
    sum_lines, total = _folded((f"a{i} * a{i}" for i in coords), "a")
    lines += [*sum_lines, f"triangle = _sqrt({total})"]
    return _generate("y, q", f"min(_sqrt(max(s0, s1, s2, s3, s4)) + {_HULL_ROUNDING!r} * triangle, "
                             f"triangle)", lines=lines)


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.flags.writeable = False
    return array


def on_arrays(rhs):
    """The right side ``rhs(t, y, delayed)`` written on arrays, read on a
    state of Python floats: state and delayed values go in as ``(n,)`` arrays
    (the delayed ones read-only, as the history they may be) and the result
    comes back as floats.  Its shape is checked against the state's on every
    call, so a malformed right side fails at the start time and is never
    mistaken for a rejected step."""
    def floats(t, y, delayed):
        f = np.asarray(rhs(t, np.array(y), [_read_only(d) for d in delayed]), dtype=float)
        if f.shape != (len(y),):
            raise ValueError(f"the right side returned shape {f.shape} for states "
                             f"of shape {(len(y),)}")
        return f.tolist()

    return floats


def integrate(system, horizon: float, tol: ToleranceSettings | None = None) -> Trajectory:
    """Integrate ``system.problem(horizon)`` from its start time to ``horizon``.

    The delay band ``(h_bar, h_under)`` is read once, on ``[t0, horizon]``
    (`DelaySpec.bounds`), and the history must cover ``[t0 - h_bar, t0]``.
    The run starts from ``history(t0)``.  Delayed arguments are resolved
    from the history function (at or before the start time) or from
    already-accepted dense segments; the step cap ``h_under`` keeps every
    delayed lookup out of the current step, and a lookup past the accepted
    solution (a delay below its sampled minimum) raises `IntegrationError`.
    Steps end exactly on the breaks, one ascending sequence merged from the
    system's kinks and, for constant delays, the propagated breaks of
    `DelaySpec.breaks` (``t0 + sum_i n_i tau_i``, up to six delays deep), for
    a delay that varies in time the walls ``t0 + k*h_under``.  The right
    side is continuous there, so the step after a break starts from the last
    stage of the step before it, as every step does.
    Integration stops early, at the first time the state norm reads
    ``tol.cap``.  A step that falls below the step floor
    is a blow-up at that time when the state norm is at least ``0.01 *
    tol.cap``, and an `IntegrationError` (underflow) otherwise.
    With ``tol.trap``, integration also stops early, ``trapped``, at the end
    of the first step ``t`` for which every step of ``[t - h_bar, t]`` has a
    quartic whose norm is bounded by ``tol.trap`` (`Trajectory._step_bounds`,
    read only after a step whose end lies in that ball).  The history counts
    only when it is constant and of norm at most ``tol.trap``: such a run is
    trapped at ``t0`` after no step.

    The state is a tuple of Python floats, stepped by the generated step
    arithmetic (`_generated_step`), which calls ``problem.rhs`` on it with
    the delayed values it looks up itself, each constant delay passed in as
    its float; a result of the wrong length fails at the start time.  A
    horizon that leaves no step after the start time (the loop's own end
    test), NaN or infinite, is refused.
    """
    tol = tol or ToleranceSettings()
    if not system.t0 < horizon - 1e-13 * max(1.0, abs(horizon)):
        raise ValueError(f"horizon {horizon!r} leaves no step after the start time "
                         f"{system.t0!r}")
    problem = system.problem(horizon)
    t0 = float(problem.t0)
    delay_fns = problem.delays.delays
    h_bar, h_under = problem.delays.bounds(t0, horizon)

    max_step = min(h_under, horizon - t0)
    if tol.max_step is not None:
        max_step = min(max_step, tol.max_step)

    propagated = problem.delays.breaks(t0, horizon)
    if propagated is None:
        propagated = (t0 + k * h_under for k in itertools.count(1))
    breaks = heapq.merge(sorted(k for k in problem.kinks if t0 < k < horizon), propagated)
    next_break = next(breaks, math.inf)

    history = problem.history
    if not history.covers(t0 - h_bar, t0):
        raise ValueError(f"history must cover [{t0 - h_bar}, {t0}]")
    y0 = tuple(np.atleast_1d(history(t0)).tolist())
    dim = len(y0)
    delays = [fn.value if isinstance(fn, ConstantFn) else fn for fn in delay_fns]
    step = _generated_step(dim, tuple(callable(d) for d in delays))

    nodes_t: list[float] = [t0]
    nodes_y: list = [y0]
    nodes_q: list = []

    lower_guard = t0 - h_bar - 1e-9 * max(1.0, abs(t0) + h_bar)
    # a constant history is read once, as floats, so that a right side
    # writing into its delayed argument cannot change it
    constant = tuple(history.vector.tolist()) if history.vector is not None else None

    def past(tq: float):
        if tq <= t0:
            if tq < lower_guard:
                raise IntegrationError(
                    f"delayed argument t={tq!r} falls below the history interval "
                    f"start {t0 - h_bar!r} (malformed delay)", time=tq)
            if constant is not None:
                return constant
            return np.atleast_1d(history(tq)).tolist()
        idx = bisect_right(nodes_t, tq) - 1
        if idx >= len(nodes_t) - 1:
            # only rounding of t - h(t) may overshoot the last node; more
            # means a delay dipped below the sampled h_under
            if tq - nodes_t[-1] > 1e-12 * max(1.0, abs(tq)):
                raise IntegrationError(
                    f"delayed argument t={tq!r} lies past the accepted solution, "
                    f"which ends at t={nodes_t[-1]!r}: a delay falls below its "
                    f"sampled minimum {h_under!r}", time=tq)
            return nodes_y[-1]
        ta = nodes_t[idx]
        if tq == ta:
            return nodes_y[idx]
        return step.horner(nodes_y[idx], nodes_q[idx], (tq - ta) / (nodes_t[idx + 1] - ta))

    evaluate = partial(step.evaluate, problem.rhs, past, *delays)
    attempt = partial(step.attempt, problem.rhs, past, *delays)
    blow_time: float | None = None
    evaluations = accepted = rejected = stepped_breaks = 0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Python floats raise where arrays overflow to inf
        try:
            evaluations += 1
            k = evaluate(t0, y0)
        except ArithmeticError as exc:
            raise IntegrationError(f"right side is not finite at the start time: {exc}",
                                   time=t0) from exc
        if len(k) != dim:
            raise ValueError(f"the right side returned {len(k)} values for states "
                             f"of shape {(dim,)}")
        if not all(map(math.isfinite, k)):
            raise IntegrationError("right side is not finite at the start time", time=t0)

        # a norm never reads below -inf, so without a trap no step is inside
        trap, hull = (-math.inf, None) if tol.trap is None else (tol.trap, _generated_hull(dim))
        trapped = constant is not None and step.norm(y0) <= trap
        # the steps up to the ``inside``-th accepted one lie in the trap ball
        # back to the time ``entry``
        inside, entry = -1, t0

        if tol.first_step is not None:
            h = min(tol.first_step, max_step)
        else:
            evaluations += 1
            h = _initial_step(evaluate, step.rms, t0, y0, k, tol.rtol, tol.atol, max_step)

        t = t0
        y = y0
        err_prev: float | None = None

        steps = 0
        # a run trapped at the start time takes no step
        end = t0 if trapped else horizon - 1e-13 * max(1.0, abs(horizon))
        while t < end:
            steps += 1
            if steps > _MAX_STEPS:
                raise IntegrationError(f"step budget exhausted at t={t!r}", time=t)
            h_eff = min(h, max_step, horizon - t)
            t_new = t + h_eff if h_eff < horizon - t else horizon
            on_break = False
            near = 1e-12 * max(1.0, abs(t))
            while next_break <= t + near:
                next_break = next(breaks, math.inf)
            if t_new >= next_break - 1e-12 * max(1.0, abs(next_break)):
                t_new = next_break
                h_eff = t_new - t
                on_break = True
            if h_eff < _step_floor(t):
                if step.norm(y) < 0.01 * tol.cap:
                    raise IntegrationError(f"step size underflow at t={t!r}", time=t)
                blow_time = t
                break

            evaluations += 6
            try:
                trial = attempt(t, h_eff, t_new, y, k, tol.atol, tol.rtol)
            except (OverflowError, ValueError, ZeroDivisionError, FloatingPointError):
                trial = None
            if trial is None:
                rejected += 1
                h = 0.25 * h_eff
                err_prev = None
                continue
            err_norm, y_new, k_new, q = trial
            if q is None:
                rejected += 1
                h = h_eff * max(_MIN_FACTOR, _SAFETY * err_norm ** _ERR_EXPONENT)
                err_prev = None
                continue

            accepted += 1
            nodes_t.append(t_new)
            nodes_y.append(y_new)
            nodes_q.append(q)
            norm_new = step.norm(y_new)
            if norm_new >= tol.cap:
                crossing = _locate_cap_crossing(t, t_new, np.asarray(y), np.reshape(q, (4, dim)),
                                                tol.cap, t, t_new)
                blow_time = t_new if crossing is None else crossing
                break
            if norm_new <= trap and hull(y, q) <= trap:
                if inside != accepted - 1:
                    entry = t
                inside = accepted
                if t_new - h_bar >= entry:
                    trapped = True
                    break
            t = t_new
            y = y_new
            k = k_new
            stepped_breaks += on_break
            if err_norm == 0.0:
                factor = _MAX_FACTOR
            elif err_prev is None:
                factor = _SAFETY * err_norm ** _ERR_EXPONENT
            else:
                factor = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            h_next = h_eff * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            # a step cut short to reach a break says nothing against the
            # longer step proposed before the cut
            h = max(h_next, h) if on_break else h_next
            err_prev = err_norm

    ts = np.array(nodes_t)
    blew_up = blow_time is not None
    return Trajectory(ts, np.array(nodes_y), np.array(nodes_q).reshape(len(nodes_q), 4, dim),
                      blow_time if blew_up else ts[-1], blew_up,
                      history=history, history_span=h_bar,
                      stats=StepStats(accepted, rejected, evaluations, stepped_breaks),
                      trapped=trapped)


def _norm_squared(ya, q) -> np.ndarray:
    """Ascending coefficients of the degree-8 polynomial ``|y(theta)|^2`` of
    one step's continuous extension (start value ``ya``, coefficients ``q``)."""
    poly = np.zeros(9)
    for coeffs in np.vstack([ya, q]).T:    # one coordinate, ascending powers
        poly += np.convolve(coeffs, coeffs)
    return poly


def _level_roots(ya, q, level) -> np.ndarray:
    """Ascending real ``theta`` in ``[0, 1]`` where the continuous extension
    of one step (start value ``ya``, coefficients ``q``) has norm ``level``:
    the roots of the degree-8 polynomial ``|y(theta)|^2 - level^2``."""
    poly = _norm_squared(ya, q)
    poly[0] -= level * level
    roots = np.roots(poly[::-1])
    theta = roots.real[roots.imag == 0.0]
    return np.sort(theta[(theta >= 0.0) & (theta <= 1.0)])


def _locate_cap_crossing(ta, tb, ya, q, level, t_lo, t_hi) -> float | None:
    """First time in the window ``[t_lo, t_hi]`` of the step ``[ta, tb]``
    where the norm of its continuous extension (start value ``ya``,
    coefficients ``q``) reads at or above ``level``; None if no time does.

    That is ``t_lo`` when it reads the level already, else a root of
    `_level_roots` stepped up by at most ``_NUDGE_ULPS`` floats until it
    reads the level (a root that does not get there is a touch and is
    skipped), else ``t_hi`` when it reads the level."""
    h = tb - ta

    def reads(t: float) -> bool:
        return float(_norm(_dense(ya, q, (t - ta) / h))) >= level

    if reads(t_lo):
        return t_lo
    for theta in _level_roots(ya, q, level):
        t = max(ta + theta * h, t_lo)
        for _ in range(_NUDGE_ULPS + 1):
            if t > t_hi:
                break
            if reads(t):
                return t
            t = math.nextafter(t, math.inf)
    return t_hi if reads(t_hi) else None
