"""Method-of-steps integration of delay differential systems.

The integrator is the explicit embedded Runge-Kutta 5(4) pair of Dormand and
Prince (FSAL, local extrapolation) with the pair's 4th-order continuous
extension (Shampine's free interpolant) as dense output; delayed lookups,
`Trajectory` evaluation and the blow-up crossing all read that polynomial.
Step sizes are capped by the minimal delay, and steps end exactly on the walls
``t0 + k*h_under`` and on the kinks a system reports (the zeros of the
``|forcing|`` term of the scalar systems), so no step spans a point where the
right side loses smoothness.  At such a break the stages at the end of the
step read delayed values from the left and the next step re-evaluates its
first stage instead of reusing the last one, so a history that jumps at the
start time (the Cauchy function) is seen from the correct side.  No further
discontinuity tracking is performed.

`integrate` takes one problem type, `DelayProblem`: the right side
``rhs(t, y, delayed)``, the delays, the history, the start time, an optional
start value that differs from the history (a jump at ``t0``) and the kinks.
A system class hands its problem over through ``problem(horizon)``, where it
runs its own checks on that horizon; `DelayProblem.problem` returns itself,
so a custom right side is integrated by building a `DelayProblem` directly.
`integrate_batch` runs the same loop for several histories of one problem,
which share its delays, walls and kinks: the members form one flat state on
one step sequence, and the right side sees them as a ``(B, n)`` array.  The
step arithmetic is one source, generated once per state dimension
(`_generated_step`) and read on a lone state's Python floats or on a batch's
one flat array; it adds every sum in one documented order, so a batch member
has the bits of its lone run and no result depends on the BLAS library.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import repeat
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .expressions import _generate
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
    "integrate_batch",
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
# (`_generated_step`, on floats or on a batch's flat array) sums ``coefficient
# * stage`` over these pairs in stage order, left to right, and then scales
# the sum by ``h``: ``y + h * (...)`` for a stage state and the update, ``h *
# (...)`` for the error and the dense coefficients.
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
    it, so a vector and the same vector as a row round alike; below 8
    entries the squares are summed in index order, as in the generated norm
    of a `VectorFunction`.  (``np.linalg.norm`` of one vector is a dot
    product and may differ from both in the last bit.)"""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


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
    """Solver tolerances and guards."""

    rtol: float = 1e-6
    atol: float = 1e-9
    cap: float = 1e6
    max_step: float | None = None
    first_step: float | None = None

    def __post_init__(self):
        # a NaN tolerance would make every step size NaN, and an infinite one
        # would switch error control off
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be positive and finite")
        if not self.cap > 0:
            raise ValueError("blow-up cap must be positive")
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
        ``[t0, horizon]``, read on the one sampling grid (`timefn.sample`,
        10,000 points) with the extremes refined by golden section; constant
        delays are decided exactly, without sampling.  ``(0.0, inf)`` without
        delays.  A delay that is not positive or not bounded is an error."""
        if not self.delays:
            return 0.0, math.inf
        grid, rows = sample(self.delays, t0, horizon)
        h_bar = max(-_refined_minimum(lambda t, fn=fn: -fn(t), grid, -values)
                    for fn, values in zip(self.delays, rows))
        h_under = min(_refined_minimum(fn, grid, values) for fn, values in zip(self.delays, rows))
        if h_under <= 0:
            raise ValueError(f"minimal delay {h_under!r} is not positive")
        if not math.isfinite(h_bar):
            raise ValueError("delays must be bounded")
        return h_bar, h_under

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

    The start value is ``history(t0)`` unless ``y0`` is given; a different
    ``y0`` is a jump at ``t0`` that delayed lookups see from the correct side.
    ``history`` may be omitted only when there are no delays and ``y0`` is
    given.  ``kinks`` are extra times where the right side loses smoothness;
    the integrator steps onto those inside its interval.  A lone run calls
    ``rhs.on_floats`` where the right side has it (the same function on a
    state of Python floats, returning floats, as the system classes give),
    and any other right side through one wrapper, arrays in and floats out.
    """

    rhs: Callable[[float, np.ndarray, Sequence[np.ndarray]], np.ndarray]
    delays: DelaySpec
    history: HistoryFunction | None
    t0: float = 0.0
    y0: np.ndarray | None = None
    kinks: Sequence[float] = ()

    def __post_init__(self):
        if self.history is None and (self.delays.delays or self.y0 is None):
            raise ValueError("a history is required with delays or without a start value")

    def problem(self, horizon: float) -> "DelayProblem":
        return self


# the generated vector right side reads a lone state as Python floats and
# returns floats, and reads a batch as columns, whose powers are taken entry
# by entry as ``float ** int`` (numpy's array power rounds differently): each
# row has the lone state's bits
_ONE_STATE = {"_spow": pow}
_BATCH = {"_columns": attrgetter("T"), "_empty": np.empty,
          "_spow": lambda column, power: np.fromiter(map(pow, column.tolist(), repeat(power)),
                                                     float, column.size)}


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
        object.__setattr__(self, "_rhs", self._generated_rhs())

    def rhs(self, t: float, y: np.ndarray, delayed: Sequence[np.ndarray]) -> np.ndarray:
        """Right side for one state ``(n,)`` or a batch of states ``(B, n)``."""
        if y.ndim == 1:
            return np.array(self._rhs[0](t, y.tolist(), [z.tolist() for z in delayed]))
        return self._rhs[1](t, y, delayed)

    def _generated_rhs(self):
        """`rhs` on a lone state of Python floats (returning a tuple of
        floats) and on a batch, from one source: coordinate ``i`` is ``sum_j
        A_ij(t) x_j + (monomials + sum weight * sum_j M_ij(t) x_j(t - h)) + F0
        e_i(t)``, each sum in index order, with zero matrix entries dropped,
        constants as literals (a factor 1.0 left out) and each distinct
        coefficient read once per call into a local."""
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
                states[slot][c] if power == 1 else f"_spow({states[slot][c]}, {power})"
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
        reads_lines = [f"{local} = {source}" for source, local in reads.items()]

        def unpack(columns: str) -> list[str]:
            return [f"{', '.join(state)}, = {columns.format(f'delayed[{k - 1}]' if k else 'y')}"
                    for k, state in enumerate(states)]

        floats = _generate("t, y, delayed", f"({', '.join(values)},)", {**names, **_ONE_STATE},
                           unpack("{}") + reads_lines)
        batch = _generate("t, y, delayed", "out", {**names, **_BATCH},
                          [*unpack("_columns({})"), *reads_lines,
                           "out = _empty(y.shape)", "columns = out.T",
                           *(f"columns[{i}] = {value}" for i, value in enumerate(values))])
        return floats, batch

    def problem(self, horizon: float) -> DelayProblem:
        if self.forcing_amplitude > 0.0:
            span = max(horizon - self.t0, 20.0)
            sup = float(np.max(sample([self.forcing_shape.norm], self.t0, self.t0 + span)[1]))
            if not 0.95 <= sup <= 1.05:
                raise ValueError(
                    f"forcing shape must have unit sup norm; sampled sup is {sup!r}")
        return DelayProblem(_with_floats(self.rhs, self._rhs[0]), self.delays, self.history,
                            self.t0)


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

    def rhs(self, t: float, y: np.ndarray, delayed: Sequence[np.ndarray]) -> np.ndarray:
        return np.array(self._rhs(t, y, delayed))

    @cached_property
    def _rhs(self):
        """`rhs` as one generated function on Python floats (numpy scalars
        give the same bits), returning a one-tuple: ``p(t) y + c(t) (L(t,
        zeta) + |g(t)|)`` in that order, with the majorant's terms unrolled
        and clamped (`PolynomialMajorant._clamped_lines`) and every
        coefficient inlined or called once."""
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
        problem = DelayProblem(_with_floats(self.rhs, self._rhs), self.delays, self.history,
                               self.t0)
        if horizon > self.coeff_horizon + 1e-9:
            raise ValueError(
                f"coefficients are only valid up to t={self.coeff_horizon}, "
                f"requested horizon {horizon}")
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
    (by the error test or for a value that is not finite) and right-side
    evaluations, the first-step probe included."""

    accepted: int
    rejected: int
    rhs_evals: int


class Trajectory:
    """Dense piecewise-quartic solution of an integration.

    Each step ``[ts[k], ts[k+1]]`` carries the coefficients ``coeffs[k]`` of
    the Dormand-Prince continuous extension, ``y = ys[k] + sum_j coeffs[k][j]
    * theta^(j+1)`` with ``theta`` the fraction of the step; node values are
    reproduced exactly.  ``t_end`` may precede the last node when integration
    was truncated by blow-up detection.  ``stats`` are the `StepStats` of the
    run that made it (the members of a batch share their run's), None for a
    trajectory built otherwise.
    """

    def __init__(self, ts: np.ndarray, ys: np.ndarray,
                 coeffs: np.ndarray, t_end: float, blew_up: bool = False,
                 blow_time: float | None = None,
                 history: HistoryFunction | None = None, history_span: float = 0.0,
                 stats: StepStats | None = None):
        self.stats = stats
        self.ts = ts
        self.ys = ys
        self.coeffs = coeffs
        self.t_end = float(t_end)
        self.blew_up = blew_up
        self.blow_time = blow_time
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
        return "blew_up" if self.blew_up else "completed"

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
    arrays: the nodes of a `Trajectory` and the delayed lookups of a batch,
    whose generated step reads it as its ``horner``.  A lone state's lookups
    run the same expression per coordinate on floats (`_generated_step`), so
    all of them agree bit for bit."""
    return y0 + theta * (q[0] + theta * (q[1] + theta * (q[2] + theta * q[3])))


def _member_rms(x: np.ndarray, members: int) -> list[float]:
    """Root mean square of each member's slice of the flat vector ``x``: the
    mean is the sum of the squares (numpy's pairwise order) over the count."""
    squares = (x * x).reshape(members, -1)
    return np.sqrt(np.add.reduce(squares, axis=1) / squares.shape[1]).tolist()


def _initial_step(eval_rhs, t0, y0, f0, rtol, atol, max_step, members):
    """Automatic first-step selection (standard two-probe heuristic) on the
    flat arrays ``y0``, ``f0``, the smallest over the members of a batch."""
    scale = atol + rtol * np.abs(y0)
    d0s = _member_rms(y0 / scale, members)
    d1s = _member_rms(f0 / scale, members)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
             for d0, d1 in zip(d0s, d1s))
    h0 = min(h0, max_step)
    y1 = y0 + h0 * f0
    f1 = eval_rhs(t0 + h0, y1)
    d2s = [d / h0 for d in _member_rms((f1 - f0) / scale, members)]
    h1 = min(max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
             else (0.01 / max(d1, d2)) ** (1.0 / 5.0)
             for d1, d2 in zip(d1s, d2s))
    return min(100.0 * h0, h1, max_step)


def _pairwise(terms: Sequence[str]) -> str:
    """Source of the sum of ``terms`` in the order of numpy's ``add.reduce``
    over one contiguous row, the order of `_norm` and `_member_rms`: left to
    right below 8 terms; up to 128 terms, 8 interleaved partial sums joined
    pairwise and then the rest in order; beyond, the two halves (the first a
    multiple of 8 long) summed so and added."""
    n = len(terms)
    if n < 8:
        return " + ".join(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return f"({_pairwise(terms[:half])}) + ({_pairwise(terms[half:])})"
    blocks = n - n % 8
    partial = [f"({' + '.join(terms[j:blocks:8])})" for j in range(8)]
    joined = " + ".join(f"(({a} + {b}) + ({c} + {d}))" for a, b, c, d
                        in (partial[:4], partial[4:]))
    return " + ".join([f"({joined})", *terms[blocks:]])


# what the names in the source of `_generated_step` are on a lone state's
# Python floats and on a batch's flat array (``max`` and ``np.maximum`` pick
# the same float when both are finite)
_FLOAT_NAMES = {"_isfinite": math.isfinite, "_max": max}
_ARRAY_NAMES = {"_isfinite": lambda a: np.isfinite(a).all(), "_max": np.maximum,
                "_member_rms": _member_rms}


@cache
def _generated_step(dim: int, batch: bool) -> SimpleNamespace:
    """The step arithmetic of `_integrate` for states of ``dim`` coordinates,
    generated once as straight-line source and read on one of two kinds of
    state: ``dim`` Python floats (a lone run), or, with ``batch``, a single
    coordinate that is the whole flat numpy state of a batch.

    ``attempt(f, t, h, t_new, y, k, atol, rtol)`` takes one Dormand-Prince
    step of size ``h`` from ``(t, y)`` with first stage ``k``, evaluating the
    right side as ``f(time, state, left)``.  It returns None when a stage,
    the new state or the error has an infinite or NaN entry, else ``(err,
    y_new, k_new, q)``: the scaled RMS error (of a batch, the largest member
    RMS, `_member_rms`), the new state, its stage and the four dense
    coefficients as one tuple (on floats ``q[j]`` of coordinate ``i`` is at
    ``j * dim + i``), the last three None when ``err > 1``.  ``horner(y, q,
    theta)`` reads a step's continuous extension (on arrays `_dense`) and
    ``norm(y)`` is `_norm`.  The combinations follow the rows
    ``_STAGE_ROWS`` ... ``_DENSE`` in their order, and the sums of squares
    numpy's (`_pairwise`), so a batch member has the bits of its lone run."""
    coords = range(1 if batch else dim)

    def names(stem: str) -> list[str]:
        return [f"{stem}{i}" for i in coords]

    def state(values) -> str:
        values = list(values)
        return values[0] if batch else f"({', '.join(values)},)"

    def combined(row, i: int) -> str:
        return " + ".join(f"k{s}_{i}" if c == 1.0 else f"{_literal(c)} * k{s}_{i}"
                          for s, c in row)

    lines = [f"{state(names('y'))} = y", f"{state(names('k0_'))} = k"]
    for s, row in enumerate(_STAGE_ROWS, 1):
        time = "t + h" if _C[s] == 1.0 else f"t + {_C[s]!r} * h"
        trial = state(f"y{i} + h * ({combined(row, i)})" for i in coords)
        lines.append(f"{state(names(f'k{s}_'))} = f({time}, {trial}, {s == 5})")
    lines += [f"n{i} = y{i} + h * ({combined(_UPDATE, i)})" for i in coords]
    lines.append(f"{state(names('k6_'))} = f(t_new, {state(names('n'))}, True)")
    lines += [f"e{i} = h * ({combined(_ERROR, i)})" for i in coords]
    # the error has every stage but the second with a nonzero weight
    checks = " and ".join(f"_isfinite({v})" for v in names("n") + names("e") + names("k1_"))
    lines += [f"if not ({checks}):", "    return None"]
    lines += [f"x{i} = e{i} / (atol + rtol * _max(abs(y{i}), abs(n{i})))" for i in coords]
    lines.append(f"err = max(_member_rms(x0, x0.size // {dim}))" if batch else
                 f"err = _sqrt(({_pairwise([f'x{i} * x{i}' for i in coords])}) / {dim})")
    lines += ["if err > 1.0:", "    return err, None, None, None"]
    dense = ", ".join(f"h * ({combined(row, i)})" for row in _DENSE for i in coords)
    attempt = _generate("f, t, h, t_new, y, k, atol, rtol",
                        f"err, {state(names('n'))}, {state(names('k6_'))}, ({dense},)",
                        _ARRAY_NAMES if batch else _FLOAT_NAMES, lines)
    if batch:
        return SimpleNamespace(attempt=attempt, horner=_dense, norm=_norm)
    q = [[f"q{j * dim + i}" for i in coords] for j in range(4)]
    horner = _generate("y, q, theta", state(
        f"y{i} + theta * ({q[0][i]} + theta * ({q[1][i]} + theta * ({q[2][i]} + theta "
        f"* {q[3][i]})))" for i in coords),
        lines=[f"{state(names('y'))} = y", f"{', '.join(sum(q, []))}, = q"])
    norm = _generate("y", f"_sqrt({_pairwise([f'y{i} * y{i}' for i in coords])})",
                     lines=[f"{state(names('y'))} = y"])
    return SimpleNamespace(attempt=attempt, horner=horner, norm=norm)


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.flags.writeable = False
    return array


def _float_reading(rhs, dim: int):
    """A right side on arrays read on a lone state of Python floats: state
    and delayed values go in as ``(dim,)`` arrays (the delayed ones
    read-only, as the history they may be) and the result comes back as
    floats.  Its shape is checked on every call, so a malformed right side
    fails at the start time and is never mistaken for a rejected step."""
    shape = (dim,)

    def floats(t, y, delayed):
        f = np.asarray(rhs(t, np.array(y), [_read_only(d) for d in delayed]), dtype=float)
        if f.shape != shape:
            raise ValueError(f"the right side returned shape {f.shape} for states "
                             f"of shape {shape}")
        return f.tolist()

    return floats


def _with_floats(rhs, floats):
    """``rhs`` carrying ``floats``, the same right side on a lone state of
    Python floats returning floats, as ``on_floats``: the reading `integrate`
    runs.  Batches and other callers of ``rhs`` go through ``rhs``."""
    def read(t, y, delayed):
        return rhs(t, y, delayed)

    read.on_floats = floats
    return read


def integrate(system, horizon: float, tol: ToleranceSettings | None = None) -> Trajectory:
    """Integrate ``system.problem(horizon)`` from its start time to ``horizon``.

    The delay band ``(h_bar, h_under)`` is read once, on ``[t0, horizon]``
    (`DelaySpec.bounds`), and the history must cover ``[t0 - h_bar, t0]``.
    Delayed arguments are resolved from the history function (at or before
    the start time) or from already-accepted dense segments; the step cap
    ``h_under`` keeps every delayed lookup out of the current step, and a
    lookup past the accepted solution (a delay below its sampled minimum)
    raises `IntegrationError`.
    Steps end exactly on the walls ``t0 + k*h_under`` and on the system's
    kinks; the stages at the end of a step read delayed values from the left
    there, and the next step starts from a fresh right-side evaluation.
    Integration stops early, with the first crossing time recorded, when the
    state norm reaches ``tol.cap``.
    """
    return _integrate(system, None, horizon, tol)[0]


def integrate_batch(system, histories: Sequence[HistoryFunction], horizon: float,
                    tol: ToleranceSettings | None = None) -> list[Trajectory]:
    """Integrate ``system.problem(horizon)`` once per history, all on one step
    sequence; one trajectory per history, in order.

    The members share the delays, the walls and the kinks, so one run of
    `integrate`'s loop carries them as one flat state.  The right side gets
    states and delayed values of shape ``(B, n)`` and must return that
    shape.  The step controller takes the largest per-member error, so each
    member's local error is held at least as tightly as when it runs alone.
    A member whose norm reaches ``tol.cap`` is frozen there, with its own
    crossing time, and drops out of the error control; at the step floor the
    members at or above ``0.01 * tol.cap`` are frozen.  Each member starts
    from its history at the start time; every history must cover
    ``[t0 - h_bar, t0]``, with ``h_bar`` the largest delay on ``[t0, horizon]``.
    """
    histories = list(histories)
    if not histories:
        raise ValueError("a batch needs at least one history")
    return _integrate(system, histories, horizon, tol)


def _integrate(system, histories, horizon, tol) -> list[Trajectory]:
    """The stepping loop of `integrate` (``histories`` None: the problem's own
    history and start value, one state of Python floats) and of
    `integrate_batch` (the members' states as one flat array, which the right
    side sees with shape ``(B, n)``).  The two read one generated step
    arithmetic (`_generated_step`), on floats or on the flat array, which
    give the same bits: each member of a batch is the lone run of its
    history, as long as the step sequence is the same."""
    tol = tol or ToleranceSettings()
    if horizon <= system.t0:
        raise ValueError(f"horizon {horizon!r} must exceed the start time {system.t0!r}")
    problem = system.problem(horizon)
    t0 = float(problem.t0)
    delay_fns = problem.delays.delays
    has_delays = bool(delay_fns)
    h_bar, h_under = problem.delays.bounds(t0, horizon)

    max_step = min(h_under, horizon - t0)
    if tol.max_step is not None:
        max_step = min(max_step, tol.max_step)

    kinks = [k for k in problem.kinks if t0 < k < horizon]
    kink_index = 0

    lone = histories is None
    if lone:
        histories = [problem.history]
    elif problem.y0 is not None:
        raise ValueError("batch members start from their histories; the problem "
                         "must not carry a start value")
    for member in histories:
        if member is not None and not member.covers(t0 - h_bar, t0):
            raise ValueError(f"history must cover [{t0 - h_bar}, {t0}]")
    starts = [member(t0) for member in histories] if problem.y0 is None else [problem.y0]
    starts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in starts]
    dim = starts[0].size
    if any(s.size != dim for s in starts):
        raise ValueError("the histories of a batch differ in dimension")
    members = len(starts)
    shape = (dim,) if lone else (members, dim)
    y0 = np.concatenate(starts)
    size = y0.size
    step = _generated_step(dim, not lone)
    if lone:
        y0 = tuple(y0.tolist())

    nodes_t: list[float] = [t0]
    nodes_y: list = [y0]
    nodes_q: list = []

    lower_guard = t0 - h_bar - 1e-9 * max(1.0, abs(t0) + h_bar)
    # constant histories are stacked once, as floats or read-only, so that a
    # right side writing into its delayed argument cannot change them
    stacked = None
    if all(member is not None and member.vector is not None for member in histories):
        stacked = np.concatenate([member.vector for member in histories])
        stacked.flags.writeable = False
        if lone:
            stacked = tuple(stacked.tolist())
    # delayed arguments this close to t0 count as t0: from the left they read
    # the history, from the right the initial state (which may differ)
    start_snap = 1e-12 * max(1.0, abs(t0))

    def past(tq: float, left: bool):
        if tq < t0 - start_snap or (left and tq <= t0 + start_snap):
            if tq < lower_guard:
                raise IntegrationError(
                    f"delayed argument t={tq!r} falls below the history interval "
                    f"start {t0 - h_bar!r} (malformed delay)", time=tq)
            if stacked is not None:
                return stacked
            tq = min(tq, t0)
            value = np.concatenate([np.atleast_1d(np.asarray(member(tq), dtype=float))
                                    for member in histories])
            return value.tolist() if lone else value
        if tq <= t0:
            return nodes_y[0]
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

    rhs = problem.rhs
    if lone:
        rhs = getattr(rhs, "on_floats", None) or _float_reading(rhs, dim)
    # members frozen at the cap: state and stages held at zero, so their
    # error is zero and they leave the step control
    active = members
    frozen = np.zeros(size, dtype=bool)
    ends: list[int | None] = [None] * members
    blow_times: list[float | None] = [None] * members
    evaluations = accepted = rejected = 0

    def eval_rhs(t: float, y, left: bool = False):
        nonlocal evaluations
        evaluations += 1
        delayed = [past(t - fn(t), left) for fn in delay_fns] if has_delays else ()
        if lone:
            return rhs(t, y, delayed)
        f = np.asarray(rhs(t, y.reshape(shape), [d.reshape(shape) for d in delayed]),
                       dtype=float)
        if f.shape != shape:
            # checked on every call, so a malformed right side fails at the
            # start time and is never mistaken for a rejected step
            raise ValueError(f"the right side returned shape {f.shape} for states "
                             f"of shape {shape}")
        f = f.reshape(size)
        return np.where(frozen, 0.0, f) if active < members else f

    def freeze(b: int, blow_time: float) -> None:
        nonlocal active
        ends[b] = len(nodes_t) - 1
        blow_times[b] = blow_time
        frozen[b * dim:(b + 1) * dim] = True
        active -= 1

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Python floats raise where arrays overflow to inf
        try:
            k = eval_rhs(t0, y0)
        except ArithmeticError as exc:
            raise IntegrationError(f"right side is not finite at the start time: {exc}",
                                   time=t0) from exc
        if len(k) != size:
            raise ValueError(f"the right side returned {len(k)} values for states "
                             f"of shape {shape}")
        if not all(map(math.isfinite, k)):
            raise IntegrationError("right side is not finite at the start time", time=t0)

        if tol.first_step is not None:
            h = min(tol.first_step, max_step)
        else:
            h = _initial_step(
                lambda t, y: np.asarray(eval_rhs(t, y.tolist() if lone else y), dtype=float),
                t0, np.asarray(y0), np.asarray(k), tol.rtol, tol.atol, max_step, members)

        t = t0
        y = y0
        err_prev: float | None = None
        wall_index = 1

        steps = 0
        while t < horizon - 1e-13 * max(1.0, abs(horizon)):
            steps += 1
            if steps > _MAX_STEPS:
                raise IntegrationError(f"step budget exhausted at t={t!r}", time=t)
            h_eff = min(h, max_step, horizon - t)
            t_new = t + h_eff if h_eff < horizon - t else horizon
            on_break = False
            near = 1e-12 * max(1.0, abs(t))
            breakpoint_ = math.inf
            if has_delays:
                wall = t0 + wall_index * h_under
                while wall <= t + near:
                    wall_index += 1
                    wall = t0 + wall_index * h_under
                breakpoint_ = wall
            while kink_index < len(kinks) and kinks[kink_index] <= t + near:
                kink_index += 1
            if kink_index < len(kinks):
                breakpoint_ = min(breakpoint_, kinks[kink_index])
            if t_new >= breakpoint_ - 1e-12 * max(1.0, abs(breakpoint_)):
                t_new = breakpoint_
                h_eff = t_new - t
                on_break = True
            if h_eff < _step_floor(t):
                blown = [b for b in range(members) if ends[b] is None
                         and step.norm(y[b * dim:(b + 1) * dim]) >= 0.01 * tol.cap]
                if not blown:
                    raise IntegrationError(f"step size underflow at t={t!r}", time=t)
                for b in blown:
                    freeze(b, t)
                if not active:
                    break
                # the rest of the batch starts its step control afresh
                y = np.where(frozen, 0.0, y)
                k = np.where(frozen, 0.0, k)
                h = max_step
                err_prev = None
                continue

            try:
                trial = step.attempt(eval_rhs, t, h_eff, t_new, y, k, tol.atol, tol.rtol)
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
            # a member's norm is at most the norm of the whole state
            if step.norm(y_new) >= tol.cap:
                for b in range(members):
                    part = slice(b * dim, (b + 1) * dim)
                    if ends[b] is None and step.norm(y_new[part]) >= tol.cap:
                        crossing = _locate_cap_crossing(
                            t, t_new, np.asarray(y[part]), np.reshape(q, (4, -1))[:, part],
                            tol.cap, t, t_new)
                        freeze(b, t_new if crossing is None else crossing)
                if not active:
                    t = t_new
                    break
                y_new = np.where(frozen, 0.0, y_new)
                k_new = np.where(frozen, 0.0, k_new)
            t = t_new
            y = y_new
            k = eval_rhs(t, y) if on_break else k_new
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
    ys = np.array(nodes_y)
    coeffs = np.array(nodes_q).reshape(len(nodes_q), 4, size)
    stats = StepStats(accepted, rejected, evaluations)
    trajectories = []
    for b, member in enumerate(histories):
        k = len(nodes_t) - 1 if ends[b] is None else ends[b]
        part = slice(b * dim, (b + 1) * dim)
        blew_up = blow_times[b] is not None
        trajectories.append(Trajectory(
            ts[:k + 1], ys[:k + 1, part], coeffs[:k, :, part],
            blow_times[b] if blew_up else ts[k], blew_up, blow_times[b],
            history=member, history_span=h_bar, stats=stats))
    return trajectories


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
