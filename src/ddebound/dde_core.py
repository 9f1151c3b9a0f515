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
one step sequence, and the right side sees them as a ``(B, n)`` array.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .expressions import _generate
from .linalg import VectorFunction
from .majorant import PolynomialMajorant
from .timefn import (ConstantFn, TimeFunction, _golden_minimum, _source_of,
                     as_time_function, grid_values, locate_zeros, sample)
from .vectorfield import NonlinearTerm

__all__ = [
    "ToleranceSettings",
    "IntegrationError",
    "DelaySpec",
    "HistoryFunction",
    "VectorDelaySystem",
    "ScalarDelaySystem",
    "Perturbation",
    "DelayProblem",
    "Trajectory",
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
# the matrix of the 4th-order continuous extension (Shampine 1986):
# y(t + theta*h) = y + h * sum_j (stages^T P)[:, j] * theta^(j+1).
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0)
_A = (
    None,
    np.array([1.0 / 5.0]),
    np.array([3.0 / 40.0, 9.0 / 40.0]),
    np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
    np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
    np.array([9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
              -5103.0 / 18656.0]),
)
_B = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
               11.0 / 84.0])
_E = np.array([-71.0 / 57600.0, 0.0, 71.0 / 16695.0, -71.0 / 1920.0,
               17253.0 / 339200.0, -22.0 / 525.0, 1.0 / 40.0])
_P = np.array([
    [1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0],
    [0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0],
    [0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0],
    [0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0],
    [0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0],
])


# a step's quartic y + sum_j q_j theta^(j+1) in the Bernstein basis of degree
# 4: control point i is sum_j _BERNSTEIN[i, j] (y, q_0, ..., q_3)[j], that is
# b_i = y + sum_{j=1..i} C(i,j)/C(4,j) q_{j-1}
_BERNSTEIN = np.array([[math.comb(i, j) / math.comb(4, j) for j in range(5)]
                       for i in range(5)])


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
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.cap <= 0:
            raise ValueError("blow-up cap must be positive")


@dataclass(frozen=True)
class DelaySpec:
    """Delay functions with certified positive lower / finite upper bounds.

    ``h_bar`` / ``h_under`` are the max-sup / min-inf of the delays.  For
    time-varying delays `from_functions` reads them on the one sampling grid
    (`timefn.sample`, 10,000 points) and refines the extremes, and
    `validate_on` checks the band on that grid; constant delays are decided
    exactly, without sampling.
    """

    delays: tuple[TimeFunction, ...]
    h_bar: float
    h_under: float

    @property
    def count(self) -> int:
        return len(self.delays)

    @classmethod
    def none(cls) -> "DelaySpec":
        return cls((), 0.0, math.inf)

    @classmethod
    def constant(cls, values: Sequence[float]) -> "DelaySpec":
        vals = [float(v) for v in values]
        if not vals:
            return cls.none()
        if min(vals) <= 0:
            raise ValueError("delays must be positive")
        return cls(tuple(as_time_function(v) for v in vals), max(vals), min(vals))

    @classmethod
    def from_functions(cls, fns: Sequence, t0: float, horizon: float) -> "DelaySpec":
        delay_fns = tuple(as_time_function(f) for f in fns)
        if not delay_fns:
            return cls.none()
        grid, rows = sample(delay_fns, t0, horizon)
        h_bar = max(-_refined_minimum(lambda t, fn=fn: -fn(t), grid, -values)
                    for fn, values in zip(delay_fns, rows))
        h_under = min(_refined_minimum(fn, grid, values) for fn, values in zip(delay_fns, rows))
        if h_under <= 0:
            raise ValueError(f"minimal delay {h_under!r} is not positive")
        if not math.isfinite(h_bar):
            raise ValueError("delays must be bounded")
        return cls(delay_fns, h_bar, h_under)

    def validate_on(self, t0: float, horizon: float) -> None:
        """Re-check ``0 < h_under <= h_i(t) <= h_bar`` on the sampling grid."""
        if not self.delays:
            return
        if self.h_under <= 0 or not math.isfinite(self.h_bar):
            raise ValueError("delay bounds must satisfy 0 < h_under <= h_bar < inf")
        grid, rows = sample(self.delays, t0, horizon)
        outside = np.argwhere(~((self.h_under - 1e-12 <= rows) & (rows <= self.h_bar + 1e-12)))
        if outside.size:
            k, i = outside[0]
            raise ValueError(
                f"delay {k + 1} value {float(rows[k, i])!r} at t={float(grid[i])!r} leaves "
                f"[{self.h_under}, {self.h_bar}]")

    def merged_with(self, other: "DelaySpec") -> "DelaySpec":
        if not other.delays:
            return self
        if not self.delays:
            return other
        return DelaySpec(self.delays + other.delays,
                         max(self.h_bar, other.h_bar),
                         min(self.h_under, other.h_under))


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
        magnitude = self.reduced(np.linalg.norm)
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
    the integrator steps onto those inside its interval.
    """

    rhs: Callable[[float, np.ndarray, Sequence[np.ndarray]], np.ndarray]
    delays: DelaySpec
    history: HistoryFunction | None
    t0: float = 0.0
    y0: np.ndarray | None = None
    kinks: Sequence[float] = ()

    def __post_init__(self):
        h_bar = self.delays.h_bar
        if self.history is None:
            if self.delays.delays or self.y0 is None:
                raise ValueError("a history is required with delays or without a start value")
        elif not self.history.covers(self.t0 - h_bar, self.t0):
            raise ValueError(f"history must cover [{self.t0 - h_bar}, {self.t0}]")

    def problem(self, horizon: float) -> "DelayProblem":
        return self


@dataclass(frozen=True)
class VectorDelaySystem:
    """Vector delay system ``x' = A(t)x + f(t, x, x(t-h_1), ...) + F0*e(t)``."""

    dim: int
    A: Callable[[float], np.ndarray] | None
    f: NonlinearTerm | None
    forcing_amplitude: float
    forcing_shape: Callable[[float], np.ndarray] | None
    delays: DelaySpec
    history: HistoryFunction
    t0: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.forcing_amplitude < 0:
            raise ValueError("forcing amplitude must be nonnegative")
        if self.forcing_amplitude > 0 and self.forcing_shape is None:
            raise ValueError("forcing shape required when the forcing amplitude is positive")
        if self.history.dim != self.dim:
            raise ValueError(
                f"history dimension {self.history.dim} != system dimension {self.dim}")

    def rhs(self, t: float, y: np.ndarray, delayed: Sequence[np.ndarray]) -> np.ndarray:
        """Right side for one state ``(n,)`` or a batch of states ``(B, n)``."""
        if self.A is not None:
            out = (self.A(t) @ y.T).T
        else:
            out = np.zeros(y.shape)
        if self.f is not None:
            out = out + self.f(t, y, delayed)
        if self.forcing_amplitude > 0.0:
            out = out + self.forcing_amplitude * np.asarray(self.forcing_shape(t), dtype=float)
        return out

    @cached_property
    def forcing_norm(self) -> TimeFunction:
        """``t -> |e(t)|``, the Euclidean norm of the forcing shape: the
        compiled norm of a `VectorFunction` shape, ``np.linalg.norm`` of the
        value of any other callable."""
        shape = self.forcing_shape
        if isinstance(shape, VectorFunction):
            return shape.norm
        return lambda t: float(np.linalg.norm(np.asarray(shape(t), dtype=float)))

    def problem(self, horizon: float) -> DelayProblem:
        problem = DelayProblem(self.rhs, self.delays, self.history, self.t0)
        # homogeneous part must vanish at the origin; checked on 16 points,
        # not the 10,000 of the sampling grid: each point is a full call of
        # the nonlinear term (7 to 10 us on bundled case a), and the check
        # runs on every integrate_batch round, 16 times per round of the
        # benchmark's 5-angle region sweep, where 10,000 points would add
        # more than a second per round
        if self.f is not None:
            zero = np.zeros(self.dim)
            zeros = [zero] * self.delays.count
            grid = np.linspace(self.t0, horizon, 16)
            (residues,) = grid_values([lambda t: float(np.linalg.norm(self.f(t, zero, zeros)))],
                                      grid)
            k = int(np.argmax(residues > 1e-10))
            if residues[k] > 1e-10:
                raise ValueError(
                    f"nonlinear term does not vanish at the origin "
                    f"(|f|={float(residues[k])!r} at t={float(grid[k])!r})")
        if self.forcing_amplitude > 0.0:
            span = max(horizon - self.t0, 20.0)
            sup = float(np.max(sample([self.forcing_norm], self.t0, self.t0 + span)[1]))
            if not 0.95 <= sup <= 1.05:
                raise ValueError(
                    f"forcing shape must have unit sup norm; sampled sup is {sup!r}")
        return problem


@dataclass(frozen=True)
class Perturbation:
    """Extra nonnegative right-side term with its own (perturbed) delays."""

    majorant: PolynomialMajorant
    delays: DelaySpec

    def __post_init__(self):
        if self.majorant.arg_count != self.delays.count + 1:
            raise ValueError("perturbation majorant argument count does not match its delays")


@dataclass(frozen=True)
class ScalarDelaySystem:
    """Scalar comparison system ``y' = p(t)y + c(t)(L(t, y, y(t-h_i)) + g(t))``.

    ``g`` is the nonnegative forcing magnitude.  An optional `Perturbation`
    adds ``c(t) * L_R(t, y, y(t-h_i*))`` with its own delays.  Histories must
    be nonnegative and ``c(t) >= 1``.
    """

    p: TimeFunction
    c: TimeFunction
    majorant: PolynomialMajorant
    forcing: TimeFunction
    delays: DelaySpec
    history: HistoryFunction
    t0: float = 0.0
    perturbation: Perturbation | None = None
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
        return self._rhs(t, y, delayed)

    @cached_property
    def _rhs(self):
        """`rhs` as one generated function: ``p(t) y + c(t) (L(t, zeta) +
        |g(t)| + L_R(t, zeta_R))`` in that order, with the majorants' terms
        unrolled and clamped (`PolynomialMajorant._clamped_lines`) and every
        coefficient inlined or called once."""
        m = self.delays.count
        count = m if self.perturbation is None else m + self.perturbation.delays.count
        lags = [f"d{i}" for i in range(count)]
        names = {"_array": np.array}
        lines = ["z = y[0]", *(f"{d} = delayed[{i}][0]" for i, d in enumerate(lags)),
                 "total = 0.0", *self.majorant._clamped_lines(["z", *lags[:m]], names),
                 f"value = total + abs({_source_of(self.forcing, names)})"]
        if self.perturbation is not None:
            lines += ["total = 0.0",
                      *self.perturbation.majorant._clamped_lines(["z", *lags[m:]], names),
                      "value += total"]
        result = (f"_array([{_source_of(self.p, names)} * z "
                  f"+ {_source_of(self.c, names)} * value])")
        return _generate("t, y, delayed", result, names, lines)

    def problem(self, horizon: float) -> DelayProblem:
        """The problem on ``[t0, horizon]``; its kinks are the zeros of the
        forcing magnitude ``|g|``, where it has corners."""
        spec = self.delays
        if self.perturbation is not None:
            spec = spec.merged_with(self.perturbation.delays)
        problem = DelayProblem(self.rhs, spec, self.history, self.t0)
        if horizon > self.coeff_horizon + 1e-9:
            raise ValueError(
                f"coefficients are only valid up to t={self.coeff_horizon}, "
                f"requested horizon {horizon}")
        lowest = sample([self.history.reduced(np.min)], self.t0 - spec.h_bar, self.t0)[1]
        if np.min(lowest) < -1e-12:
            raise ValueError("scalar history must be nonnegative")
        grid, (c_values,) = sample([self.c], self.t0, horizon)
        k = int(np.argmax(c_values < 1.0 - 1e-9))
        if c_values[k] < 1.0 - 1e-9:
            raise ValueError(f"condition-number coefficient c({float(grid[k])!r}) < 1")
        return replace(problem, kinks=locate_zeros(self.forcing, self.t0, horizon))


class Trajectory:
    """Dense piecewise-quartic solution of an integration.

    Each step ``[ts[k], ts[k+1]]`` carries the coefficients ``coeffs[k]`` of
    the Dormand-Prince continuous extension, ``y = ys[k] + sum_j coeffs[k][j]
    * theta^(j+1)`` with ``theta`` the fraction of the step; node values are
    reproduced exactly.  ``t_end`` may precede the last node when integration
    was truncated by blow-up detection.
    """

    def __init__(self, ts: np.ndarray, ys: np.ndarray,
                 coeffs: np.ndarray, t_end: float, blew_up: bool = False,
                 blow_time: float | None = None,
                 history: HistoryFunction | None = None, history_span: float = 0.0):
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
        # the 1-d norm of the integrator's cap checks, not a row of norm_grid
        return float(np.linalg.norm(self.eval(t)))

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
        triangle = np.linalg.norm(np.abs(ys) + np.abs(coeffs).sum(axis=1), axis=1)
        points = _BERNSTEIN @ np.concatenate([ys[:, None, :], coeffs], axis=1)
        hull = np.linalg.norm(points, axis=2).max(axis=1)
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
        return hi if hi == ts[last] and float(np.linalg.norm(ys[last])) >= level else None

    def sup_norm(self, lo: float | None = None, hi: float | None = None) -> float:
        """Largest state norm on ``[lo, hi]`` (by default the whole domain).

        The window ends and inner nodes give a lower bound; the steps whose
        `_step_bounds` exceed it, largest first, are read at the roots of
        ``d/dtheta |y(theta)|^2`` in the window (their real parts, so a
        near-double root is not lost), each with the 1-d norm of `norm_at`."""
        lo, hi, first, last = self._window(lo, hi)
        ts, ys, coeffs = self.ts, self.ys, self.coeffs
        best = max(self.norm_at(lo), self.norm_at(hi))
        if last > first + 1:
            inner = np.linalg.norm(ys[first + 1:last], axis=1)
            best = max(best, float(np.linalg.norm(ys[first + 1 + int(np.argmax(inner))])))
        bound = self._step_bounds(first, last)
        for k in first + np.argsort(-bound):
            if bound[k - first] * (1.0 + _SCREEN_SLACK) <= best:
                break
            ta, tb = ts[k], ts[k + 1]
            poly = _norm_squared(ys[k], coeffs[k])
            theta = np.roots((poly[1:] * np.arange(1, 9))[::-1]).real
            times = ta + theta * (tb - ta)
            times = times[(times >= max(lo, ta)) & (times <= min(hi, tb))]
            for y in self.eval_grid(times):
                best = max(best, float(np.linalg.norm(y)))
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
        return np.linalg.norm(self.eval_grid(grid), axis=1)


def _dense(y0, q, theta):
    """Continuous extension ``y0 + sum_j q[j] theta^(j+1)`` in Horner form
    (the same operations for one point and for a batch, so both agree)."""
    return y0 + theta * (q[0] + theta * (q[1] + theta * (q[2] + theta * q[3])))


def _member_rms(x: np.ndarray, members: int) -> list[float]:
    """Root mean square of each member's slice of the flat vector ``x``."""
    if members == 1:    # the same numbers, without the slower axis reduction
        return [float(np.sqrt(np.mean(x ** 2)))]
    return np.sqrt(np.mean((x ** 2).reshape(members, -1), axis=1)).tolist()


def _initial_step(eval_rhs, t0, y0, f0, rtol, atol, max_step, members):
    """Automatic first-step selection (standard two-probe heuristic), the
    smallest over the members of a batch."""
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


def integrate(system, horizon: float, tol: ToleranceSettings | None = None) -> Trajectory:
    """Integrate ``system.problem(horizon)`` from its start time to ``horizon``.

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
    ``[t0 - h_bar, t0]``.
    """
    histories = list(histories)
    if not histories:
        raise ValueError("a batch needs at least one history")
    return _integrate(system, histories, horizon, tol)


def _integrate(system, histories, horizon, tol) -> list[Trajectory]:
    """The stepping loop of `integrate` (``histories`` None: the problem's own
    history and start value, states of shape ``(n,)``) and of
    `integrate_batch` (states of shape ``(B, n)``)."""
    tol = tol or ToleranceSettings()
    if horizon <= system.t0:
        raise ValueError(f"horizon {horizon!r} must exceed the start time {system.t0!r}")
    problem = system.problem(horizon)
    t0 = float(problem.t0)
    spec = problem.delays
    spec.validate_on(t0, horizon)
    delay_fns = spec.delays
    has_delays = bool(delay_fns)
    h_bar = spec.h_bar if has_delays else 0.0
    h_under = spec.h_under if has_delays else math.inf

    max_step = min(h_under, horizon - t0)
    if tol.max_step is not None:
        max_step = min(max_step, tol.max_step)

    kinks = [k for k in problem.kinks if t0 < k < horizon]
    kink_index = 0

    lone = histories is None
    if lone:
        histories = [problem.history]
        starts = [problem.history(t0) if problem.y0 is None else problem.y0]
    else:
        if problem.y0 is not None:
            raise ValueError("batch members start from their histories; the problem "
                             "must not carry a start value")
        for member in histories:
            if not member.covers(t0 - h_bar, t0):
                raise ValueError(f"history must cover [{t0 - h_bar}, {t0}]")
        starts = [member(t0) for member in histories]
    starts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in starts]
    dim = starts[0].size
    if any(s.size != dim for s in starts):
        raise ValueError("the histories of a batch differ in dimension")
    members = len(starts)
    shape = (dim,) if lone else (members, dim)
    y0 = np.concatenate(starts)
    size = y0.size

    nodes_t: list[float] = [t0]
    nodes_y: list[np.ndarray] = [y0]
    nodes_q: list[np.ndarray] = []

    lower_guard = t0 - h_bar - 1e-9 * max(1.0, abs(t0) + h_bar)
    # constant histories are stacked once, read-only so that a right side
    # writing into its delayed argument cannot change them
    stacked = None
    if all(member is not None and member.vector is not None for member in histories):
        stacked = np.concatenate([member.vector for member in histories])
        stacked.flags.writeable = False
    # delayed arguments this close to t0 count as t0: from the left they read
    # the history, from the right the initial state (which may differ)
    start_snap = 1e-12 * max(1.0, abs(t0))

    def past(tq: float, left: bool) -> np.ndarray:
        if tq < t0 - start_snap or (left and tq <= t0 + start_snap):
            if tq < lower_guard:
                raise IntegrationError(
                    f"delayed argument t={tq!r} falls below the history interval "
                    f"start {t0 - h_bar!r} (malformed delay)", time=tq)
            if stacked is not None:
                return stacked
            tq = min(tq, t0)
            return np.concatenate([np.atleast_1d(np.asarray(member(tq), dtype=float))
                                   for member in histories])
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
        return _dense(nodes_y[idx], nodes_q[idx], (tq - ta) / (nodes_t[idx + 1] - ta))

    rhs = problem.rhs
    # members frozen at the cap: state and stages held at zero, so their
    # error is zero and they leave the step control
    active = members
    frozen = np.zeros(size, dtype=bool)
    ends: list[int | None] = [None] * members
    blow_times: list[float | None] = [None] * members

    def eval_rhs(t: float, y: np.ndarray, left: bool = False) -> np.ndarray:
        delayed = [past(t - fn(t), left) for fn in delay_fns] if has_delays else ()
        if not lone:
            y = y.reshape(shape)
            delayed = [d.reshape(shape) for d in delayed]
        f = np.asarray(rhs(t, y, delayed), dtype=float)
        if f.shape != shape:
            # checked on every call, so a malformed right side fails at the
            # start time and is never mistaken for a rejected step
            raise ValueError(f"the right side returned shape {f.shape} for states "
                             f"of shape {shape}")
        if lone:
            return f
        f = f.reshape(size)
        return np.where(frozen, 0.0, f) if active < members else f

    def freeze(b: int, blow_time: float) -> None:
        nonlocal active
        ends[b] = len(nodes_t) - 1
        blow_times[b] = blow_time
        frozen[b * dim:(b + 1) * dim] = True
        active -= 1

    stages = np.empty((7, size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f0 = eval_rhs(t0, y0)
        if not np.all(np.isfinite(f0)):
            raise IntegrationError("right side is not finite at the start time", time=t0)
        stages[0] = f0

        if tol.first_step is not None:
            h = min(tol.first_step, max_step)
        else:
            h = _initial_step(eval_rhs, t0, y0, f0, tol.rtol, tol.atol, max_step, members)

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
                         and float(np.linalg.norm(y[b * dim:(b + 1) * dim]))
                         >= 0.01 * tol.cap]
                if not blown:
                    raise IntegrationError(f"step size underflow at t={t!r}", time=t)
                for b in blown:
                    freeze(b, t)
                if not active:
                    break
                # the rest of the batch starts its step control afresh
                y = np.where(frozen, 0.0, y)
                stages[0] = np.where(frozen, 0.0, stages[0])
                h = max_step
                err_prev = None
                continue

            try:
                for s in range(1, 6):
                    stages[s] = eval_rhs(t + _C[s] * h_eff,
                                         y + h_eff * (_A[s] @ stages[:s]),
                                         left=s == 5)
                y_new = y + h_eff * (_B @ stages[:6])
                stages[6] = eval_rhs(t_new, y_new, left=True)
            except (OverflowError, ValueError, ZeroDivisionError, FloatingPointError):
                h = 0.25 * h_eff
                err_prev = None
                continue
            err_vec = h_eff * (_E @ stages)
            if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(stages[6]))
                    and np.all(np.isfinite(err_vec))):
                h = 0.25 * h_eff
                err_prev = None
                continue
            scale = tol.atol + tol.rtol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = max(_member_rms(err_vec / scale, members))

            if err_norm <= 1.0:
                q = h_eff * (_P.T @ stages)
                nodes_t.append(t_new)
                nodes_y.append(y_new)
                nodes_q.append(q)
                # a member's norm is at most the norm of the whole state
                if float(np.linalg.norm(y_new)) >= tol.cap:
                    for b in range(members):
                        part = slice(b * dim, (b + 1) * dim)
                        if ends[b] is None and float(np.linalg.norm(y_new[part])) >= tol.cap:
                            crossing = _locate_cap_crossing(t, t_new, y[part], q[:, part],
                                                            tol.cap, t, t_new)
                            freeze(b, t_new if crossing is None else crossing)
                    if not active:
                        t = t_new
                        break
                    y_new = np.where(frozen, 0.0, y_new)
                    stages[6] = np.where(frozen, 0.0, stages[6])
                t = t_new
                y = y_new
                if on_break:
                    stages[0] = eval_rhs(t, y)
                else:
                    stages[0] = stages[6]
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
            else:
                h = h_eff * max(_MIN_FACTOR, _SAFETY * err_norm ** _ERR_EXPONENT)
                err_prev = None

    ts = np.array(nodes_t)
    ys = np.array(nodes_y)
    coeffs = np.array(nodes_q).reshape(len(nodes_q), 4, size)
    trajectories = []
    for b, member in enumerate(histories):
        k = len(nodes_t) - 1 if ends[b] is None else ends[b]
        part = slice(b * dim, (b + 1) * dim)
        blew_up = blow_times[b] is not None
        trajectories.append(Trajectory(
            ts[:k + 1], ys[:k + 1, part], coeffs[:k, :, part],
            blow_times[b] if blew_up else ts[k], blew_up, blow_times[b],
            history=member, history_span=h_bar))
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
        return float(np.linalg.norm(_dense(ya, q, (t - ta) / h))) >= level

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
