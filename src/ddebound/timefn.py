"""Helpers for scalar functions of time used as system coefficients."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .expressions import Expression

__all__ = [
    "TimeFunction",
    "ConstantFn",
    "as_time_function",
    "memoize_last",
    "grid_supremum",
    "locate_zeros",
]

TimeFunction = Callable[[float], float]


class ConstantFn:
    """Time function that ignores ``t``; keeps the constant inspectable."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, t: float) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantFn({self.value!r})"


def as_time_function(value) -> TimeFunction:
    """Normalize a number, `Expression` or callable into ``t -> float``."""
    if isinstance(value, ConstantFn):
        return value
    if isinstance(value, (int, float)):
        return ConstantFn(value)
    if isinstance(value, Expression):
        if value.is_constant():
            return ConstantFn(value.constant_value())
        return value.compiled()
    if callable(value):
        return value
    raise TypeError(f"cannot interpret {value!r} as a function of time")


class _MemoLast:
    """Caches the most recent (t, value) pair.

    Integration right sides evaluate several coefficient functions that share
    one expensive sub-function (e.g. a matrix norm) at the same time point;
    this keeps those shared evaluations to one per time point.  The pair is
    swapped as a single tuple so concurrent readers never see a torn cache;
    redundant refills are harmless (the wrapped function is pure).
    """

    __slots__ = ("fn", "_pair")

    def __init__(self, fn: TimeFunction):
        self.fn = fn
        self._pair = (math.nan, math.nan)

    def __call__(self, t: float) -> float:
        pair = self._pair
        if pair[0] != t:
            pair = (t, self.fn(t))
            self._pair = pair
        return pair[1]


def memoize_last(fn: TimeFunction) -> TimeFunction:
    if isinstance(fn, (ConstantFn, _MemoLast)):
        return fn
    return _MemoLast(fn)


_SUP_SAMPLES = 10_000
_OVERFLOW_GUARD = 1e12


def grid_supremum(fns: Sequence[TimeFunction], t_lo: float, t_hi: float,
                  margin: float = 0.0) -> list[float]:
    """Supremum of each of ``fns`` on ``[t_lo, t_hi]``, from one pass over a
    uniform 10,000-point grid.

    Every function is evaluated at a grid point before the pass moves to the
    next one, so functions sharing a last-value memo (a matrix norm, say)
    compute it once per point.  Constants come back exact; grid maxima are
    inflated by ``margin`` relative to their magnitude so that they err on
    the side of dominating the true supremum.
    """
    if t_hi < t_lo:
        raise ValueError(f"empty interval [{t_lo}, {t_hi}]")
    fns = list(fns)
    best = [fn.value if isinstance(fn, ConstantFn) else -math.inf for fn in fns]
    sampled = [k for k, fn in enumerate(fns) if not isinstance(fn, ConstantFn)]
    if sampled:
        for t in np.linspace(t_lo, t_hi, _SUP_SAMPLES).tolist():
            for k in sampled:
                value = fns[k](t)
                if value > best[k]:
                    best[k] = value
    for value in best:
        if not math.isfinite(value) or abs(value) > _OVERFLOW_GUARD:
            raise OverflowError(f"supremum sample {value!r} exceeds the overflow guard")
    for k in sampled:
        best[k] += margin * abs(best[k])
    return best


_ZERO_SAMPLES = 4096
_ZERO_REL_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITERATIONS = 100    # a two-cell bracket reaches float resolution in < 80
_RESOLUTION = 4.0 * float(np.finfo(float).eps)


def locate_zeros(fn: TimeFunction, t_lo: float, t_hi: float) -> list[float]:
    """Zeros of ``fn`` on ``[t_lo, t_hi]``, ascending.

    ``fn`` is sampled on a uniform 4096-point grid.  Sign changes are refined with
    ``brentq``; grid-local minima of ``|fn|`` (zeros that ``fn`` touches
    without crossing, as ``|sin t|`` does) are refined with a golden-section
    search and kept when ``|fn|`` there is at most 1e-9 times the largest
    sampled magnitude.  Zeros closer together than the grid spacing
    may be reported once; where ``fn`` vanishes on a stretch, only the grid
    points at its ends are reported.  Constants have no isolated zeros.
    """
    if t_hi <= t_lo or isinstance(fn, ConstantFn):
        return []
    grid = np.linspace(t_lo, t_hi, _ZERO_SAMPLES)
    vals = np.array([fn(float(t)) for t in grid])
    mags = np.abs(vals)
    scale = float(np.max(mags))
    if not math.isfinite(scale) or scale == 0.0:
        return []
    exact = vals == 0.0
    # inside a stretch where fn vanishes only the ends are zeros worth a break
    inside = np.zeros(grid.size, dtype=bool)
    inside[1:-1] = exact[:-2] & exact[2:]
    zeros = [float(t) for t in grid[exact & ~inside]]
    crossing = vals[:-1] * vals[1:] < 0.0
    for i in np.flatnonzero(crossing):
        zeros.append(brentq(fn, grid[i], grid[i + 1], xtol=1e-15))
    # cells next to a crossing or an exact zero are already resolved
    resolved = np.zeros(grid.size, dtype=bool)
    resolved[:-1] |= crossing
    resolved[1:] |= crossing
    resolved |= exact
    padded = np.concatenate(([math.inf], mags, [math.inf]))
    minima = (mags <= padded[:-2]) & (mags <= padded[2:]) & ~resolved
    last = grid.size - 1
    for i in np.flatnonzero(minima):
        a = float(grid[max(i - 1, 0)])
        b = float(grid[min(i + 1, last)])
        t_min = _golden_minimum(lambda s: abs(fn(s)), a, b)
        if abs(fn(t_min)) <= _ZERO_REL_TOL * scale:
            zeros.append(t_min)
    zeros.sort()
    spacing = float(grid[1] - grid[0])
    merged: list[float] = []
    for z in zeros:
        if not merged or z - merged[-1] > 1e-3 * spacing:
            merged.append(z)
    return merged


def _golden_minimum(fn: TimeFunction, a: float, b: float) -> float:
    """Minimiser of a unimodal ``fn`` on ``[a, b]`` by golden-section search,
    down to the float resolution of the bracket."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_MAX_ITERATIONS):
        if b - a <= _RESOLUTION * max(abs(a), abs(b), 1.0):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return c if fc <= fd else d
