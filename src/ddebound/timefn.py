"""Helpers for scalar functions of time used as system coefficients."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .expressions import _NAMESPACE, Expression, _generate

__all__ = [
    "TimeFunction",
    "ConstantFn",
    "as_time_function",
    "grid_values",
    "sample",
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


def _literal(value: float) -> str:
    """Source of a float constant (negative ones parenthesized)."""
    text = repr(float(value))
    return f"({text})" if text.startswith("-") else text


# generated code nests an inlined body in parentheses, and a composition the
# bodies it inlines, but Python's tokenizer stops at 200 nested parentheses
_INLINE_PARENS = 100


def _source_of(fn: TimeFunction, names: dict) -> str:
    """Source that reads ``fn`` at ``t`` inside generated code: a literal for
    a constant, the inlined body of a generated time function with fewer than
    ``_INLINE_PARENS`` parentheses, else a call of ``fn``, which joins
    ``names``.  Names are keyed by object identity, so inlined bodies never
    clash."""
    if isinstance(fn, ConstantFn):
        return _literal(fn.value)
    source = getattr(fn, "source", None)
    if source is not None and source[0] == "t" and not source[1] \
            and source[2].count("(") < _INLINE_PARENS:
        _params, _lines, body, inner = source
        names.update(inner)
        return f"({body})"
    name = f"_f{id(fn)}"
    names[name] = fn
    return f"{name}(t)"


def _compose(template: str, *fns: TimeFunction) -> TimeFunction:
    """The time function ``template.format(*values at t)``, generated once
    with every argument inlined (`_source_of`): the arithmetic of the
    template, in its order, and a `ConstantFn` when every argument is one."""
    names: dict = {}
    fn = _generate("t", template.format(*(_source_of(f, names) for f in fns)), names)
    if all(isinstance(f, ConstantFn) for f in fns):
        return ConstantFn(fn(0.0))
    return fn


# the one sample count of every sampled precondition and supremum; only
# locate_zeros keeps a grid of its own, for the reason given there
_SAMPLES = 10_000
_OVERFLOW_GUARD = 1e12


def _elementwise(fn):
    """``fn`` of `math` on each entry of its broadcast arguments, with the bits
    of a scalar call (numpy's own ``exp``, ``power`` and ``hypot`` differ from
    `math` in the last bit), written straight into a float array; the entries
    go in as Python numbers, which `math` reads faster than numpy scalars."""
    def apply(*args):
        args = np.broadcast_arrays(*args)
        values = map(fn, *(a.ravel().tolist() for a in args))
        return np.fromiter(values, float, args[0].size).reshape(args[0].shape)
    return apply


# generated source on an array of times: numpy's + - * /, abs and sqrt round
# as Python floats do
_GRID_NAMESPACE = {**_NAMESPACE, "_sqrt": np.sqrt, "_sin": _elementwise(math.sin),
                   "_cos": _elementwise(math.cos), "_exp": _elementwise(math.exp),
                   "_pow": _elementwise(math.pow), "_hypot": _elementwise(math.hypot)}


def grid_values(fns: Sequence[TimeFunction], times: Sequence[float]) -> np.ndarray:
    """Values of ``fns`` at ``times``, one row per function, each value the
    bits of the call ``fn(t)``.

    A `ConstantFn` fills its row without a call.  A generated function of
    ``t`` (`expressions._generate`) runs its source once on the whole array
    and reads the functions it calls by name the same way; if that run meets
    a floating-point exception it is called per time instead, giving the
    values or raising the exception of those calls.  A function's own
    ``on_grid`` (the reduction's splines) reads the whole array.  Any other
    callable is called per time.  Each function is read once, however many
    rows read it.
    """
    times = np.asarray(times, dtype=float)
    rows: dict = {}

    def row(fn) -> np.ndarray:
        if id(fn) not in rows:
            rows[id(fn)] = _evaluate(fn, times, row)
        return rows[id(fn)]

    values = np.array([row(fn) for fn in fns]).reshape(len(fns), times.size)
    rows.clear()    # free them now: the namespaces of the array runs still reach them
    return values


def _evaluate(fn: TimeFunction, times: np.ndarray, row) -> np.ndarray:
    if isinstance(fn, ConstantFn):
        return np.full(times.size, fn.value)
    on_grid = getattr(fn, "on_grid", None)
    if on_grid is not None:
        return on_grid(times)
    source = getattr(fn, "source", None)
    if source is not None and source[0] == "t":
        params, lines, result, names = source
        called = {name: (lambda t, f=f: row(f)) for name, f in names.items()}
        try:
            with np.errstate(all="raise", under="ignore"):
                values = _generate(params, result, called, lines, _GRID_NAMESPACE)(times)
            return np.broadcast_to(values, times.shape)
        except (ArithmeticError, ValueError):
            pass
    return np.fromiter(map(fn, map(float, times)), float, times.size)


def sample(fns: Sequence[TimeFunction], t_lo: float,
           t_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The sampling grid of ``[t_lo, t_hi]``, ``_SAMPLES`` uniform points, and
    the values of ``fns`` on it (`grid_values`).  When every function is a
    `ConstantFn` the grid is the one point ``t_lo``: constants are decided
    exactly, without sampling."""
    fns = list(fns)
    constant = all(isinstance(fn, ConstantFn) for fn in fns)
    times = np.array([float(t_lo)]) if constant else np.linspace(t_lo, t_hi, _SAMPLES)
    return times, grid_values(fns, times)


def grid_supremum(fns: Sequence[TimeFunction], t_lo: float, t_hi: float,
                  margin: float = 0.0) -> list[float]:
    """Supremum of each of ``fns`` on ``[t_lo, t_hi]``: its largest value on
    the sampling grid (`sample`, 10,000 points).

    Constants come back exact; grid maxima are inflated by ``margin``
    relative to their magnitude so that they err on the side of dominating
    the true supremum.  A non-finite sample (nan too) or one beyond the
    overflow guard is an error.
    """
    if t_hi < t_lo:
        raise ValueError(f"empty interval [{t_lo}, {t_hi}]")
    fns = list(fns)
    best = sample(fns, t_lo, t_hi)[1].max(axis=1, initial=-math.inf).tolist()
    for value in best:
        if not math.isfinite(value) or abs(value) > _OVERFLOW_GUARD:
            raise OverflowError(f"supremum sample {value!r} exceeds the overflow guard")
    return [value if isinstance(fn, ConstantFn) else value + margin * abs(value)
            for fn, value in zip(fns, best)]


_ZERO_SAMPLES = 4096
_ZERO_REL_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITERATIONS = 100    # a two-cell bracket reaches float resolution in < 80
_RESOLUTION = 4.0 * float(np.finfo(float).eps)


def locate_zeros(fn: TimeFunction, t_lo: float, t_hi: float) -> list[float]:
    """Zeros of ``fn`` on ``[t_lo, t_hi]``, ascending.

    ``fn`` is read (`grid_values`) on a uniform 4096-point grid of its own,
    not the 10,000 points of `sample`: the kinks this returns are steps of
    the integration, and on the finer grid 58 of the 160 forcing kinks of
    the bundled case a move by up to 7.1e-15, and every forced trajectory
    with them.  Sign changes are refined with
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
    vals = grid_values([fn], grid)[0]
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
    if crossing.any():
        # loaded here, on the first sign change: importing scipy.optimize
        # takes about 0.6 s and 50 MB, and the forcings of the scalar and
        # linear systems are magnitudes, which never change sign
        from scipy.optimize import brentq
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
