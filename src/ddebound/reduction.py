"""Reduction of a vector delay system to its scalar comparison system.

The fundamental matrix ``w(t)`` of the linear part, ``w' = A0(t) w`` with
``w(t0) = I``, is integrated in the scaled form ``w = e^s V``: ``s`` carries
the mean rate ``tr A0 / n`` and ``V`` (with ``det V = 1``) the rest, so the
solver's tolerances stay meaningful while ``w`` itself decays.  Its right side
is a `VectorDelaySystem` generated from the entries of ``A0``, so the solve
calls no BLAS kernel.  The log-norm rate is ``p(t) = u1^T A0(t) u1`` for the
leading left singular vector ``u1`` of ``w(t)`` (the derivative of
``ln sigma_max``), and ``c(t)`` is its condition number.  The scalar system
then reads ``y' = p(t) y + c(t) (L(t, ...) + |F(t)|)`` with the scalar
history equal to the norm of the vector history.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dde_core import (DelayProblem, DelaySpec, HistoryFunction, ScalarDelaySystem,
                       ToleranceSettings, Trajectory, VectorDelaySystem, integrate)
from .linalg import MatrixFunction, VectorFunction
from .majorant import PolynomialMajorant, PolynomialTerm
from .timefn import ConstantFn, _compose, as_time_function, grid_supremum

__all__ = [
    "IllConditionedError",
    "FundamentalMatrixSolution",
    "CoefficientPair",
    "compute_fundamental_matrix",
    "coefficients_of",
    "build_scalar_auxiliary",
    "build_autonomous_auxiliary",
]

_CONDITION_FLOOR = 1e-12
# singular values this close to the largest count as equal to it
_TIE = 1e-9


class IllConditionedError(RuntimeError):
    """The fundamental matrix turned numerically singular at ``time``.

    Because ``c = cond w``, a non-normal constant ``A0`` with eigenvalues
    ``lambda_1 > lambda_2`` gives a ``c`` that grows like ``e^{(lambda_1 -
    lambda_2) t}``, so its bound loosens as fast and the reduction ends
    here: ``A0 = [[-1, 2], [0, -3]]`` gives ``c(10) = 9.7e8``, and on
    ``[0, 20]`` `coefficients_of` refuses it at ``t = 13.49``.
    """

    def __init__(self, time: float, sigma_max: float, sigma_min: float):
        super().__init__(
            f"fundamental matrix is numerically singular at t={time!r} "
            f"(sigma_max={sigma_max!r}, sigma_min={sigma_min!r})")
        self.time = time


class FundamentalMatrixSolution:
    """Dense ``w(t) = e^s(t) V(t)`` with ``w(t0) = I``; the trajectory state is
    ``V`` flattened, then ``s``."""

    def __init__(self, A: MatrixFunction, trajectory: Trajectory):
        self.A = A
        self.trajectory = trajectory
        self.dim = A.dim
        self.horizon = trajectory.t_end

    def w(self, t: float) -> np.ndarray:
        state = self.trajectory.eval(t)
        return math.exp(state[-1]) * state[:-1].reshape(self.dim, self.dim)

    def spectra(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``sigma_max`` of ``w``, its condition number ``c`` and the rate ``p``
        at each time, from one stacked SVD of ``V``.

        Where ``sigma_max`` is repeated (``w = I`` at the start) the rate is the
        largest eigenvalue of the symmetric part of ``A0`` on the top singular
        subspace, the right-hand derivative of ``ln sigma_max`` there.
        """
        times = np.asarray(times, dtype=float)
        n = self.dim
        states = self.trajectory.eval_grid(times)
        u, sigma, _vt = np.linalg.svd(states[:, :-1].reshape(-1, n, n))
        bad = np.flatnonzero(sigma[:, -1] < _CONDITION_FLOOR * sigma[:, 0])
        scale = np.exp(states[:, -1])
        if bad.size:
            k = int(bad[0])
            raise IllConditionedError(float(times[k]), float(scale[k] * sigma[k, 0]),
                                      float(scale[k] * sigma[k, -1]))
        a = np.array([self.A(t) for t in times.tolist()])
        projected = np.einsum("kji,kjl,klm->kim", u, a, u)      # U^T A0 U
        rate = projected[:, 0, 0].copy()
        ties = (sigma >= sigma[:, :1] * (1.0 - _TIE)).sum(axis=1)
        for k in np.flatnonzero(ties > 1):
            top = projected[k, :ties[k], :ties[k]]
            rate[k] = np.linalg.eigvalsh(0.5 * (top + top.T))[-1]
        return scale * sigma[:, 0], sigma[:, 0] / sigma[:, -1], rate


def compute_fundamental_matrix(A: MatrixFunction, t0: float, horizon: float,
                               tol: ToleranceSettings | None = None) -> FundamentalMatrixSolution:
    """Integrate ``w' = A(t) w``, ``w(t0) = I`` with dense output, as
    ``V' = (A - r I) V``, ``s' = r`` with ``w = e^s V`` and ``r = tr A / n``:
    a `VectorDelaySystem` on ``(V flattened, s)`` whose linear part holds the
    entries of ``A - r I`` once per column of ``V``.  ``A`` must be a
    `MatrixFunction`."""
    if not isinstance(A, MatrixFunction):
        raise TypeError(f"expected a MatrixFunction, not {A!r}")
    n, entries = A.dim, A.entries()
    diagonal = [as_time_function(entries.get((i, i), 0.0)) for i in range(n)]
    rate = _compose(f"({' + '.join(['{}'] * n)}) / {n}", *diagonal)
    entries.update({(i, i): _compose("{} - {}", diagonal[i], rate) for i in range(n)})
    block = {(i * n + k, j * n + k): value for (i, j), value in entries.items() for k in range(n)}
    start = np.append(np.eye(n).ravel(), 0.0)
    system = VectorDelaySystem(n * n + 1, MatrixFunction(n * n + 1, block), None, 1.0,
                               VectorFunction(n * n + 1, {n * n: rate}), DelaySpec.none(),
                               HistoryFunction.constant(start), t0)
    tol = tol or ToleranceSettings(rtol=1e-8, atol=1e-12, cap=math.inf)
    # not system.problem(): its unit-sup check normalises a forcing, and s' = r is none
    traj = integrate(DelayProblem(system.rhs, DelaySpec.none(), system.history, t0),
                     horizon, tol)
    return FundamentalMatrixSolution(A, traj)


@dataclass(frozen=True)
class CoefficientPair:
    """Rate ``p(t)`` and condition number ``c(t)`` of the scalar system,
    valid up to ``t_hi``."""

    p: Callable[[float], float]
    c: Callable[[float], float]
    provenance: str                      # "closed_form" | "numerical"
    t_hi: float = math.inf

    def __post_init__(self):
        if self.provenance not in ("closed_form", "numerical"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "p", as_time_function(self.p))
        object.__setattr__(self, "c", as_time_function(self.c))

    @classmethod
    def closed_form(cls, p, c) -> "CoefficientPair":
        return cls(as_time_function(p), as_time_function(c), "closed_form")

    @classmethod
    def from_fundamental(cls, W: FundamentalMatrixSolution) -> "CoefficientPair":
        """Cubic splines of p and c through the accepted steps of the ``w``
        solve and the midpoints of those steps."""
        # loaded here, by a numerical reduction only: importing
        # scipy.interpolate takes about 0.6 s and 50 MB
        from scipy.interpolate import CubicSpline
        ts = W.trajectory.ts
        knots = np.empty(2 * ts.size - 1)
        knots[0::2] = ts
        knots[1::2] = 0.5 * (ts[:-1] + ts[1:])
        _sigma_max, condition, rate = W.spectra(knots)
        return cls(_piecewise_cubic(CubicSpline(knots, rate)),
                   _piecewise_cubic(CubicSpline(knots, condition)),
                   "numerical", t_hi=W.horizon)


def coefficients_of(A: MatrixFunction, t0: float, horizon: float) -> CoefficientPair:
    """``p`` and ``c`` of the linear part ``A`` on ``[t0, horizon]``.  For ``A =
    a(t) I`` (no entry off the diagonal; every diagonal entry the same
    constant or function, or a generated function of the same source) the
    fundamental matrix is ``e^(int a) I``, so the pair is closed form: ``p``
    is the entry itself and ``c = 1``.  Any other ``A`` is reduced numerically."""
    entries = A.entries()
    diagonal = [as_time_function(entries.get((i, i), 0.0)) for i in range(A.dim)]
    if (all(i == j for i, j in entries)
            and all(_same_function(fn, diagonal[0]) for fn in diagonal)):
        return CoefficientPair.closed_form(diagonal[0], 1.0)
    return CoefficientPair.from_fundamental(compute_fundamental_matrix(A, t0, horizon))


def _same_function(f, g) -> bool:
    if isinstance(f, ConstantFn) and isinstance(g, ConstantFn):
        return f.value == g.value
    source = getattr(f, "source", None)     # a ConstantFn has none
    return f is g or (source is not None and source == getattr(g, "source", None))


def _piecewise_cubic(spline):
    """``s -> spline(s)`` of a scipy ``CubicSpline``, as a float, evaluated
    directly: the same piece and the same sum as scipy's ``PPoly``
    evaluation, bit for bit, without its array conversions.

    The piece is the last knot at or below ``s``, clipped to the end pieces,
    which extrapolate.  The sum runs from the constant coefficient up, with
    the powers of ``s - x_i`` built by repeated multiplication.  The
    coefficients stay packed as doubles, as in the spline.  ``on_grid``
    evaluates an array of times the same way, each value with the bits of
    the call; `timefn.grid_values` uses it.
    """
    x = spline.x
    knots = x.tolist()
    cubic, quadratic, linear, constant = (array("d", row.tolist()) for row in spline.c)
    last = len(knots) - 2

    def evaluate(s: float) -> float:
        i = min(max(bisect_right(knots, s) - 1, 0), last)
        dx = s - knots[i]
        dx2 = dx * dx
        return 0.0 + constant[i] + linear[i] * dx + quadratic[i] * dx2 + cubic[i] * (dx2 * dx)

    def on_grid(times: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(x, times, side="right") - 1, 0, last)
        dx = times - x[i]
        dx2 = dx * dx
        c3, c2, c1, c0 = (np.frombuffer(row)[i] for row in (cubic, quadratic, linear, constant))
        return 0.0 + c0 + c1 * dx + c2 * dx2 + c3 * (dx2 * dx)

    evaluate.on_grid = on_grid
    return evaluate


def build_scalar_auxiliary(vs: VectorDelaySystem,
                           split,
                           coeffs: CoefficientPair,
                           majorant: PolynomialMajorant) -> ScalarDelaySystem:
    """Assemble the scalar comparison system for ``vs``.

    ``majorant`` must dominate the norm of the full nonlinear term of ``vs``.
    When ``split`` (a `MatrixFunction`, the remainder after the part
    generating ``coeffs``) is given, the undelayed linear term it contributes
    is folded into the majorant as ``|split(t)| * zeta_1``.  The scalar
    history is the Euclidean norm of the vector history and the forcing is
    ``F0 * |e(t)|``.
    """
    if majorant.arg_count != vs.delays.count + 1:
        raise ValueError(
            f"majorant takes {majorant.arg_count} arguments; system has "
            f"{vs.delays.count} delays")
    if split is not None:
        exponents = tuple(1 if i == 0 else 0 for i in range(majorant.arg_count))
        majorant = majorant.with_extra_terms([PolynomialTerm(split.norm, exponents)])
    if vs.forcing_amplitude > 0.0:
        forcing = _compose("{} * {}", ConstantFn(vs.forcing_amplitude),
                           vs.forcing_shape.norm)
    else:
        forcing = ConstantFn(0.0)
    return ScalarDelaySystem(
        p=coeffs.p,
        c=coeffs.c,
        majorant=majorant,
        forcing=forcing,
        delays=vs.delays,
        history=vs.history.norm(),
        t0=vs.t0,
        coeff_horizon=coeffs.t_hi,
    )


def build_autonomous_auxiliary(ss: ScalarDelaySystem, horizon: float,
                               margin: float = 1e-3) -> ScalarDelaySystem:
    """Freeze all time-varying coefficients at their (inflated) suprema.

    ``p``, ``c``, ``|forcing|`` and every term coefficient of the majorant
    are sampled together in one `grid_supremum` pass over ``[t0, horizon]``;
    sampled suprema are inflated by the relative ``margin`` so the frozen
    system still dominates the original, constants pass through exactly.
    The frozen system is valid up to ``horizon``, the end of the interval its
    suprema were read on.
    """
    t_lo, t_hi = ss.t0, horizon
    if t_hi <= t_lo:
        raise ValueError("horizon must exceed the start time")
    L = ss.majorant
    p_hat, c_hat, forcing_hat, *coeff_hats = grid_supremum(
        [ss.p, ss.c, *(_compose("abs({})", fn)
                       for fn in (ss.forcing, *(term.coeff for term in L.terms)))],
        t_lo, t_hi, margin)
    frozen = PolynomialMajorant(
        tuple(PolynomialTerm(ConstantFn(hat), term.exponents)
              for hat, term in zip(coeff_hats, L.terms)),
        L.arg_count, L.allow_constant_terms)
    return replace(ss, p=ConstantFn(p_hat), c=ConstantFn(max(c_hat, 1.0)), majorant=frozen,
                   forcing=ConstantFn(forcing_hat), coeff_horizon=horizon)
