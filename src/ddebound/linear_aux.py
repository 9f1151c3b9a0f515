"""Linear scalar comparison systems: Cauchy function, superposition, bounds.

A `LinearScalarDDE` is ``u' = P(t)u + sum_i g_i(t) u(t - h_i(t)) + F0*s(t)``
with nonnegative delayed coefficients ``g_i`` and forcing shape ``s``.  It is
what the nonlinear scalar comparison system linearizes to near the origin;
the linearization radius travels with the system so that responses leaving
it can be flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .analysis import _check_matched_histories, _explicit_grid
from .dde_core import (DelayProblem, DelaySpec, HistoryFunction, ToleranceSettings,
                       Trajectory, integrate)
from .expressions import _generate
from .majorant import LinearizedCoefficients, linearize_majorant
from .reduction import CoefficientPair
from .timefn import (ConstantFn, TimeFunction, _compose, _literal, _source_of,
                     as_time_function, grid_supremum, locate_zeros, sample)

__all__ = [
    "LinearScalarDDE",
    "LinearResponse",
    "IssReport",
    "build_linear_auxiliary",
    "build_linear_chain",
    "integrate_linear",
    "cauchy_function",
    "particular_response",
    "superposition_check",
    "iss_bound_series",
]

_SUPERPOSITION_POINTS = 1001


@dataclass(frozen=True)
class LinearScalarDDE:
    """Linear scalar delay equation with nonnegative delayed coefficients."""

    rate: TimeFunction                       # P(t)
    delayed_coeffs: tuple[TimeFunction, ...]
    delays: DelaySpec
    forcing_shape: TimeFunction              # multiplies the amplitude below
    forcing_amplitude: float
    history: HistoryFunction
    t0: float = 0.0
    zeta_tilde: float | None = None
    # the checks `problem` has passed, by coefficient functions, t0 and horizon
    _checked: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rate", as_time_function(self.rate))
        object.__setattr__(self, "forcing_shape", as_time_function(self.forcing_shape))
        object.__setattr__(self, "delayed_coeffs",
                           tuple(as_time_function(g) for g in self.delayed_coeffs))
        if len(self.delayed_coeffs) != self.delays.count:
            raise ValueError("one delayed coefficient per delay is required")
        if self.history.dim != 1:
            raise ValueError("linear scalar systems take one-dimensional histories")

    def with_history(self, history: HistoryFunction) -> "LinearScalarDDE":
        return replace(self, history=history)

    def with_amplitude(self, amplitude: float) -> "LinearScalarDDE":
        return replace(self, forcing_amplitude=amplitude)

    @cached_property
    def rhs(self):
        """The right side ``rhs(t, y, delayed)``, one generated sum on Python
        floats (numpy scalars give the same bits), returning a one-tuple:
        ``P(t) u + g_1(t) u(t - h_1) + ... + F0 s(t)`` in that order, every
        coefficient inlined or called once; the forcing term is left out when
        the amplitude is zero."""
        names: dict = {}
        terms = [f"{_source_of(self.rate, names)} * y[0]"]
        terms += [f"{_source_of(g, names)} * delayed[{i}][0]"
                  for i, g in enumerate(self.delayed_coeffs)]
        if self.forcing_amplitude != 0.0:
            terms.append(f"{_literal(self.forcing_amplitude)} * "
                         f"{_source_of(self.forcing_shape, names)}")
        return _generate("t, y, delayed", f"({' + '.join(terms)},)", names)

    def problem(self, horizon: float) -> DelayProblem:
        """The problem on ``[t0, horizon]``; its kinks are the zeros of the
        forcing shape (a norm, so they are its corners).  The delayed
        coefficients are checked nonnegative and the kinks located once per
        coefficient functions, ``t0`` and horizon: the record passes through
        `replace` with the functions, so the systems a check or chain makes
        for each history and amplitude share it."""
        checked = self._checked
        if (self.delayed_coeffs, self.t0, horizon) not in checked:
            grid, rows = sample(self.delayed_coeffs, self.t0, horizon)
            negative = np.argwhere(rows < -1e-12)
            if negative.size:
                t = float(grid[negative[0, 1]])
                raise ValueError(f"delayed coefficient is negative at t={t!r}")
            checked[self.delayed_coeffs, self.t0, horizon] = True
        problem = DelayProblem(self.rhs, self.delays, self.history, self.t0)
        if self.forcing_amplitude == 0.0:
            return problem
        key = (self.forcing_shape, self.t0, horizon)
        if key not in checked:
            checked[key] = locate_zeros(self.forcing_shape, self.t0, horizon)
        return replace(problem, kinks=checked[key])


def build_linear_auxiliary(coeffs: CoefficientPair, lc: LinearizedCoefficients,
                           delays: DelaySpec, forcing_norm, forcing_amplitude: float,
                           history: HistoryFunction, t0: float = 0.0) -> LinearScalarDDE:
    """Linear comparison system from reduction coefficients and a linearized
    majorant: rate ``p + c*mu_1``, delayed coefficients ``c*mu_{i+1}``,
    forcing shape ``c(t)*|e(t)|``.  Each is one generated function, and
    products of constants stay constants, so the frozen coefficients of the
    autonomous system give the constant-coefficient bound U."""
    if lc.arg_count != delays.count + 1:
        raise ValueError("linearized coefficient count does not match the delays")
    p, c = coeffs.p, coeffs.c
    mu = lc.mu
    rate = _compose("{} + {} * abs({})", p, c, mu[0])
    delayed = tuple(_compose("{} * abs({})", c, m) for m in mu[1:])
    shape = _compose("{} * {}", c, as_time_function(forcing_norm))
    return LinearScalarDDE(rate, delayed, delays, shape, forcing_amplitude,
                           history, t0, zeta_tilde=lc.zeta_tilde)


def build_linear_chain(pipe):
    """The time-varying linearization u of the scalar system of ``pipe`` (a
    `cli.Pipeline`) and the constant-coefficient U, the same linearization of
    its frozen variant: the two linear systems of the chain ``y <= u <= U``
    and of the superposition checks."""
    cfg = pipe.config
    scalar = pipe.scalar_system
    auto = pipe.autonomous_system
    zt = cfg.reduction.zeta_tilde
    vs = cfg.system
    forcing_norm = vs.forcing_shape.norm if vs.forcing_amplitude > 0 else ConstantFn(0.0)
    linear = build_linear_auxiliary(pipe.coefficients, linearize_majorant(scalar.majorant, zt),
                                    scalar.delays, forcing_norm, vs.forcing_amplitude,
                                    scalar.history, scalar.t0)
    (forcing_norm_hat,) = grid_supremum([forcing_norm], scalar.t0, pipe.horizon,
                                        cfg.reduction.margin)
    constant = build_linear_auxiliary(CoefficientPair.closed_form(auto.p, auto.c),
                                      linearize_majorant(auto.majorant, zt),
                                      scalar.delays, ConstantFn(forcing_norm_hat),
                                      vs.forcing_amplitude, scalar.history, scalar.t0)
    return linear, constant


@dataclass(frozen=True)
class LinearResponse:
    """Trajectory of a linearized system plus linearization-domain status."""

    trajectory: Trajectory
    sup_value: float
    zeta_tilde: float | None

    @property
    def exceeded_linearization(self) -> bool:
        return self.zeta_tilde is not None and self.sup_value > self.zeta_tilde


def integrate_linear(sys: LinearScalarDDE, horizon: float,
                     tol: ToleranceSettings | None = None) -> LinearResponse:
    traj = integrate(sys, horizon, tol)
    return LinearResponse(traj, traj.sup_norm(), sys.zeta_tilde)


def cauchy_function(sys: LinearScalarDDE, s: float, horizon: float,
                    tol: ToleranceSettings | None = None) -> Trajectory:
    """Response on ``[s, horizon]`` to a unit value at ``s`` with zero
    pre-history; the forcing of ``sys`` is ignored."""
    if s < sys.t0:
        raise ValueError(f"s={s!r} precedes the system start time {sys.t0!r}")
    if horizon <= s:
        raise ValueError(f"horizon {horizon!r} must exceed s={s!r}")
    # the unit start over a zero pre-history is a jump at s: lookups strictly
    # before s read 0, lookups at or after s the dense solution
    unforced = replace(sys, t0=s, history=HistoryFunction.constant([0.0]),
                       forcing_amplitude=0.0)
    return integrate(replace(unforced.problem(horizon), y0=np.array([1.0])), horizon, tol)


def _unit_forced(sys: LinearScalarDDE) -> LinearScalarDDE:
    return replace(sys, history=HistoryFunction.constant([0.0]), forcing_amplitude=1.0)


def particular_response(sys: LinearScalarDDE, horizon: float,
                        tol: ToleranceSettings | None = None) -> Trajectory:
    """Forced response with zero history and unit forcing amplitude."""
    return integrate(_unit_forced(sys), horizon, tol)


def superposition_check(sys: LinearScalarDDE, history: HistoryFunction,
                        forcing_amplitude: float, horizon: float,
                        tol: ToleranceSettings | None = None) -> float:
    """Max residual of ``u(phi, F0) = u_h(phi) + F0 * u_nh`` on a 1001-point grid.

    The three runs share one coefficient set, so its checks run once
    (`LinearScalarDDE.problem`); the homogeneous run has no kinks."""
    particular = integrate(_unit_forced(sys), horizon, tol)
    forced = replace(sys, history=history, forcing_amplitude=forcing_amplitude)
    full = integrate(forced, horizon, tol)
    homogeneous = integrate(forced.with_amplitude(0.0), horizon, tol)
    grid = np.linspace(sys.t0, horizon, _SUPERPOSITION_POINTS)
    combined = (homogeneous.eval_grid(grid)[:, 0]
                + forcing_amplitude * particular.eval_grid(grid)[:, 0])
    return float(np.max(np.abs(full.eval_grid(grid)[:, 0] - combined), initial=0.0))


@dataclass(frozen=True)
class IssReport:
    """Pointwise check of ``|x(t)| <= u_h(t) + F0 * u_nh(t)``."""

    grid: np.ndarray
    vector_norms: np.ndarray
    bound_values: np.ndarray
    holds: bool
    max_violation: float
    first_violation_time: float | None


def iss_bound_series(vector_traj: Trajectory, u_h: Trajectory, u_nh: Trajectory,
                     forcing_amplitude: float, grid: np.ndarray,
                     tol: float = 1e-6) -> IssReport:
    """Evaluate the input-to-state style bound on ``grid``, a non-empty,
    strictly increasing 1-D array of times.

    Histories must be matched (the scalar history of ``u_h`` equal to the
    norm of the vector history); violations of the bound itself are reported,
    not raised, since they are the expected failure mode outside the
    linearization's validity.
    """
    grid = _explicit_grid(grid)
    for traj in (vector_traj, u_h, u_nh):
        if not traj.covers(grid[0], grid[-1]):
            raise ValueError("time grid leaves a trajectory domain")
    if vector_traj.history is not None and u_h.history is not None:
        _check_matched_histories([vector_traj, u_h], 1e-9)
    norms = vector_traj.norm_grid(grid)
    bounds = u_h.eval_grid(grid)[:, 0] + forcing_amplitude * u_nh.eval_grid(grid)[:, 0]
    gaps = norms - bounds
    max_violation = float(np.max(gaps))
    holds = max_violation <= tol
    first = None
    if not holds:
        first = float(grid[int(np.argmax(gaps > tol))])
    return IssReport(grid, norms, bounds, holds, max_violation, first)
