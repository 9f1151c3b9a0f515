"""Linear scalar comparison systems and their superposition check.

A `LinearScalarDDE` is ``u' = P(t)u + sum_i g_i(t) u(t - h_i(t)) + F0*s(t)``
with nonnegative delayed coefficients ``g_i`` and forcing shape ``s``.  It is
what the nonlinear scalar comparison system linearizes to near the origin;
like that system, it is valid only up to the horizon its coefficients were
read on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .dde_core import (DelayProblem, DelaySpec, HistoryFunction, ToleranceSettings,
                       _check_coeff_horizon, integrate)
from .expressions import _generate
from .majorant import LinearizedCoefficients, linearize_majorant
from .reduction import CoefficientPair
from .timefn import (ConstantFn, TimeFunction, _compose, _literal, _source_of,
                     as_time_function, grid_supremum, locate_zeros, sample)

__all__ = [
    "LinearScalarDDE",
    "build_linear_auxiliary",
    "build_linear_chain",
    "superposition_check",
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
    coeff_horizon: float = math.inf
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
        """The problem on ``[t0, horizon]``, refused past ``coeff_horizon``;
        its kinks are the zeros of the forcing shape (a norm, so they are its
        corners).  The delayed coefficients are checked nonnegative and the
        kinks located once per coefficient functions, ``t0`` and horizon: the
        record passes through `replace` with the functions, so the systems a
        check or chain makes for each history and amplitude share it."""
        _check_coeff_horizon(self.coeff_horizon, horizon)
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
    autonomous system give the constant-coefficient bound U.  The system is
    valid up to ``coeffs.t_hi``."""
    if lc.arg_count != delays.count + 1:
        raise ValueError("linearized coefficient count does not match the delays")
    p, c = coeffs.p, coeffs.c
    mu = lc.mu
    rate = _compose("{} + {} * abs({})", p, c, mu[0])
    delayed = tuple(_compose("{} * abs({})", c, m) for m in mu[1:])
    shape = _compose("{} * {}", c, as_time_function(forcing_norm))
    return LinearScalarDDE(rate, delayed, delays, shape, forcing_amplitude,
                           history, t0, coeffs.t_hi)


def build_linear_chain(pipe):
    """The time-varying linearization u of the scalar system of ``pipe`` (a
    `cli.Pipeline`) and the constant-coefficient U, the same linearization of
    its frozen variant: the two linear systems of the chain ``y <= u <= U``
    and of the superposition checks.  Each is valid as far as the system it
    linearizes: u up to the reduction's horizon (unbounded for closed-form
    coefficients), U up to the frozen system's.  `cli` imports it too."""
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
    frozen = CoefficientPair(auto.p, auto.c, "closed_form", auto.coeff_horizon)
    constant = build_linear_auxiliary(frozen, linearize_majorant(auto.majorant, zt),
                                      scalar.delays, ConstantFn(forcing_norm_hat),
                                      vs.forcing_amplitude, scalar.history, scalar.t0)
    return linear, constant


def superposition_check(sys: LinearScalarDDE, history: HistoryFunction,
                        forcing_amplitude: float, horizon: float,
                        tol: ToleranceSettings | None = None) -> float:
    """Max residual of ``u(phi, F0) = u_h(phi) + F0 * u_nh`` on a 1001-point grid.

    The three runs share one coefficient set, so its checks run once
    (`LinearScalarDDE.problem`); the homogeneous run has no kinks."""
    particular = integrate(replace(sys, history=HistoryFunction.constant([0.0]),
                                   forcing_amplitude=1.0), horizon, tol)
    forced = replace(sys, history=history, forcing_amplitude=forcing_amplitude)
    full = integrate(forced, horizon, tol)
    homogeneous = integrate(replace(forced, forcing_amplitude=0.0), horizon, tol)
    grid = np.linspace(sys.t0, horizon, _SUPERPOSITION_POINTS)
    combined = (homogeneous.eval_grid(grid)[:, 0]
                + forcing_amplitude * particular.eval_grid(grid)[:, 0])
    return float(np.max(np.abs(full.eval_grid(grid)[:, 0] - combined), initial=0.0))
