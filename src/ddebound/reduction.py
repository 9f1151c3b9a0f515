"""Reduction of a vector delay system to its scalar comparison system.

The fundamental matrix ``w(t)`` of the linear part is integrated as a matrix
initial value problem with ``w(t0) = I``; its largest singular value drives
the log-norm rate ``p(t)`` (finite differences of ``ln sigma_max``) and its
condition number gives ``c(t)``.  The scalar system then reads
``y' = p(t) y + c(t) (L(t, ...) + |F(t)|)`` with the scalar history equal to
the norm of the vector history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .dde_core import (DelaySpec, ScalarDelaySystem, ToleranceSettings,
                       Trajectory, VectorDelaySystem, integrate)
from .linalg import matrix_norm_function, singular_values
from .majorant import PolynomialMajorant, PolynomialTerm
from .timefn import ConstantFn, as_time_function, grid_supremum

__all__ = [
    "IllConditionedError",
    "FundamentalMatrixSolution",
    "CoefficientPair",
    "compute_fundamental_matrix",
    "p_of_t",
    "c_of_t",
    "build_scalar_auxiliary",
    "build_autonomous_auxiliary",
]

_CONDITION_FLOOR = 1e-12


class IllConditionedError(RuntimeError):
    def __init__(self, time: float, sigma_max: float, sigma_min: float):
        super().__init__(
            f"fundamental matrix is numerically singular at t={time!r} "
            f"(sigma_max={sigma_max!r}, sigma_min={sigma_min!r})")
        self.time = time


class _MatrixIvp:
    """Adapter integrating ``W' = A(t) W`` as a flattened vector system."""

    def __init__(self, A, dim: int, t0: float):
        self.A = A
        self.dim = dim
        self.t0 = t0
        self.history = None

    def delay_spec(self) -> DelaySpec:
        return DelaySpec.none()

    def initial_state(self) -> np.ndarray:
        return np.eye(self.dim).ravel()

    def history_eval(self, t: float) -> np.ndarray:  # pragma: no cover - no delays
        raise AssertionError("the matrix IVP has no delays")

    def coefficient_horizon(self) -> float:
        return math.inf

    def rhs(self, t, w_flat, delayed):
        w = w_flat.reshape(self.dim, self.dim)
        return (np.asarray(self.A(t), dtype=float) @ w).ravel()

    def validate_for_integration(self, horizon: float) -> None:
        a0 = np.asarray(self.A(self.t0), dtype=float)
        if a0.shape != (self.dim, self.dim):
            raise ValueError(f"A(t) must return a {self.dim}x{self.dim} matrix")


class FundamentalMatrixSolution:
    """Dense ``w(t)`` with ``w(t0) = I`` and cached singular values.

    The cache fills idempotently, so concurrent readers are safe.
    """

    def __init__(self, source, trajectory: Trajectory, dim: int, t0: float, horizon: float):
        self.source = source
        self.trajectory = trajectory
        self.dim = dim
        self.t0 = t0
        self.horizon = horizon
        self._sigma_cache: dict[float, tuple[float, float]] = {}

    def w(self, t: float) -> np.ndarray:
        return self.trajectory.eval(t).reshape(self.dim, self.dim)

    def singular_pair(self, t: float) -> tuple[float, float]:
        """(sigma_max, sigma_min) of ``w(t)``, Jacobi-computed and cached."""
        cached = self._sigma_cache.get(t)
        if cached is not None:
            return cached
        sigma = singular_values(self.w(t))
        pair = (float(sigma[0]), float(sigma[-1]))
        if pair[1] < _CONDITION_FLOOR * pair[0]:
            raise IllConditionedError(t, pair[0], pair[1])
        self._sigma_cache[t] = pair
        return pair

    def norm(self, t: float) -> float:
        return self.singular_pair(t)[0]

    def inverse_norm(self, t: float) -> float:
        return 1.0 / self.singular_pair(t)[1]

    def node_times(self) -> np.ndarray:
        return self.trajectory.ts


def compute_fundamental_matrix(A, t0: float, horizon: float,
                               tol: ToleranceSettings | None = None,
                               dim: int | None = None) -> FundamentalMatrixSolution:
    """Integrate ``w' = A(t) w``, ``w(t0) = I`` with dense output."""
    if dim is None:
        probe = np.asarray(A(t0), dtype=float)
        if probe.ndim != 2 or probe.shape[0] != probe.shape[1]:
            raise ValueError(f"A(t0) has shape {probe.shape}, expected square")
        dim = probe.shape[0]
    tol = tol or ToleranceSettings(rtol=1e-8, atol=1e-12, cap=math.inf)
    traj = integrate(_MatrixIvp(A, dim, t0), horizon, tol)
    return FundamentalMatrixSolution(A, traj, dim, t0, horizon)


def _fd_step(t: float) -> float:
    return 1e-4 * max(1.0, abs(t))


def p_of_t(W: FundamentalMatrixSolution, t: float) -> float:
    """Central finite difference of ``ln sigma_max(w(.))`` at ``t``."""
    delta = _fd_step(t)
    if t - delta < W.t0 - 1e-12 or t + delta > W.horizon + 1e-12:
        raise ValueError(
            f"t={t!r} too close to the computed horizon ends for the stencil "
            f"(needs [{t - delta}, {t + delta}] inside [{W.t0}, {W.horizon}])")
    hi = W.norm(t + delta)
    lo = W.norm(t - delta)
    return (math.log(hi) - math.log(lo)) / (2.0 * delta)


def c_of_t(W: FundamentalMatrixSolution, t: float) -> float:
    """Running condition number ``sigma_max / sigma_min`` of ``w(t)``."""
    sigma_max, sigma_min = W.singular_pair(t)
    return sigma_max / sigma_min


@dataclass(frozen=True)
class CoefficientPair:
    """Rate ``p(t)`` and condition number ``c(t)`` of the scalar system."""

    p: Callable[[float], float]
    c: Callable[[float], float]
    provenance: str                      # "closed_form" | "numerical"
    t_lo: float = -math.inf
    t_hi: float = math.inf
    crossing_times: tuple[float, ...] = ()

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
        """Sample p and c at the accepted integration steps and interpolate.

        The finite-difference stencil for p needs room on both sides, so the
        usable range shrinks by one stencil step at each end.  Singular-value
        near-crossings (where the log-norm may lose smoothness) are recorded
        in ``crossing_times``.
        """
        delta0 = _fd_step(W.t0)
        delta1 = _fd_step(W.horizon)
        lo = W.t0 + delta0
        hi = W.horizon - delta1
        nodes = [float(t) for t in W.node_times() if lo <= t <= hi]
        if not nodes or nodes[0] > lo + 1e-12:
            nodes.insert(0, lo)
        if nodes[-1] < hi - 1e-12:
            nodes.append(hi)
        grid = np.array(sorted(set(nodes)))
        if grid.size < 4:
            grid = np.linspace(lo, hi, 8)
        p_vals = np.array([p_of_t(W, float(t)) for t in grid])
        pairs = [W.singular_pair(float(t)) for t in grid]
        c_vals = np.array([smax / smin for smax, smin in pairs])
        crossings = tuple(
            float(t) for t, (smax, smin) in zip(grid, pairs)
            if smax - smin < 1e-6 * smax and W.dim > 1 and smax != smin)
        p_spline = CubicSpline(grid, p_vals)
        c_spline = CubicSpline(grid, c_vals)
        return cls(lambda s: float(p_spline(s)),
                   lambda s: float(c_spline(s)),
                   "numerical", t_lo=W.t0, t_hi=W.horizon,
                   crossing_times=crossings)


def build_scalar_auxiliary(vs: VectorDelaySystem,
                           split,
                           coeffs: CoefficientPair,
                           majorant: PolynomialMajorant) -> ScalarDelaySystem:
    """Assemble the scalar comparison system for ``vs``.

    ``majorant`` must dominate the norm of the full nonlinear term of ``vs``.
    When ``split`` (a matrix time-function, the remainder after the part
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
        norm_fn = matrix_norm_function(split)
        exponents = tuple(1 if i == 0 else 0 for i in range(majorant.arg_count))
        majorant = majorant.with_extra_terms([PolynomialTerm(norm_fn, exponents)])
    if vs.forcing_amplitude > 0.0:
        shape = vs.forcing_shape
        amplitude = vs.forcing_amplitude
        forcing = lambda t: amplitude * float(np.linalg.norm(np.asarray(shape(t), dtype=float)))
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
                               margin: float = 1e-3,
                               samples: int = 10_000) -> ScalarDelaySystem:
    """Freeze all time-varying coefficients at their (inflated) suprema.

    Suprema are taken on a uniform grid over ``[t0, t0 + horizon... ]`` --
    precisely ``[t0, horizon]`` in absolute time -- and inflated by the
    relative ``margin`` so the frozen system still dominates the original.
    Constant coefficients pass through unchanged.
    """
    t_lo, t_hi = ss.t0, horizon
    if t_hi <= t_lo:
        raise ValueError("horizon must exceed the start time")
    p_hat = grid_supremum(ss.p, t_lo, t_hi, samples, margin)
    c_hat = grid_supremum(ss.c, t_lo, t_hi, samples, margin)
    forcing_hat = grid_supremum(lambda s: abs(ss.forcing(s)), t_lo, t_hi, samples, margin) \
        if not isinstance(ss.forcing, ConstantFn) else abs(ss.forcing.value)
    frozen = ss.majorant.term_suprema(t_lo, t_hi, samples, margin)
    perturbation = ss.perturbation
    if perturbation is not None:
        perturbation = type(perturbation)(
            perturbation.majorant.term_suprema(t_lo, t_hi, samples, margin),
            perturbation.delays)
    return ScalarDelaySystem(
        p=ConstantFn(p_hat),
        c=ConstantFn(max(c_hat, 1.0)),
        majorant=frozen,
        forcing=ConstantFn(forcing_hat),
        delays=ss.delays,
        history=ss.history,
        t0=ss.t0,
        perturbation=perturbation,
        coeff_horizon=math.inf,
    )
