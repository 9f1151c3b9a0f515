"""Bound verification, stability classification and region estimation.

The boundedness oracle behind radius and region estimates is deliberately a
finite-horizon proxy: "bounded" means the trajectory never reaches the
blow-up cap on the simulated horizon, "decaying" additionally requires the
tail of the run to fall below a fraction of the initial norm.  Estimates are
therefore horizon-certified, not asymptotic statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dde_core import (DelaySpec, HistoryFunction, Perturbation, ScalarDelaySystem,
                       IntegrationError, ToleranceSettings, Trajectory,
                       VectorDelaySystem, integrate, sup_norm_on_interval)
from .majorant import PolynomialMajorant

__all__ = [
    "BoundReport",
    "FtsReport",
    "RobustReport",
    "BoundednessCriterion",
    "RadiusEstimate",
    "RegionBoundary",
    "verify_pointwise_ordering",
    "classify_fts",
    "robust_stability_check",
    "build_perturbed_scalar",
    "estimate_scalar_radius",
    "estimate_vector_region",
]

_FTS_POINTS = 4001
_ROBUST_SCAN_POINTS = 4000


@dataclass(frozen=True)
class BoundReport:
    """Pointwise ordering check of a chain of scalar bound series."""

    grid: np.ndarray
    vector_norms: np.ndarray
    scalar_bounds: tuple[np.ndarray, ...]
    holds: bool
    max_violation: float
    first_violation_time: float | None
    tolerance: float


def _series(traj: Trajectory, grid: np.ndarray) -> np.ndarray:
    if traj.dim == 1:
        return np.abs(traj.eval_grid(grid)[:, 0])
    return traj.norm_grid(grid)


def _check_matched_histories(trajs: Sequence[Trajectory], tol: float) -> None:
    spans = [t.history_span for t in trajs if t.history is not None]
    if len(spans) < len(trajs):
        raise ValueError("all trajectories must carry their history functions")
    span = min(spans)
    t0 = trajs[0].t_start
    grid = np.linspace(t0 - span, t0, 64)
    for t in grid:
        t = float(t)
        reference = float(np.linalg.norm(trajs[0].history(t)))
        for other in trajs[1:]:
            value = float(np.linalg.norm(other.history(t)))
            if abs(value - reference) > tol * max(1.0, abs(reference)):
                raise ValueError(
                    f"histories not matched at t={t!r}: norm {reference!r} vs {value!r}")


def verify_pointwise_ordering(trajs: Sequence[Trajectory], grid: int | np.ndarray = 2000,
                              tol: float = 1e-4) -> BoundReport:
    """Check ``s_1(t) <= s_2(t) <= ...`` pointwise.

    ``trajs`` is ordered smallest first; the first entry is typically the
    vector solution (its Euclidean norm is used as the series), the rest are
    scalar bound trajectories.  Histories must be matched: the norm of every
    history must agree with the first one's at the sampled history points.

    The reported series lie on ``grid`` over the domain all trajectories
    share.  Each adjacent pair is compared on the domain the two of them
    share, which is longer when another trajectory stopped early (a bound
    that blew up): there an integer ``grid`` is spread over the pair's
    domain, while an explicit grid is kept as given.
    """
    if len(trajs) < 2:
        raise ValueError("need at least two trajectories to compare")
    t0 = trajs[0].t_start
    t_end = min(t.t_end for t in trajs)
    for traj in trajs:
        if abs(traj.t_start - t0) > 1e-12:
            raise ValueError("trajectories do not share a start time")
    _check_matched_histories(trajs, tol)
    points = grid if isinstance(grid, int) else None
    if points is not None:
        grid = np.linspace(t0, t_end, points)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid[0] < t0 - 1e-12 or grid[-1] > t_end + 1e-12:
            raise ValueError("grid leaves the shared trajectory domain")
    series = [_series(t, grid) for t in trajs]
    max_violation = -math.inf
    first_violation = None
    for k in range(len(trajs) - 1):
        pair_end = min(trajs[k].t_end, trajs[k + 1].t_end)
        pair_grid, lower, upper = grid, series[k], series[k + 1]
        if points is not None and pair_end > t_end:
            pair_grid = np.linspace(t0, pair_end, points)
            lower, upper = _series(trajs[k], pair_grid), _series(trajs[k + 1], pair_grid)
        gaps = lower - upper
        worst = float(np.max(gaps))
        max_violation = max(max_violation, worst)
        if worst > tol:
            first = float(pair_grid[int(np.argmax(gaps > tol))])
            first_violation = first if first_violation is None else min(first_violation, first)
    holds = max_violation <= tol
    return BoundReport(grid, series[0], tuple(series[1:]), holds,
                       max_violation, first_violation, tol)


@dataclass(frozen=True)
class FtsReport:
    fts: bool
    ftcs: bool | None
    t1: float | None
    sup_value: float
    beta_crossing_time: float | None


def classify_fts(traj: Trajectory, alpha: float, beta: float, T: float,
                 gamma: float | None = None) -> FtsReport:
    """Finite-time (contractive) stability of a trajectory.

    Requires the history sup-norm below ``alpha`` and ``alpha < beta``.  The
    trajectory is finite-time stable when its norm stays below ``beta`` on
    ``[t0, t0 + T]``; with ``gamma`` it is contractively stable when some
    ``t1`` in the open interval exists after which the norm stays below
    ``gamma``.  The earliest such ``t1`` is located by bisection.
    """
    if alpha <= 0 or beta <= 0 or T <= 0:
        raise ValueError("alpha, beta and T must be positive")
    if alpha >= beta:
        raise ValueError("alpha must be smaller than beta")
    if gamma is not None and gamma <= 0:
        raise ValueError("gamma must be positive")
    t0 = traj.t_start
    t_final = t0 + T
    if t_final > traj.t_end + 1e-9:
        raise ValueError(f"T={T!r} extends past the trajectory horizon {traj.t_end!r}")
    if traj.history is None:
        raise ValueError("trajectory must carry its history for the alpha check")
    history_sup = traj.history.sup_norm(t0 - max(traj.history_span, 0.0), t0)
    if history_sup >= alpha:
        raise ValueError(f"history sup norm {history_sup!r} is not below alpha={alpha!r}")

    grid = np.linspace(t0, t_final, _FTS_POINTS)
    norms = traj.norm_grid(grid)
    sup_value = float(np.max(norms))
    beta_crossing = None
    fts = sup_value < beta
    if not fts:
        k = int(np.argmax(norms >= beta))
        lo = float(grid[max(k - 1, 0)])
        hi = float(grid[k])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if traj.norm_at(mid) >= beta:
                hi = mid
            else:
                lo = mid
        beta_crossing = hi
    if gamma is None:
        return FtsReport(fts, None, None, sup_value, beta_crossing)
    if not fts:
        return FtsReport(False, False, None, sup_value, beta_crossing)

    # running suffix maximum: tail_sup[k] = max norm on [grid[k], t_final]
    tail_sup = np.maximum.accumulate(norms[::-1])[::-1]
    below = tail_sup < gamma
    if not below[-1]:
        return FtsReport(True, False, None, sup_value, None)
    k = int(np.argmax(below))
    if k == 0:
        t1 = float(grid[1])  # open interval: stay past t0
        return FtsReport(True, True, t1, sup_value, None)
    lo = float(grid[k - 1])
    hi = float(grid[k])
    tail_after = float(tail_sup[k])

    def tail_ok(s: float) -> bool:
        local = sup_norm_on_interval(traj, s, hi, 65)
        return max(local, tail_after) < gamma

    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if tail_ok(mid):
            hi = mid
        else:
            lo = mid
    return FtsReport(True, True, hi, sup_value, None)


@dataclass(frozen=True)
class RobustReport:
    holds: bool
    y_plus: float


def robust_stability_check(p_hat: float, c_hat: float, L_hat: PolynomialMajorant,
                           y_max: float = 1e6) -> RobustReport:
    """Closed-form criterion: ``p_hat*y + c_hat*L_hat(y) < 0`` on ``(0, y_plus)``.

    ``y_plus`` is the smallest positive root of the expression (found by a
    log-spaced scan plus bisection); with no root below ``y_max`` the whole
    range counts.  Requires ``p_hat < 0``.
    """
    if p_hat >= 0:
        raise ValueError(f"the criterion requires sup p(t) < 0; got p_hat={p_hat!r}")
    if c_hat < 1.0:
        raise ValueError(f"condition-number bound must be >= 1; got {c_hat!r}")
    if L_hat.arg_count != 1:
        raise ValueError("the closed-form criterion takes a one-variable majorant")

    def g(y: float) -> float:
        return p_hat * y + c_hat * L_hat.evaluate_clamped(0.0, (y,))

    eps = 1e-9
    ys = np.geomspace(eps, y_max, _ROBUST_SCAN_POINTS)
    y_plus = y_max
    previous = eps
    found_root = False
    for y in ys:
        y = float(y)
        if g(y) >= 0.0:
            lo, hi = previous, y
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if g(mid) >= 0.0:
                    hi = mid
                else:
                    lo = mid
            y_plus = hi
            found_root = True
            break
        previous = y
    if found_root and y_plus <= eps * 10:
        return RobustReport(False, 0.0)
    sample = np.linspace(eps, y_plus * (1.0 - 1e-9), 1000)
    holds = all(g(float(y)) < 0.0 for y in sample)
    return RobustReport(holds, y_plus)


def build_perturbed_scalar(ss: ScalarDelaySystem, L_R: PolynomialMajorant,
                           perturbed_delays: DelaySpec) -> ScalarDelaySystem:
    """Attach a persistent perturbation term ``c(t) L_R(...)`` with its own
    (possibly shifted) delays.  ``L_R`` may carry constant terms."""
    if L_R.arg_count != perturbed_delays.count + 1:
        raise ValueError("perturbation majorant arguments do not match its delays")
    return replace(ss, perturbation=Perturbation(L_R, perturbed_delays))


@dataclass(frozen=True)
class BoundednessCriterion:
    """Good/bad oracle for radius searches (horizon-certified proxy)."""

    kind: str = "bounded_on_horizon"        # or "decaying_tail"
    cap: float = 1e6
    tail_fraction: float = 0.2
    decay_ratio: float = 0.5

    def __post_init__(self):
        if self.kind not in ("bounded_on_horizon", "decaying_tail"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ValueError("tail_fraction must lie in (0, 1)")

    def judge(self, traj: Trajectory, initial_norm: float, horizon_end: float) -> bool:
        if traj.blew_up or traj.t_end < horizon_end - 1e-9:
            return False
        if sup_norm_on_interval(traj, traj.t_start, traj.t_end, 256) >= self.cap:
            return False
        if self.kind == "bounded_on_horizon":
            return True
        tail_start = horizon_end - self.tail_fraction * (horizon_end - traj.t_start)
        tail = sup_norm_on_interval(traj, tail_start, traj.t_end, 256)
        return tail <= self.decay_ratio * max(initial_norm, 1e-300)


@dataclass(frozen=True)
class RadiusEstimate:
    """Bisection bracket for the largest good constant-history magnitude."""

    value: float
    lo: float
    hi: float
    status: str                       # bracketed | unbracketed_above | empty_at_zero
    criterion: str
    horizon: float
    cap: float
    tail_fraction: float
    decay_ratio: float
    probes: tuple[tuple[float, bool], ...] = ()

    def monotone_flips(self) -> tuple[float, ...]:
        """Probe magnitudes that were good above some bad probe (diagnostic)."""
        flips = []
        worst_bad = math.inf
        for q, good in sorted(self.probes):
            if not good:
                worst_bad = min(worst_bad, q)
            elif q > worst_bad:
                flips.append(q)
        return tuple(flips)


_MAX_BISECTIONS = 40


def _bisect_radius(probe, q_max: float, bisect_tol: float, criterion: BoundednessCriterion,
                   horizon: float) -> RadiusEstimate:
    probes: list[tuple[float, bool]] = []

    def good(q: float) -> bool:
        result = probe(q)
        probes.append((q, result))
        return result

    def make(value, lo, hi, status):
        return RadiusEstimate(value, lo, hi, status, criterion.kind, horizon,
                              criterion.cap, criterion.tail_fraction,
                              criterion.decay_ratio, tuple(probes))

    if q_max <= 0:
        raise ValueError("q_max must be positive")
    if good(q_max):
        return make(q_max, q_max, math.inf, "unbracketed_above")
    if not good(0.0):
        return make(0.0, 0.0, 0.0, "empty_at_zero")
    lo, hi = 0.0, q_max
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= bisect_tol * max(hi, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        if good(mid):
            lo = mid
        else:
            hi = mid
    return make(0.5 * (lo + hi), lo, hi, "bracketed")


def estimate_scalar_radius(ss: ScalarDelaySystem, criterion: BoundednessCriterion,
                           q_max: float, bisect_tol: float = 1e-3,
                           horizon: float = 50.0,
                           tol: ToleranceSettings | None = None) -> RadiusEstimate:
    """Largest constant history value ``q`` judged good, by bisection.

    Valid because solutions of the scalar comparison system increase
    monotonically in the constant history, so the good set is an interval.
    ``horizon`` is a duration from the system start time.
    """
    tol = tol or ToleranceSettings(rtol=1e-4, atol=1e-8, cap=criterion.cap)
    if tol.cap != criterion.cap:
        tol = replace(tol, cap=criterion.cap)
    horizon_end = ss.t0 + horizon

    def probe(q: float) -> bool:
        system = ss.with_constant_history(q)
        try:
            traj = integrate(system, horizon_end, tol)
        except IntegrationError:
            return False
        return criterion.judge(traj, q, horizon_end)

    return _bisect_radius(probe, q_max, bisect_tol, criterion, horizon)


@dataclass(frozen=True)
class RegionBoundary:
    """Polar boundary estimate of a planar trapping/stability region."""

    angles: np.ndarray
    radii: tuple[RadiusEstimate, ...]
    t0: float
    forcing_amplitude: float

    def radius_values(self) -> np.ndarray:
        return np.array([r.value for r in self.radii])

    def min_radius(self) -> float:
        return float(np.min(self.radius_values()))


def estimate_vector_region(vs: VectorDelaySystem, criterion: BoundednessCriterion,
                           r_max: float, bisect_tol: float = 1e-3,
                           horizon: float = 50.0,
                           tol: ToleranceSettings | None = None,
                           angle_count: int = 200) -> RegionBoundary:
    """Polar sweep of the planar region of good constant initial vectors.

    For each of ``angle_count`` uniformly spaced angles the radial coordinate
    is bisected with the same good/bad oracle as the scalar search applied to
    the vector solution norm.  Radial monotonicity is not assumed; the probe
    log of each estimate allows flips to be inspected afterwards.
    """
    if vs.dim != 2:
        raise ValueError("the polar region sweep is only defined for 2-dimensional systems")
    tol = tol or ToleranceSettings(rtol=1e-4, atol=1e-8, cap=criterion.cap)
    if tol.cap != criterion.cap:
        tol = replace(tol, cap=criterion.cap)
    horizon_end = vs.t0 + horizon
    angles = np.arange(angle_count) * (2.0 * math.pi / angle_count)
    estimates = []
    for angle in angles:
        direction = np.array([math.cos(float(angle)), math.sin(float(angle))])

        def probe(r: float) -> bool:
            system = replace(vs, history=HistoryFunction.constant(r * direction))
            try:
                traj = integrate(system, horizon_end, tol)
            except IntegrationError:
                return False
            return criterion.judge(traj, r, horizon_end)

        estimates.append(_bisect_radius(probe, r_max, bisect_tol, criterion, horizon))
    return RegionBoundary(angles, tuple(estimates), vs.t0, vs.forcing_amplitude)
