"""Bound verification, stability classification and region estimation.

The boundedness oracle behind radius and region estimates is deliberately a
finite-horizon proxy: "bounded" means the trajectory never reaches the
blow-up cap on the simulated horizon, "decaying" additionally requires the
exact sup of the run's tail (`Trajectory.sup_norm`) to fall below a fraction
of the initial norm.  Estimates are therefore horizon-certified, not
asymptotic statements, except the exact radius of a frozen
constant-coefficient system (a polynomial root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dde_core import (DelaySpec, HistoryFunction, ScalarDelaySystem, IntegrationError,
                       ToleranceSettings, Trajectory, VectorDelaySystem, _norm, integrate,
                       integrate_batch)
from .majorant import PolynomialMajorant, PolynomialTerm
from .timefn import ConstantFn, sample

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
    "frozen_scalar_radius",
    "estimate_vector_region",
]


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


def _check_matched_histories(trajs: Sequence[Trajectory], tol: float) -> None:
    spans = [t.history_span for t in trajs if t.history is not None]
    if len(spans) < len(trajs):
        raise ValueError("all trajectories must carry their history functions")
    t0 = trajs[0].t_start
    grid, (reference, *others) = sample(
        [traj.history.reduced(_norm) for traj in trajs], t0 - min(spans), t0)
    for values in others:
        apart = np.abs(values - reference) > tol * np.maximum(1.0, np.abs(reference))
        if apart.any():
            i = int(np.argmax(apart))
            raise ValueError(f"histories not matched at t={float(grid[i])!r}: "
                             f"norm {float(reference[i])!r} vs {float(values[i])!r}")


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
    series = [t.norm_grid(grid) for t in trajs]
    max_violation = -math.inf
    first_violation = None
    for k in range(len(trajs) - 1):
        pair_end = min(trajs[k].t_end, trajs[k + 1].t_end)
        pair_grid, lower, upper = grid, series[k], series[k + 1]
        if points is not None and pair_end > t_end:
            pair_grid = np.linspace(t0, pair_end, points)
            lower, upper = trajs[k].norm_grid(pair_grid), trajs[k + 1].norm_grid(pair_grid)
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
    ``[t0, t0 + T]``; with ``gamma`` it is contractively stable when it ends
    below ``gamma``, where it stays after ``t1``, the last crossing of
    ``gamma`` (`Trajectory.crossings`; ``t0`` if none).  The ``beta`` crossing
    is the first time the dense output reads it (`Trajectory.first_crossing`)
    and ``sup_value``, only reported, its exact sup (`Trajectory.sup_norm`).
    """
    if alpha <= 0 or beta <= 0 or T <= 0:
        raise ValueError("alpha, beta and T must be positive")
    if alpha >= beta:
        raise ValueError("alpha must be smaller than beta")
    if gamma is not None and gamma <= 0:
        raise ValueError("gamma must be positive")
    t0 = traj.t_start
    t_final = t0 + T
    if not traj.covers(t0, t_final):
        raise ValueError(f"T={T!r} extends past the trajectory horizon {traj.t_end!r}")
    if traj.history is None:
        raise ValueError("trajectory must carry its history for the alpha check")
    history_sup = float(np.max(sample([traj.history.reduced(_norm)],
                                      t0 - max(traj.history_span, 0.0), t0)[1]))
    if history_sup >= alpha:
        raise ValueError(f"history sup norm {history_sup!r} is not below alpha={alpha!r}")

    sup_value = traj.sup_norm(t0, t_final)
    beta_crossing = traj.first_crossing(beta, t0, t_final)
    fts = beta_crossing is None
    if gamma is None:
        return FtsReport(fts, None, None, sup_value, beta_crossing)
    if not fts:
        return FtsReport(False, False, None, sup_value, beta_crossing)
    if traj.norm_at(t_final) >= gamma:
        return FtsReport(True, False, None, sup_value, None)
    roots = traj.crossings(gamma, t0, t_final)
    return FtsReport(True, True, float(roots[-1]) if roots.size else t0, sup_value, None)


@dataclass(frozen=True)
class RobustReport:
    holds: bool
    y_plus: float


def _frozen_root(p_hat: float, c_hat: float, majorant: PolynomialMajorant,
                 cap: float) -> float:
    """Smallest positive zero of ``g(q) = p_hat*q + c_hat*L(q, ..., q)``, at
    most ``cap``, for constant coefficients.  By total degree ``g(q)/q = p_hat +
    c_hat * sum_d a_d q^(d-1)`` with all ``a_d >= 0``, so by Descartes' rule it
    has at most one positive zero; 0 if ``g >= 0`` right above 0, ``cap`` if no
    term of degree >= 2 can turn it.  A time-varying coefficient is refused."""
    a = np.zeros(max((term.degree for term in majorant.terms), default=1) + 1)
    for term in majorant.terms:
        if not isinstance(term.coeff, ConstantFn):
            raise ValueError("the closed-form root needs constant majorant coefficients")
        a[term.degree] += abs(term.coeff.value)
    if a[0] > 0.0 or p_hat + c_hat * a[1] >= 0.0:
        return 0.0
    if not np.any(a[2:]):
        return cap
    roots = np.roots(np.append(c_hat * a[:1:-1], p_hat + c_hat * a[1]))
    positive = roots.real[(roots.real > 0.0) & (roots.imag == 0.0)]
    return min(float(np.min(positive)), cap)


def robust_stability_check(p_hat: float, c_hat: float, L_hat: PolynomialMajorant,
                           y_max: float = 1e6) -> RobustReport:
    """Closed-form criterion: ``p_hat*y + c_hat*L_hat(y) < 0`` on ``(0, y_plus)``.

    ``y_plus`` is the smallest positive root of the expression, ``y_max``
    when there is none below it, and 0 (the criterion fails) when the
    expression is nonnegative right above 0.  Requires ``p_hat < 0``.
    """
    if p_hat >= 0:
        raise ValueError(f"the criterion requires sup p(t) < 0; got p_hat={p_hat!r}")
    if c_hat < 1.0:
        raise ValueError(f"condition-number bound must be >= 1; got {c_hat!r}")
    if L_hat.arg_count != 1:
        raise ValueError("the closed-form criterion takes a one-variable majorant")
    y_plus = _frozen_root(p_hat, c_hat, L_hat, y_max)
    return RobustReport(y_plus > 0.0, y_plus)


def build_perturbed_scalar(ss: ScalarDelaySystem, L_R: PolynomialMajorant,
                           perturbed_delays: DelaySpec) -> ScalarDelaySystem:
    """Add a persistent perturbation ``c(t) L_R(t, y, y(t - h*_i))`` with its
    own (possibly shifted) delays ``h*``.  Its terms join the system's
    majorant: the ``h*`` become delay slots behind the system's ``m``, each
    ``L_R`` term keeps its state exponent and moves its delayed exponents onto
    those slots, and the system's terms read them with exponent 0.  ``L_R``
    may carry constant terms."""
    if L_R.arg_count != perturbed_delays.count + 1:
        raise ValueError("perturbation majorant arguments do not match its delays")
    L, m, k = ss.majorant, ss.delays.count, perturbed_delays.count
    merged = PolynomialMajorant(
        (*(PolynomialTerm(term.coeff, term.exponents + (0,) * k) for term in L.terms),
         *(PolynomialTerm(term.coeff, (term.exponents[0], *(0,) * m, *term.exponents[1:]))
           for term in L_R.terms)),
        m + k + 1, L.allow_constant_terms or L_R.allow_constant_terms)
    return replace(ss, majorant=merged, delays=ss.delays.merged_with(perturbed_delays))


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
        if not self.decay_ratio > 0.0:
            raise ValueError("decay_ratio must be positive")

    def judge(self, traj: Trajectory, initial_norm: float, horizon_end: float) -> bool:
        """Good when the run completed to ``horizon_end`` without reading the
        cap; for ``decaying_tail`` also when its exact sup on the last
        ``tail_fraction`` of the run is at most ``decay_ratio * initial_norm``."""
        if (traj.blew_up or traj.t_end < horizon_end - 1e-9
                or traj.first_crossing(self.cap) is not None):
            return False
        if self.kind == "bounded_on_horizon":
            return True
        tail_start = horizon_end - self.tail_fraction * (horizon_end - traj.t_start)
        return traj.sup_norm(tail_start) <= self.decay_ratio * max(initial_norm, 1e-300)


@dataclass(frozen=True)
class RadiusEstimate:
    """Bisection bracket for the largest good constant-history magnitude, or
    its exact value with ``lo == hi == value``."""

    value: float
    lo: float
    hi: float
    status: str     # bracketed | analytic (exact) | unbracketed_above | empty_at_zero
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


def _estimate(criterion: BoundednessCriterion, horizon: float, value: float, lo: float,
              hi: float, status: str, probes=()) -> RadiusEstimate:
    return RadiusEstimate(value, lo, hi, status, criterion.kind, horizon, criterion.cap,
                          criterion.tail_fraction, criterion.decay_ratio, probes)


def _bisection(q_max: float, bisect_tol: float, criterion: BoundednessCriterion,
               horizon: float):
    """One radius search as a generator: it yields each probe magnitude,
    receives the verdict and returns the `RadiusEstimate`."""
    probes: list[tuple[float, bool]] = []

    def judged(q: float, good: bool) -> bool:
        probes.append((q, good))
        return good

    def make(value, lo, hi, status):
        return _estimate(criterion, horizon, value, lo, hi, status, tuple(probes))

    if judged(q_max, (yield q_max)):
        return make(q_max, q_max, math.inf, "unbracketed_above")
    if not judged(0.0, (yield 0.0)):
        return make(0.0, 0.0, 0.0, "empty_at_zero")
    lo, hi = 0.0, q_max
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= bisect_tol * max(hi, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        if judged(mid, (yield mid)):
            lo = mid
        else:
            hi = mid
    return make(0.5 * (lo + hi), lo, hi, "bracketed")


def _lockstep(searches: Sequence, probe) -> list[RadiusEstimate]:
    """Run `_bisection` searches side by side: every round collects the
    pending magnitude of each unfinished search and judges them all with one
    ``probe([(search index, magnitude), ...]) -> [verdict, ...]`` call."""
    results: list[RadiusEstimate | None] = [None] * len(searches)
    pending = [(k, next(search)) for k, search in enumerate(searches)]
    while pending:
        verdicts = probe(pending)
        waiting = []
        for (k, _q), verdict in zip(pending, verdicts):
            try:
                waiting.append((k, searches[k].send(verdict)))
            except StopIteration as done:
                results[k] = done.value
        pending = waiting
    return results


def estimate_scalar_radius(ss: ScalarDelaySystem, criterion: BoundednessCriterion,
                           q_max: float, bisect_tol: float = 1e-3,
                           horizon: float = 50.0,
                           tol: ToleranceSettings | None = None) -> RadiusEstimate:
    """Largest constant history value ``q`` judged good, by bisection.

    Valid because solutions of the scalar comparison system increase
    monotonically in the constant history, so the good set is an interval.
    ``horizon`` is a duration from the system start time.
    """
    if q_max <= 0:
        raise ValueError("q_max must be positive")
    tol = replace(tol or ToleranceSettings(rtol=1e-4, atol=1e-8), cap=criterion.cap)
    horizon_end = ss.t0 + horizon

    def probe(batch):
        ((_k, q),) = batch
        try:
            traj = integrate(ss.with_constant_history(q), horizon_end, tol)
        except IntegrationError:
            return [False]
        return [criterion.judge(traj, q, horizon_end)]

    (estimate,) = _lockstep([_bisection(q_max, bisect_tol, criterion, horizon)], probe)
    return estimate


def frozen_scalar_radius(ss: ScalarDelaySystem, criterion: BoundednessCriterion,
                         q_max: float, horizon: float = 50.0) -> RadiusEstimate:
    """Exact constant-history radius (status ``analytic``, no probes) of a
    homogeneous system with constant coefficients whose majorant has no
    constant term.  It is monotone in its history, so the
    radius is the smallest positive zero of ``g(q) = p*q + c*L(q, ..., q)``:
    below it ``q`` is a super-solution, above it the solution grows.
    ``criterion`` and ``horizon`` are recorded only."""
    if q_max <= 0:
        raise ValueError("q_max must be positive")
    fns = [ss.p, ss.c, ss.forcing] + [term.coeff for term in ss.majorant.terms]
    if not all(isinstance(fn, ConstantFn) for fn in fns) or ss.forcing.value != 0.0:
        raise ValueError("the frozen radius needs constant coefficients and no forcing")
    if any(term.degree == 0 for term in ss.majorant.terms):
        raise ValueError("the frozen radius needs a majorant without constant (degree-0) terms")
    q_star = _frozen_root(ss.p.value, ss.c.value, ss.majorant, q_max)
    if q_star == 0.0:
        return _estimate(criterion, horizon, 0.0, 0.0, 0.0, "empty_at_zero")
    if q_star >= q_max:
        return _estimate(criterion, horizon, q_max, q_max, math.inf, "unbracketed_above")
    return _estimate(criterion, horizon, q_star, q_star, q_star, "analytic")


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
    the vector solution norm.  The angles are bisected in lockstep: the
    probes of one round are integrated together by `integrate_batch`, and a
    round whose batch fails with `IntegrationError` is probed again one
    angle at a time, where that error means "bad".  Radial monotonicity is
    not assumed; the probe log of each estimate allows flips to be inspected
    afterwards.
    """
    if vs.dim != 2:
        raise ValueError("the polar region sweep is only defined for 2-dimensional systems")
    if angle_count < 1:
        raise ValueError(f"angle_count must be at least 1, got {angle_count!r}")
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    tol = replace(tol or ToleranceSettings(rtol=1e-4, atol=1e-8), cap=criterion.cap)
    horizon_end = vs.t0 + horizon
    angles = np.arange(angle_count) * (2.0 * math.pi / angle_count)
    directions = [np.array([math.cos(float(angle)), math.sin(float(angle))])
                  for angle in angles]

    def alone(history: HistoryFunction) -> Trajectory | None:
        try:
            return integrate(replace(vs, history=history), horizon_end, tol)
        except IntegrationError:
            return None

    def probe(batch):
        histories = [HistoryFunction.constant(r * directions[k]) for k, r in batch]
        try:
            trajs = integrate_batch(vs, histories, horizon_end, tol)
        except IntegrationError:
            trajs = [alone(history) for history in histories]
        return [traj is not None and criterion.judge(traj, r, horizon_end)
                for traj, (_k, r) in zip(trajs, batch)]

    searches = [_bisection(r_max, bisect_tol, criterion, horizon) for _ in angles]
    return RegionBoundary(angles, tuple(_lockstep(searches, probe)), vs.t0,
                          vs.forcing_amplitude)
