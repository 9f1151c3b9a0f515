"""Bound verification, stability classification and region estimation.

The boundedness oracle behind radius and region estimates is deliberately a
finite-horizon proxy: "bounded" means the trajectory never reaches the
blow-up cap on the simulated horizon, "decaying" additionally requires the
exact sup of the run's tail (`Trajectory.sup_norm`) to fall below a fraction
of the initial norm.  Estimates are therefore horizon-certified, not
asymptotic statements, except the exact radius of a frozen
constant-coefficient system (a polynomial root).  A "bounded" run may stop
early, trapped in a ball its solutions cannot leave
(`ToleranceSettings.trap`): that is bounded for all time, which implies the
horizon verdict.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dde_core import (DelaySpec, HistoryFunction, ScalarDelaySystem, IntegrationError,
                       ToleranceSettings, Trajectory, VectorDelaySystem, _norm, integrate)
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


def verify_pointwise_ordering(trajs: Sequence[Trajectory], grid: int = 2000,
                              tol: float = 1e-4) -> BoundReport:
    """Check ``s_1(t) <= s_2(t) <= ...`` pointwise.

    ``trajs`` is ordered smallest first; the first entry is typically the
    vector solution (its Euclidean norm is used as the series), the rest are
    scalar bound trajectories.  Histories must be matched: the norm of every
    history must agree with the first one's at the sampled history points.

    ``grid`` is a point count of at least 2 (`operator.index`, so numpy
    integers count).  The reported series lie on that many points spread over
    the domain all trajectories share.  Each adjacent pair is compared on the
    domain the two of them share, which is longer when another trajectory
    stopped early (a bound that blew up): there the count is spread over the
    pair's domain.
    """
    if len(trajs) < 2:
        raise ValueError("need at least two trajectories to compare")
    try:
        points = operator.index(grid)
    except TypeError:
        raise ValueError(f"the grid is a point count, not {type(grid).__name__}") from None
    if points < 2:
        raise ValueError(f"the grid count must be at least 2, not {points!r}")
    t0 = trajs[0].t_start
    t_end = min(t.t_end for t in trajs)
    for traj in trajs:
        if abs(traj.t_start - t0) > 1e-12:
            raise ValueError("trajectories do not share a start time")
    _check_matched_histories(trajs, tol)
    grid = np.linspace(t0, t_end, points)
    series = [t.norm_grid(grid) for t in trajs]
    max_violation = -math.inf
    first_violation = None
    for k in range(len(trajs) - 1):
        pair_end = min(trajs[k].t_end, trajs[k + 1].t_end)
        pair_grid, lower, upper = grid, series[k], series[k + 1]
        if pair_end > t_end:
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
    """The largest float ``q <= cap`` at which ``g(q) = p_hat*q + c_hat*L(q,
    ..., q)`` reads below 0, for constant coefficients, by bisection on the
    floats of ``[0, cap]``.  ``L`` is read through
    `PolynomialMajorant._clamped`, so ``g`` is the frozen right side's
    arithmetic at ``y = q`` with every delayed value ``q``.  Without a
    degree-0 term ``g(q)/q = p_hat + c_hat * sum_d a_d q^(d-1)`` with all
    ``a_d >= 0`` does not decrease, so ``g`` is negative exactly between 0
    and its one positive zero.  ``cap`` if ``g(cap) < 0``; 0 if ``g`` is not
    negative right above 0, and for a nonzero degree-0 term.  A time-varying
    coefficient is refused."""
    if not all(isinstance(term.coeff, ConstantFn) for term in majorant.terms):
        raise ValueError("the closed-form root needs constant majorant coefficients")
    if any(term.degree == 0 and term.coeff.value != 0.0 for term in majorant.terms):
        return 0.0

    def negative(q: float) -> bool:
        return p_hat * q + c_hat * majorant._clamped(0.0, *(q,) * majorant.arg_count) < 0.0

    if negative(cap):
        return cap
    lo, hi = 0.0, cap
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if negative(mid) else (lo, mid)
    return lo


def robust_stability_check(p_hat: float, c_hat: float, L_hat: PolynomialMajorant,
                           y_max: float = 1e6) -> RobustReport:
    """Closed-form criterion: ``p_hat*y + c_hat*L_hat(y, ..., y) < 0`` on
    ``(0, y_plus)``, for a majorant with constant coefficients.

    ``y_plus`` is the largest float at which the expression reads below 0
    (`_frozen_root`), ``y_max`` when it does there, and 0 (the criterion
    fails) when the expression is nonnegative right above 0, as it is for
    ``p_hat >= 0``.
    """
    if c_hat < 1.0:
        raise ValueError(f"condition-number bound must be >= 1; got {c_hat!r}")
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
        """Good when the run completed to ``horizon_end``, or ended trapped
        (`ToleranceSettings.trap`), without reading the cap; for
        ``decaying_tail`` also when its exact sup on the last
        ``tail_fraction`` of the run is at most ``decay_ratio * initial_norm``.
        A trapped run has no tail to read, so ``decaying_tail`` refuses it."""
        if traj.trapped and self.kind == "decaying_tail":
            raise ValueError("a trapped run has no tail for the decaying_tail criterion")
        if (traj.blew_up or (traj.t_end < horizon_end - 1e-9 and not traj.trapped)
                or traj.first_crossing(self.cap) is not None):
            return False
        if self.kind == "bounded_on_horizon":
            return True
        tail_start = horizon_end - self.tail_fraction * (horizon_end - traj.t_start)
        return traj.sup_norm(tail_start) <= self.decay_ratio * max(initial_norm, 1e-300)


@dataclass(frozen=True)
class RadiusEstimate:
    """Bisection bracket for the largest good constant-history magnitude, or
    its exact value with ``lo == hi == value``, with the criterion that
    judges a magnitude good and the horizon it was judged on.  ``probes``
    logs each probe as ``(magnitude, good)`` and ``steps`` its accepted steps,
    in the same order: 0 for a run trapped at the start time and for one that
    failed with `IntegrationError`."""

    value: float
    lo: float
    hi: float
    status: str     # bracketed | analytic (exact) | unbracketed_above | empty_at_zero
    criterion: BoundednessCriterion
    horizon: float
    probes: tuple[tuple[float, bool], ...] = ()
    steps: tuple[int, ...] = ()

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


def _bisection(probe, q_max: float, bisect_tol: float, criterion: BoundednessCriterion,
               horizon: float) -> RadiusEstimate:
    """One radius search on ``[0, q_max]``: each magnitude ``q`` is judged by
    ``probe(q) -> (good, steps)`` and logged with its verdict and steps.
    ``bisect_tol`` is the relative width at which the bracket stops halving,
    in ``(0, 1)``."""
    if not 0 < bisect_tol < 1:
        raise ValueError(f"bisect_tol must lie in (0, 1), got {bisect_tol!r}")
    probes: list[tuple[float, bool]] = []
    steps: list[int] = []

    def judged(q: float) -> bool:
        good, accepted = probe(q)
        probes.append((q, good))
        steps.append(accepted)
        return good

    def make(value, lo, hi, status):
        return RadiusEstimate(value, lo, hi, status, criterion, horizon, tuple(probes),
                              tuple(steps))

    if judged(q_max):
        return make(q_max, q_max, math.inf, "unbracketed_above")
    if not judged(0.0):
        return make(0.0, 0.0, 0.0, "empty_at_zero")
    lo, hi = 0.0, q_max
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= bisect_tol * max(hi, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        if judged(mid):
            lo = mid
        else:
            hi = mid
    return make(0.5 * (lo + hi), lo, hi, "bracketed")


def _verdict(criterion: BoundednessCriterion, system, magnitude: float, horizon_end: float,
             tol: ToleranceSettings) -> tuple[bool, int]:
    """Whether the run of ``system`` from a history of norm ``magnitude`` is
    good, and its accepted steps; a run that fails with `IntegrationError`
    is bad, with 0 steps."""
    try:
        traj = integrate(system, horizon_end, tol)
    except IntegrationError:
        return False, 0
    return criterion.judge(traj, magnitude, horizon_end), traj.stats.accepted


def _search_tolerances(criterion: BoundednessCriterion,
                       tol: ToleranceSettings | None) -> ToleranceSettings:
    """The probe tolerances of a radius search, default ``rtol=1e-4,
    atol=1e-8``, with the criterion's cap; a trap is refused with
    ``decaying_tail``, which reads the tail a trapped run does not have."""
    tol = replace(tol or ToleranceSettings(rtol=1e-4, atol=1e-8), cap=criterion.cap)
    if tol.trap is not None and criterion.kind == "decaying_tail":
        raise ValueError("a trap ends runs before the tail that decaying_tail reads")
    return tol


def estimate_scalar_radius(ss: ScalarDelaySystem, criterion: BoundednessCriterion,
                           q_max: float, bisect_tol: float = 1e-3,
                           horizon: float = 50.0,
                           tol: ToleranceSettings | None = None) -> RadiusEstimate:
    """Largest constant history value ``q`` judged good, by bisection.

    Valid because solutions of the scalar comparison system increase
    monotonically in the constant history, so the good set is an interval.
    ``horizon`` is a duration from the system start time.  The problem is
    built once, from the system with the constant history 0 (the system's
    own history is not read), and each probe replaces its history.  A
    ``tol.trap`` (`ToleranceSettings`) ends a probe as good once its delay
    window lies in that ball; it must be a ball the solutions cannot leave
    (the `frozen_scalar_radius` of a dominating frozen system), and
    ``decaying_tail`` refuses it.
    """
    if q_max <= 0:
        raise ValueError("q_max must be positive")
    tol = _search_tolerances(criterion, tol)
    horizon_end = ss.t0 + horizon
    problem = ss.with_constant_history(0.0).problem(horizon_end)

    def probe(q: float) -> bool:
        history = HistoryFunction.constant([q])
        return _verdict(criterion, replace(problem, history=history), q, horizon_end, tol)

    return _bisection(probe, q_max, bisect_tol, criterion, horizon)


def _check_frozen(ss: ScalarDelaySystem) -> None:
    fns = [ss.p, ss.c, ss.forcing] + [term.coeff for term in ss.majorant.terms]
    if not all(isinstance(fn, ConstantFn) for fn in fns) or ss.forcing.value != 0.0:
        raise ValueError("the frozen radius needs constant coefficients and no forcing")
    if any(term.degree == 0 for term in ss.majorant.terms):
        raise ValueError("the frozen radius needs a majorant without constant (degree-0) terms")


def frozen_scalar_radius(ss: ScalarDelaySystem, criterion: BoundednessCriterion,
                         q_max: float, horizon: float = 50.0) -> RadiusEstimate:
    """Exact constant-history radius (status ``analytic``, no probes) of a
    homogeneous system with constant coefficients whose majorant has no
    constant term.  It is monotone in its history, so the radius is the
    positive zero of ``g(q) = p*q + c*L(q, ..., q)``: below it ``q`` is a
    super-solution, above it the solution grows.  The value is the largest
    float at which ``g``, in the frozen right side's arithmetic, reads below
    0 (`_frozen_root`), so the ball of that radius is a trap
    (`ToleranceSettings.trap`) for ``ss`` and every system it dominates.
    ``criterion`` and ``horizon`` are recorded only."""
    if q_max <= 0:
        raise ValueError("q_max must be positive")
    _check_frozen(ss)
    q_star = _frozen_root(ss.p.value, ss.c.value, ss.majorant, q_max)
    if q_star == 0.0:
        return RadiusEstimate(0.0, 0.0, 0.0, "empty_at_zero", criterion, horizon)
    if q_star >= q_max:
        return RadiusEstimate(q_max, q_max, math.inf, "unbracketed_above", criterion, horizon)
    return RadiusEstimate(q_star, q_star, q_star, "analytic", criterion, horizon)


@dataclass(frozen=True)
class RegionBoundary:
    """Polar boundary estimate of a planar trapping/stability region."""

    angles: np.ndarray
    radii: tuple[RadiusEstimate, ...]

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
    the vector solution norm, one angle after another and one `integrate`
    run per probe; a run that fails with `IntegrationError` is a bad probe.
    The system's problem is built once and each probe replaces its history.
    Radial monotonicity is not assumed; the probe log of each estimate allows
    flips to be inspected afterwards.  A ``tol.trap`` ends a probe as good
    once the norm of its delay window lies in that ball; the caller vouches
    that the vector solutions cannot leave it (`cli.fig2_protocol` passes
    one only for a closed-form reduction), and ``decaying_tail`` refuses it.
    """
    if vs.dim != 2:
        raise ValueError("the polar region sweep is only defined for 2-dimensional systems")
    if angle_count < 1:
        raise ValueError(f"angle_count must be at least 1, got {angle_count!r}")
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    tol = _search_tolerances(criterion, tol)
    horizon_end = vs.t0 + horizon
    problem = vs.problem(horizon_end)
    angles = np.arange(angle_count) * (2.0 * math.pi / angle_count)

    def radius(angle: float) -> RadiusEstimate:
        direction = np.array([math.cos(angle), math.sin(angle)])

        def probe(r: float) -> bool:
            history = HistoryFunction.constant(r * direction)
            return _verdict(criterion, replace(problem, history=history), r, horizon_end, tol)

        return _bisection(probe, r_max, bisect_tol, criterion, horizon)

    return RegionBoundary(angles, tuple(radius(float(angle)) for angle in angles))
