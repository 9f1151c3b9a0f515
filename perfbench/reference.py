"""Reference solutions made apart from ddebound.

The method of steps over ``scipy.integrate.solve_ivp``: for one constant delay
``h`` the interval is cut at ``t0 + k*h`` and at the kinks of the right side,
so on each piece the right side is smooth and the delayed state ``x(t - h)``
is read from the history or from the dense output of finished pieces.  The
bundled planar equations are written out in numpy below; no ddebound right
side, integrator or matrix helper is used.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-10
ATOL = 1e-12


class Solution:
    """Dense solution on ``[t0, t_end]`` pieced together from solve_ivp runs."""

    def __init__(self, history, t0):
        self.history = history
        self.t0 = t0
        self.pieces = []          # (a, b, OdeSolution)
        self.starts = []
        self.t_end = t0
        self.reached_cap = False

    def __call__(self, t: float) -> np.ndarray:
        if t <= self.t0:
            return np.asarray(self.history(t), dtype=float)
        a, b, sol = self.pieces[bisect_right(self.starts, t) - 1]
        return sol(min(t, b))

    def add(self, a: float, b: float, sol) -> None:
        self.pieces.append((a, b, sol))
        self.starts.append(a)
        self.t_end = b

    def norm_on_grid(self, grid) -> np.ndarray:
        return np.linalg.norm([self(float(t)) for t in grid], axis=1)


def solve_delay(rhs, history, delay: float | None, t0: float, t_end: float,
                cap: float | None = None, breaks=(), rtol: float = RTOL,
                atol: float = ATOL) -> Solution:
    """Solve ``x' = rhs(t, x, x(t - delay))`` with ``x = history`` up to ``t0``.

    ``delay=None`` solves the delay-free problem ``x' = rhs(t, x, None)``.
    Pieces also end at each of ``breaks``, the times where the right side is
    not smooth.  With ``cap`` the run stops where the Euclidean norm reaches it.
    """
    out = Solution(history, t0)
    x = np.atleast_1d(np.asarray(history(t0), dtype=float))
    cuts = sorted({float(b) for b in breaks if t0 < b < t_end} | {t_end})
    if delay is not None:
        k = np.arange(1, int(math.ceil((t_end - t0) / delay)) + 1)
        cuts = sorted(set(cuts) | {float(c) for c in t0 + k * delay if c < t_end})
    events = None
    if cap is not None:
        def hit_cap(t, y):
            return float(np.linalg.norm(y)) - cap
        hit_cap.terminal = True
        hit_cap.direction = 1.0
        events = hit_cap
    if delay is None:
        def f(t, y):
            return rhs(t, y, None)
    else:
        def f(t, y):
            # every piece is at most one delay long, so t - delay lies in the
            # history or in a finished piece
            return rhs(t, y, out(t - delay))
    a = t0
    for b in cuts:
        sol = solve_ivp(f, (a, b), x, method="DOP853", rtol=rtol, atol=atol,
                        dense_output=True, events=events)
        if sol.status < 0:
            raise RuntimeError(f"reference solve failed on [{a}, {b}]: {sol.message}")
        if sol.status == 1:
            out.add(a, float(sol.t[-1]), sol.sol)
            out.reached_cap = True
            return out
        out.add(a, b, sol.sol)
        x = sol.y[:, -1]
        a = b
    return out


# ---------------------------------------------------------------------------
# the bundled planar system, written out
#
#   x' = (A0(t) + A1(t)) x + 0.5 A1(t) x(t - h) + (0, 0.1 x2(t - h)^3) + F0 (0, sin 10t)
#   A1(t) = [[0, 1], [-w(t), 0]],  w(t) = 1 + 0.1 sin t + 0.1 sin(3.14 t),  h = 0.5
#
# Case a has A0 = (-3 + 0.1 sin 5t) I, case b has A0 = (-3 + exp(-t)) I.  The
# scalar comparison system with c = 1 is
#
#   y' = p y + |A1| y + 0.5 |A1| y(t - h) + 0.1 y(t - h)^3 + F0 |sin 10t|


DELAY = 0.5
FORCING = 0.05
HISTORY = (0.1, 0.1)


def forcing_kinks(t0: float, t_end: float) -> np.ndarray:
    """Zeros of ``sin 10t``, where ``|sin 10t|`` has a kink."""
    k = np.arange(math.ceil(10.0 * t0 / math.pi), math.floor(10.0 * t_end / math.pi) + 1)
    return k * (math.pi / 10.0)


def a1(t: float) -> np.ndarray:
    w = 1.0 + 0.1 * math.sin(t) + 0.1 * math.sin(3.14 * t)
    return np.array([[0.0, 1.0], [-w, 0.0]])


def rate_a(t: float) -> float:
    return -3.0 + 0.1 * math.sin(5.0 * t)


def rate_b(t: float) -> float:
    return -3.0 + math.exp(-t)


def diagonal_a0(rate):
    return lambda t: rate(t) * np.eye(2)


def vector_rhs(a0, forcing: float = FORCING):
    """Right side of the planar system with linear part ``a0(t) + A1(t)``."""
    def rhs(t, x, xd):
        m = a1(t)
        out = (a0(t) + m) @ x + 0.5 * (m @ xd)
        out[1] += 0.1 * xd[1] ** 3 + forcing * math.sin(10.0 * t)
        return out
    return rhs


def scalar_rhs(p, c=lambda t: 1.0, forcing: float = FORCING):
    """Scalar comparison right side ``p y + c (L + F0 |e|)`` of the planar system."""
    def rhs(t, y, yd):
        # the singular values of A1(t) are 1 and |w(t)|
        norm_a1 = max(1.0, abs(a1(t)[1, 0]))
        value = (norm_a1 * y[0] + 0.5 * norm_a1 * yd[0] + 0.1 * max(yd[0], 0.0) ** 3
                 + forcing * abs(math.sin(10.0 * t)))
        return np.array([p(t) * y[0] + c(t) * value])
    return rhs


def frozen_scalar_rhs(p_hat, c_hat, coeff_now, coeff_delayed, coeff_cubic, forcing_hat):
    """Autonomous variant: every coefficient frozen at the given constant."""
    def rhs(t, y, yd):
        value = (coeff_now * y[0] + coeff_delayed * yd[0]
                 + coeff_cubic * max(yd[0], 0.0) ** 3 + forcing_hat)
        return np.array([p_hat * y[0] + c_hat * value])
    return rhs


def linear_rhs(rate: float, delayed: float):
    """Constant-coefficient linear delay equation ``u' = a u + b u(t - h)``."""
    def rhs(t, u, ud):
        return np.array([rate * u[0] + delayed * ud[0]])
    return rhs


def constant_history(values):
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    return lambda t: vec


def fundamental_matrix(a0, t0: float, t_end: float) -> Solution:
    """Dense ``W(t)`` with ``W' = a0(t) W``, ``W(t0) = I`` (flattened row-major).

    The error test is purely relative (atol 1e-90): the entries of ``W`` decay
    like ``exp(-3t)`` here, far below any fixed absolute tolerance.
    """
    n = np.asarray(a0(t0)).shape[0]

    def rhs(t, w, _unused):
        return (a0(t) @ w.reshape(n, n)).ravel()

    return solve_delay(rhs, constant_history(np.eye(n).ravel()), None, t0, t_end,
                       atol=1e-90)


def rate_and_condition(a0, w: np.ndarray) -> tuple[float, float]:
    """``d ln sigma_max/dt`` and ``sigma_max/sigma_min`` of ``w`` where ``w' = a0 w``.

    The rate is ``u1^T a0 u1`` for the leading left singular vector ``u1``.
    Where the largest singular value is repeated (``w = I`` at the start) it
    is the largest eigenvalue of the symmetric part of ``a0`` on that
    singular subspace, the right-hand derivative there.
    """
    u, s, _vt = np.linalg.svd(w)
    top = u[:, s >= s[0] * (1.0 - 1e-9)]
    m = top.T @ a0 @ top
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1]), float(s[0] / s[-1])
