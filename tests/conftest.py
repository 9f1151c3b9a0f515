"""Shared builders for the test suite."""

import numpy as np

from ddebound import (DelaySpec, HistoryFunction, PolynomialMajorant, PolynomialTerm,
                      ScalarDelaySystem, ToleranceSettings, Trajectory, VectorDelaySystem)
from ddebound.linalg import MatrixFunction
from ddebound.vectorfield import NonlinearTerm, PolynomialVectorField

TIGHT = ToleranceSettings(rtol=1e-8, atol=1e-12)
DEFAULT = ToleranceSettings()


def delayed_decay_system(history=None):
    """y' = -y(t-1); the hand-solvable method-of-steps workhorse."""
    poly = PolynomialVectorField(1, 1, [(0, -1.0, [(1, 0, 1)])])
    return VectorDelaySystem(
        dim=1, A=None, f=NonlinearTerm(1, 1, poly),
        forcing_amplitude=0.0, forcing_shape=None,
        delays=DelaySpec.constant([1.0]),
        history=history or HistoryFunction.constant([1.0]), t0=0.0)


def delayed_decay_oracle(t: float) -> float:
    """Piecewise polynomial solution of y' = -y(t-1), phi == 1, on [0, 3]."""
    if t <= 1.0:
        return 1.0 - t
    if t <= 2.0:
        return (t * t - 4.0 * t + 3.0) / 2.0
    return -0.5 - t ** 3 / 6.0 + 1.5 * t * t - 4.0 * t + 10.0 / 3.0


def linear_ode_system(rate: float, q: float) -> VectorDelaySystem:
    """One-dimensional delay-free x' = rate * x with constant history q."""
    return VectorDelaySystem(
        dim=1, A=MatrixFunction(1, {(0, 0): rate}), f=None,
        forcing_amplitude=0.0, forcing_shape=None, delays=DelaySpec.none(),
        history=HistoryFunction.constant([q]), t0=0.0)


def cubic_basin_scalar(q: float = 0.1) -> ScalarDelaySystem:
    """y' = -2y + y^3 as a scalar comparison system (basin boundary sqrt(2))."""
    cubic = PolynomialMajorant((PolynomialTerm(1.0, (3,)),), 1)
    return ScalarDelaySystem(p=-2.0, c=1.0, majorant=cubic, forcing=0.0,
                             delays=DelaySpec.none(),
                             history=HistoryFunction.constant([q]), t0=0.0)


def symmetric_cubic_vector_system(x0) -> VectorDelaySystem:
    """x' = -2x + |x|^2 x: rotationally symmetric, radial basin sqrt(2)."""
    monomials = [
        (0, 1.0, [(0, 0, 3)]),
        (0, 1.0, [(0, 0, 1), (0, 1, 2)]),
        (1, 1.0, [(0, 1, 3)]),
        (1, 1.0, [(0, 1, 1), (0, 0, 2)]),
    ]
    poly = PolynomialVectorField(2, 0, monomials)
    return VectorDelaySystem(
        dim=2, A=MatrixFunction(2, {(0, 0): -2.0, (1, 1): -2.0}),
        f=NonlinearTerm(2, 0, poly), forcing_amplitude=0.0, forcing_shape=None,
        delays=DelaySpec.none(), history=HistoryFunction.constant(x0), t0=0.0)


def appendix_majorant_input():
    """Two-coordinate cubic example: f1 = a1(t) x1^3 x2(t-h1)^2, f2 = a2(t) x2(t-h2)^3."""
    return [
        (1.0, [(0, 0, 3), (1, 1, 2)]),
        (1.0, [(2, 1, 3)]),
    ]


def narrow_excursion(level: float, center: float, half_width: float,
                     top: float) -> Trajectory:
    """A trajectory of the one step [0, 1] whose norm exceeds ``level`` only
    on ``(center - half_width, center + half_width)``; elsewhere it is
    largest at ``top``, just below the level.  Its history is its start value.

    ``y = level - delta - 0.1 (t - a)(t - b)(t - top)^2`` rises above
    ``level - delta`` only between ``a`` and ``b``, by at most about twice
    ``delta``."""
    a, b = center - half_width, center + half_width
    delta = 0.05 * half_width ** 2 * (center - top) ** 2
    poly = -0.1 * np.poly([a, b, top, top])[::-1]      # ascending powers
    poly[0] += level - delta
    return Trajectory(np.array([0.0, 1.0]), np.array([[poly[0]], [poly.sum()]]),
                      poly[None, 1:, None], 1.0,
                      history=HistoryFunction.constant([poly[0]]))
