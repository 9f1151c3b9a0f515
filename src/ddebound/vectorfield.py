"""Structured nonlinear terms for vector delay systems.

The nonlinearity of a system is described as a sum of

* polynomial monomials per output coordinate, each a product of powers of
  state coordinates taken at the current time (slot 0) or at a delay slot
  ``i >= 1``, and
* delayed matrix couplings ``weight * M(t) * x(t - h_slot)``.

Both pieces vanish at the origin by construction and both majorize cleanly:
monomials via per-slot norm collapsing, matrix couplings via the spectral
norm ``|weight| * |M(t)|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import matrix_norm_function
from .majorant import PolynomialMajorant, PolynomialTerm, majorize_polynomial
from .timefn import ConstantFn, TimeFunction, as_time_function

__all__ = ["PolynomialVectorField", "DelayedMatrixTerm", "NonlinearTerm"]


@dataclass(frozen=True)
class _Monomial:
    coord: int                       # output coordinate (0-based)
    coeff: TimeFunction
    factors: tuple[tuple[int, int, int], ...]   # (slot, coord, power)

    def __post_init__(self):
        object.__setattr__(self, "coeff", as_time_function(self.coeff))
        if not self.factors:
            raise ValueError("constant monomials are not allowed (term must vanish at 0)")


class PolynomialVectorField:
    """Polynomial map ``(t, x, x(t-h_1), ...) -> R^n`` given as monomials."""

    def __init__(self, dim: int, delay_count: int,
                 monomials: Sequence[tuple[int, object, Sequence[tuple[int, int, int]]]]):
        self.dim = dim
        self.delay_count = delay_count
        parsed = []
        for coord, coeff, factors in monomials:
            if not 0 <= coord < dim:
                raise ValueError(f"output coordinate {coord} outside 0..{dim - 1}")
            fac = tuple((int(s), int(c), int(p)) for s, c, p in factors)
            for slot, c, p in fac:
                if not 0 <= slot <= delay_count:
                    raise ValueError(f"delay slot {slot} outside 0..{delay_count}")
                if not 0 <= c < dim:
                    raise ValueError(f"state coordinate {c} outside 0..{dim - 1}")
                if p < 1:
                    raise ValueError("factor powers must be positive")
            parsed.append(_Monomial(coord, coeff, fac))
        self.monomials = tuple(parsed)

    def __call__(self, t: float, x: np.ndarray, delayed: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros(self.dim)
        for mono in self.monomials:
            value = mono.coeff(t)
            if value == 0.0:
                continue
            for slot, coord, power in mono.factors:
                base = x[coord] if slot == 0 else delayed[slot - 1][coord]
                value *= base ** power
            out[mono.coord] += value
        return out

    def majorant_monomials(self):
        return [(m.coeff, m.factors) for m in self.monomials]


@dataclass(frozen=True)
class DelayedMatrixTerm:
    """Coupling ``weight * M(t) * x(t - h_slot)`` with ``slot >= 1``."""

    slot: int
    weight: float
    matrix: Callable[[float], np.ndarray]

    def __post_init__(self):
        if self.slot < 1:
            raise ValueError("delayed matrix terms must use a delay slot >= 1")


class NonlinearTerm:
    """The full nonlinearity: polynomial part plus delayed matrix couplings."""

    def __init__(self, dim: int, delay_count: int,
                 poly: PolynomialVectorField | None = None,
                 matrix_terms: Sequence[DelayedMatrixTerm] = ()):
        if poly is not None and (poly.dim != dim or poly.delay_count != delay_count):
            raise ValueError("polynomial part shape does not match the nonlinear term")
        for term in matrix_terms:
            if term.slot > delay_count:
                raise ValueError(f"matrix term uses delay slot {term.slot} of {delay_count}")
        self.dim = dim
        self.delay_count = delay_count
        self.poly = poly
        self.matrix_terms = tuple(matrix_terms)

    def __call__(self, t: float, x: np.ndarray, delayed: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros(self.dim)
        if self.poly is not None:
            out += self.poly(t, x, delayed)
        for term in self.matrix_terms:
            out += term.weight * (term.matrix(t) @ delayed[term.slot - 1])
        return out

    def majorize(self) -> PolynomialMajorant:
        """Norm majorant: monomials collapse per slot, matrix couplings become
        ``|weight| * |M(t)|`` times the delayed norm argument."""
        if self.poly is not None and self.poly.monomials:
            base = majorize_polynomial(self.poly.majorant_monomials(), self.delay_count)
        else:
            base = PolynomialMajorant.zero(self.delay_count + 1)
        extra = []
        for term in self.matrix_terms:
            norm_fn = matrix_norm_function(term.matrix)
            weight = abs(term.weight)
            exponents = tuple(1 if i == term.slot else 0
                              for i in range(self.delay_count + 1))
            if isinstance(norm_fn, ConstantFn):
                coeff = ConstantFn(weight * norm_fn.value)
            else:
                coeff = (lambda s, f=norm_fn, w=weight: w * f(s))
            extra.append(PolynomialTerm(coeff, exponents))
        return base.with_extra_terms(extra) if extra else base
