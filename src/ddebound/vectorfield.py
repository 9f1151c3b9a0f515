"""Structured nonlinear terms for vector delay systems.

The nonlinearity of a system is described as a sum of

* polynomial monomials per output coordinate, each a product of powers of
  state coordinates taken at the current time (slot 0) or at a delay slot
  ``i >= 1``, and
* delayed matrix couplings ``weight * M(t) * x(t - h_slot)``.

Both pieces vanish at the origin by construction (every monomial has a
factor of positive power, and the couplings are linear) and both majorize
cleanly: monomials via per-slot norm collapsing, matrix couplings via the
spectral norm ``|weight| * |M(t)|``.  The terms are data: the right side of
`dde_core.VectorDelaySystem` is generated from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import MatrixFunction
from .majorant import PolynomialMajorant, PolynomialTerm, majorize_polynomial
from .timefn import ConstantFn, TimeFunction, _compose, as_time_function

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


@dataclass(frozen=True)
class DelayedMatrixTerm:
    """Coupling ``weight * M(t) * x(t - h_slot)`` with ``slot >= 1``."""

    slot: int
    weight: float
    matrix: MatrixFunction

    def __post_init__(self):
        if self.slot < 1:
            raise ValueError("delayed matrix terms must use a delay slot >= 1")
        if not isinstance(self.matrix, MatrixFunction):
            raise TypeError(f"expected a MatrixFunction, not {self.matrix!r}")


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

    def majorize(self) -> PolynomialMajorant:
        """Norm majorant: monomials collapse per slot, matrix couplings become
        ``|weight| * |M(t)|`` times the delayed norm argument."""
        if self.poly is not None and self.poly.monomials:
            base = majorize_polynomial([(m.coeff, m.factors) for m in self.poly.monomials],
                                       self.delay_count)
        else:
            base = PolynomialMajorant.zero(self.delay_count + 1)
        extra = []
        for term in self.matrix_terms:
            coeff = _compose("{} * {}", ConstantFn(abs(term.weight)), term.matrix.norm)
            exponents = tuple(1 if i == term.slot else 0
                              for i in range(self.delay_count + 1))
            extra.append(PolynomialTerm(coeff, exponents))
        return base.with_extra_terms(extra) if extra else base
