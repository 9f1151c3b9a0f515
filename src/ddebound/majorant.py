"""Polynomial norm majorants for vector nonlinearities.

A majorant here is a scalar polynomial ``L(t, zeta_1, ..., zeta_{m+1})`` in
nonnegative arguments, where ``zeta_1`` stands for the current state norm and
``zeta_{i+1}`` for the norm of the state at the i-th delay.  Coefficients may
vary with time; their magnitudes are always used, so the value is nonnegative
and nondecreasing in every argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .expressions import _generate
from .timefn import (ConstantFn, TimeFunction, _compose, _literal, _source_of,
                     as_time_function)

__all__ = [
    "PolynomialTerm",
    "PolynomialMajorant",
    "LinearizedCoefficients",
    "majorize_polynomial",
    "linearize_majorant",
]


@dataclass(frozen=True)
class PolynomialTerm:
    """One monomial ``|coeff(t)| * prod_i zeta_i^k_i``."""

    coeff: TimeFunction
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", as_time_function(self.coeff))
        exps = tuple(int(k) for k in self.exponents)
        if any(k < 0 for k in exps):
            raise ValueError("exponents must be nonnegative integers")
        object.__setattr__(self, "exponents", exps)

    @property
    def degree(self) -> int:
        return sum(self.exponents)


@dataclass(frozen=True)
class PolynomialMajorant:
    """Sum of `PolynomialTerm`s over ``arg_count`` nonnegative arguments."""

    terms: tuple[PolynomialTerm, ...]
    arg_count: int
    allow_constant_terms: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.arg_count < 1:
            raise ValueError("arg_count must be at least 1")
        for term in self.terms:
            if len(term.exponents) != self.arg_count:
                raise ValueError(
                    f"term has {len(term.exponents)} exponents, expected {self.arg_count}")
            if term.degree == 0 and not self.allow_constant_terms:
                raise ValueError("constant (degree-0) terms are not allowed here")

    @classmethod
    def zero(cls, arg_count: int) -> "PolynomialMajorant":
        return cls((), arg_count)

    def evaluate(self, t: float, zeta: Sequence[float]) -> float:
        """Validated evaluation; ``zeta`` entries must be nonnegative."""
        if len(zeta) != self.arg_count:
            raise ValueError(f"expected {self.arg_count} arguments, got {len(zeta)}")
        for z in zeta:
            if z < 0.0:
                raise ValueError(f"negative majorant argument {z!r}")
        return self._clamped(t, *zeta)

    @cached_property
    def _clamped(self):
        """``(t, zeta_1, ...) -> L`` generated from `_clamped_lines`."""
        args = [f"z{i}" for i in range(self.arg_count)]
        names: dict = {}
        lines = ["total = 0.0", *self._clamped_lines(args, names)]
        return _generate(", ".join(["t", *args]), "total", names, lines)

    def _clamped_lines(self, args: Sequence[str], names: dict) -> list[str]:
        """Source statements that add every term at ``t`` onto ``total``, with
        the arguments read from the variables ``args``.

        A term whose coefficient is zero adds nothing, and a term with an
        argument at or below zero adds 0, so that stage values that dip below
        zero by roundoff inside a right side are clamped.  The terms are
        unrolled in order, with constant coefficients folded; the factors
        multiply in turn, each power through ``**``.
        """
        lines = []
        for term in self.terms:
            if isinstance(term.coeff, ConstantFn):
                value = abs(term.coeff.value)
                if value == 0.0:
                    continue
                lines.append(f"v = {_literal(value)}")
                indent = ""
            else:
                lines += [f"v = abs({_source_of(term.coeff, names)})", "if v != 0.0:"]
                indent = "    "
            depth = ""
            for z, k in ((args[i], k) for i, k in enumerate(term.exponents) if k > 0):
                lines += [f"{indent}{depth}if {z} <= 0.0:", f"{indent}{depth}    v = 0.0",
                          f"{indent}{depth}else:", f"{indent}{depth}    v *= {z} ** {k}"]
                depth += "    "
            lines.append(f"{indent}total += v")
        return lines

    def with_extra_terms(self, extra: Iterable[PolynomialTerm]) -> "PolynomialMajorant":
        return PolynomialMajorant(self.terms + tuple(extra), self.arg_count,
                                  self.allow_constant_terms)


def majorize_polynomial(monomials: Iterable[tuple[object, Sequence[tuple[int, int, int]]]],
                        delay_count: int) -> PolynomialMajorant:
    """Build the norm majorant of a polynomial vector field.

    ``monomials`` lists every monomial of every coordinate as
    ``(coefficient, factors)`` where each factor is a ``(slot, coord, power)``
    triple: ``slot`` 0 names the current state, slot ``i >= 1`` the i-th
    delayed state, and ``coord`` the state coordinate entering the product.
    Coordinates sharing a slot collapse onto that slot's norm argument
    (``|x_j|^k <= |x|^k``) and coordinates of the output vector are summed,
    so each input monomial yields one majorant term.
    """
    terms = []
    for coeff, factors in monomials:
        exponents = [0] * (delay_count + 1)
        for slot, _coord, power in factors:
            if not 0 <= slot <= delay_count:
                raise ValueError(f"delay slot {slot} outside 0..{delay_count}")
            if power < 1:
                raise ValueError("factor powers must be positive")
            exponents[slot] += power
        if sum(exponents) == 0:
            raise ValueError("constant monomial: the nonlinear term must vanish at zero")
        terms.append(PolynomialTerm(as_time_function(coeff), tuple(exponents)))
    return PolynomialMajorant(tuple(terms), delay_count + 1)


@dataclass(frozen=True)
class LinearizedCoefficients:
    """Linear domination ``L(t, zeta) <= sum_i mu_i(t) * zeta_i`` valid while
    every argument stays within ``zeta_tilde``."""

    zeta_tilde: float
    mu: tuple[TimeFunction, ...]

    def __post_init__(self):
        if self.zeta_tilde <= 0.0:
            raise ValueError("zeta_tilde must be positive")
        object.__setattr__(self, "mu", tuple(as_time_function(m) for m in self.mu))

    @property
    def arg_count(self) -> int:
        return len(self.mu)

    def evaluate(self, t: float, zeta: Sequence[float]) -> float:
        return sum(abs(m(t)) * z for m, z in zip(self.mu, zeta))


def linearize_majorant(majorant: PolynomialMajorant, zeta_tilde: float) -> LinearizedCoefficients:
    """Dominate each monomial by a linear term on ``[0, zeta_tilde]^n``.

    A degree-d monomial keeps one power of its lowest participating argument
    and bounds the remaining d-1 powers by ``zeta_tilde``; attribution to the
    lowest index is deterministic and keeps the undelayed coefficient as
    large as the rule permits.  Each ``mu_i`` is one generated function,
    ``|coeff_1(t)| * scale_1 + ...`` in term order.
    """
    if zeta_tilde <= 0.0:
        raise ValueError("zeta_tilde must be positive")
    if majorant.allow_constant_terms:
        raise ValueError("cannot linearize a majorant with constant terms")
    buckets: list[list[tuple[TimeFunction, float]]] = [[] for _ in range(majorant.arg_count)]
    for term in majorant.terms:
        target = next(i for i, k in enumerate(term.exponents) if k > 0)
        scale = zeta_tilde ** (term.degree - 1)
        buckets[target].append((term.coeff, scale))

    def make_mu(entries):
        if not entries:
            return ConstantFn(0.0)
        return _compose(" + ".join(f"abs({{}}) * {_literal(s)}" for _, s in entries),
                        *(c for c, _ in entries))

    return LinearizedCoefficients(zeta_tilde, tuple(make_mu(b) for b in buckets))
