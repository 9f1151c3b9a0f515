"""Dense small-matrix helpers: the spectral norm, matrix and vector
time-functions.

Everything here targets the small (n up to ~20) matrices this package works
with; no attempt is made to scale beyond that.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .expressions import _folded, _generate
from .timefn import ConstantFn, _compose, _literal, _source_of, as_time_function

__all__ = [
    "spectral_norm",
    "MatrixFunction",
    "VectorFunction",
]


# the largest singular value of [[a, b], [c, d]]: the square root of the
# largest eigenvalue of the Gram matrix, as source that `spectral_norm` and the
# generated norms of `MatrixFunction` share; a max(., 0.0) under the root would
# be a no-op (trace and hypot are nonnegative, and max(nan, 0.0) is nan)
_GRAM_LINES = ("g11 = a * a + c * c", "g22 = b * b + d * d", "g12 = a * b + c * d")
_NORM_2X2 = "_sqrt(0.5 * (g11 + g22 + _hypot(g11 - g22, 2.0 * g12)))"
_norm_2x2 = _generate("a, b, c, d", _NORM_2X2, lines=_GRAM_LINES)


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value (Euclidean induced norm).

    Closed form for 1x1/2x2 (used inside integration right sides), the
    library SVD for anything larger.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape == (1, 1):
        return abs(float(m[0, 0]))
    if m.shape == (2, 2):
        return _norm_2x2(*m.ravel().tolist())
    return float(np.linalg.norm(m, 2))


class MatrixFunction:
    """Matrix-valued function of time with per-entry coefficients.

    Entries may be numbers, `Expression` objects or callables.  Constant
    matrices are detected and returned without re-evaluation; callers must
    treat the returned array as read-only in that case.  ``norm`` is
    ``t -> |M(t)|``: a constant, a generated function for dimension 1 or 2,
    `spectral_norm` of the matrix above.
    """

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], object]):
        if dim < 1:
            raise ValueError("matrix dimension must be positive")
        self.dim = dim
        self._callables: list[tuple[int, int, Callable[[float], float]]] = []
        base = np.zeros((dim, dim))
        for (i, j), value in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"entry index ({i}, {j}) outside a {dim}x{dim} matrix")
            fn = as_time_function(value)
            if isinstance(fn, ConstantFn):
                base[i, j] = fn.value
            else:
                self._callables.append((i, j, fn))
        self._base = base
        self.is_constant = not self._callables
        if self.is_constant:
            self.norm = ConstantFn(spectral_norm(base))
        elif dim == 1:
            self.norm = _compose("abs({})", self._callables[0][2])
        elif dim == 2:
            # spectral_norm's closed form on the entries' sources
            names: dict = {}
            sources = [[_literal(v) for v in row] for row in base.tolist()]
            for i, j, fn in self._callables:
                sources[i][j] = _source_of(fn, names)
            (a, b), (c, d) = sources
            self.norm = _generate("t", _NORM_2X2, names,
                                  [f"a, b, c, d = {a}, {b}, {c}, {d}", *_GRAM_LINES])
        else:
            self.norm = lambda t: spectral_norm(self(t))

    @classmethod
    def zero(cls, dim: int) -> "MatrixFunction":
        return cls(dim, {})

    def __call__(self, t: float) -> np.ndarray:
        if self.is_constant:
            return self._base
        out = self._base.copy()
        for i, j, fn in self._callables:
            out[i, j] = fn(t)
        return out

    def entries(self) -> dict[tuple[int, int], object]:
        """Entry map equivalent to the one this function was built from
        (exact zeros in the constant part are dropped)."""
        out: dict[tuple[int, int], object] = {}
        for i in range(self.dim):
            for j in range(self.dim):
                if self._base[i, j] != 0.0:
                    out[(i, j)] = float(self._base[i, j])
        for i, j, fn in self._callables:
            out[(i, j)] = fn
        return out

    def plus(self, other: "MatrixFunction") -> "MatrixFunction":
        """Pointwise sum, merged entry-wise so evaluation stays one pass."""
        if self.dim != other.dim:
            raise ValueError("matrix dimensions differ")
        merged = self.entries()
        for key, value in other.entries().items():
            if key not in merged:
                merged[key] = value
                continue
            merged[key] = _compose("{} + {}", as_time_function(merged[key]),
                                   as_time_function(value))
        return MatrixFunction(self.dim, merged)


class VectorFunction:
    """Vector-valued function of time with per-entry coefficients (numbers,
    `Expression` objects or callables); entries not given are zero.
    ``entries`` holds the ``(index, time function)`` pairs in index order,
    which the generated vector right side reads.

    `norm` is ``t -> |v(t)|``, generated once from the entries.  With more
    than one entry it is the square root of the sum of squares in index
    order, which is the state norm ``dde_core._norm`` of ``v(t)`` bit for
    bit.  With one entry it is ``abs`` of that entry, which equals that norm
    unless the square under- or overflows.
    """

    def __init__(self, dim: int, entries: Mapping[int, object]):
        if dim < 1:
            raise ValueError("vector dimension must be positive")
        for i in entries:
            if not 0 <= i < dim:
                raise ValueError(f"entry index {i} outside a vector of dimension {dim}")
        self.dim = dim
        self.entries = tuple((i, as_time_function(entries[i])) for i in sorted(entries))
        if not self.entries:
            self.norm = ConstantFn(0.0)
        elif len(self.entries) == 1:
            self.norm = _compose("abs({})", self.entries[0][1])
        else:
            names: dict = {}
            lines = [f"e{k} = {_source_of(fn, names)}" for k, (_i, fn) in enumerate(self.entries)]
            sum_lines, squares = _folded(f"e{k} * e{k}" for k in range(len(self.entries)))
            self.norm = _generate("t", f"_sqrt({squares})", names, [*lines, *sum_lines])
