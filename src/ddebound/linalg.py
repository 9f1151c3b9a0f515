"""Dense small-matrix helpers: the spectral norm, matrix and vector
time-functions.

Everything here targets the small (n up to ~20) matrices this package works
with; no attempt is made to scale beyond that.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .expressions import _folded, _generate
from .timefn import ConstantFn, _compose, _source_of, as_time_function

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

    Entries may be numbers or callables (`parse_expression` results among
    them); the matrix keeps one map ``(i, j) -> time function``
    (`timefn.as_time_function`), with exact zeros dropped, which calling it,
    ``norm`` and `entries` read.  Calling it fills a new array.  ``norm`` is
    ``t -> |M(t)|``: a `ConstantFn` when every entry is one, else for
    dimension 1 or 2 a function generated from the entries' sources
    (`spectral_norm`'s closed form in its order of operations, so bit for
    bit), above that `spectral_norm` of the matrix.
    """

    def __init__(self, dim: int, entries: Mapping[tuple[int, int], object]):
        if dim < 1:
            raise ValueError("matrix dimension must be positive")
        self.dim = dim
        self._entries: dict[tuple[int, int], Callable[[float], float]] = {}
        for (i, j), value in entries.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"entry index ({i}, {j}) outside a {dim}x{dim} matrix")
            fn = as_time_function(value)
            if not (isinstance(fn, ConstantFn) and fn.value == 0.0):
                self._entries[i, j] = fn
        if all(isinstance(fn, ConstantFn) for fn in self._entries.values()):
            self.norm = ConstantFn(spectral_norm(self(0.0)))
        elif dim == 1:
            self.norm = _compose("abs({})", self._entries[0, 0])
        elif dim == 2:
            names: dict = {}
            (a, b), (c, d) = [[_source_of(self._entries.get((i, j), ConstantFn(0.0)), names)
                               for j in range(2)] for i in range(2)]
            self.norm = _generate("t", _NORM_2X2, names,
                                  [f"a, b, c, d = {a}, {b}, {c}, {d}", *_GRAM_LINES])
        else:
            self.norm = lambda t: spectral_norm(self(t))

    def __call__(self, t: float) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for (i, j), fn in self._entries.items():
            out[i, j] = fn(t)
        return out

    def entries(self) -> dict[tuple[int, int], Callable[[float], float]]:
        """A copy of the entry map: each nonzero entry's time function."""
        return dict(self._entries)

    def plus(self, other: "MatrixFunction") -> "MatrixFunction":
        """Pointwise sum, merged entry-wise so evaluation stays one pass."""
        if self.dim != other.dim:
            raise ValueError("matrix dimensions differ")
        merged = self.entries()
        for key, fn in other._entries.items():
            merged[key] = _compose("{} + {}", merged[key], fn) if key in merged else fn
        return MatrixFunction(self.dim, merged)


class VectorFunction:
    """Vector-valued function of time with per-entry coefficients (numbers or
    callables); entries not given are zero.
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
