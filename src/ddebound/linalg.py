"""Dense small-matrix helpers: the spectral norm and matrix time-functions.

Everything here targets the small (n up to ~20) matrices this package works
with; no attempt is made to scale beyond that.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from .timefn import ConstantFn, as_time_function, memoize_last

__all__ = [
    "spectral_norm",
    "MatrixFunction",
    "matrix_norm_function",
]


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value (Euclidean induced norm).

    Closed form for 1x1/2x2 (used inside integration right sides), the
    library SVD for anything larger.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape == (1, 1):
        return abs(float(m[0, 0]))
    if m.shape == (2, 2):
        a, b = m[0, 0], m[0, 1]
        c, d = m[1, 0], m[1, 1]
        g11 = a * a + c * c
        g22 = b * b + d * d
        g12 = a * b + c * d
        trace = g11 + g22
        disc = math.hypot(g11 - g22, 2.0 * g12)
        return math.sqrt(max(0.5 * (trace + disc), 0.0))
    return float(np.linalg.norm(m, 2))


class MatrixFunction:
    """Matrix-valued function of time with per-entry coefficients.

    Entries may be numbers, `Expression` objects or callables.  Constant
    matrices are detected and returned without re-evaluation; callers must
    treat the returned array as read-only in that case.
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
        # one memo per matrix function: every coefficient built from it
        # computes |M(t)| once per time point
        if self.is_constant:
            self.norm = ConstantFn(spectral_norm(base))
        else:
            self.norm = memoize_last(lambda t: spectral_norm(self(t)))

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
            left = as_time_function(merged[key])
            right = as_time_function(value)
            if isinstance(left, ConstantFn) and isinstance(right, ConstantFn):
                merged[key] = left.value + right.value
            else:
                merged[key] = (lambda t, a=left, b=right: a(t) + b(t))
        return MatrixFunction(self.dim, merged)


def matrix_norm_function(matrix_fn) -> Callable[[float], float]:
    """Time function ``t -> |M(t)|`` (spectral norm), memoized at the last
    time point; a `MatrixFunction` hands out its one shared memo."""
    if isinstance(matrix_fn, MatrixFunction):
        return matrix_fn.norm
    return memoize_last(lambda t: spectral_norm(matrix_fn(t)))
