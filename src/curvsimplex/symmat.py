"""Dense symmetric-matrix kernel.

Determinants, minors and eigenvalue signatures, for the small (dim <= ~50)
matrices produced by the Gram builders.
Indices in the public API are 1-based to match the usual subscript conventions;
storage is 0-based numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def _vertex(i, k: int) -> int:
    """Vertex number i as an int: TypeError if it is no integer, IndexError outside 1..k."""
    i = operator.index(i)
    if not 1 <= i <= k:
        raise IndexError(f"vertex {i} out of range 1..{k}")
    return i


def _other_vertices(k: int, vertex: int) -> list[int]:
    """0-based indices of the k vertices other than ``vertex`` (1-based), ascending."""
    return [*range(vertex - 1), *range(vertex, k)]


def _without(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """A new array of the square a with row i and column j (1-based, in range) removed.

    The rows are the view ``a[1:]`` or one concatenation; the two column slices
    on either side of j fill one empty array, so no index list is built.
    """
    n = a.shape[0] - 1
    rows = a[1:] if i == 1 else np.concatenate((a[:i - 1], a[i:]))
    sub = np.empty((n, n))
    sub[:, :j - 1] = rows[:, :j - 1]
    sub[:, j - 1:] = rows[:, j:]
    return sub


@dataclass(frozen=True)
class Signature:
    """Eigenvalue sign counts of a symmetric bilinear form."""

    n_plus: int
    n_minus: int
    n_zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)

    @classmethod
    def of(cls, eig: np.ndarray, tol: float = DEFAULT_TOL) -> "Signature":
        """Classify eigenvalues as positive/negative/zero.

        An eigenvalue counts as zero when |lambda| <= tol * max|lambda|, so the
        verdict does not change when the matrix is scaled.
        """
        if not 0 <= tol < math.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {tol}")
        values = eig.tolist()  # plain floats: a few values classify faster than numpy reduces
        cutoff = tol * max(map(abs, values), default=0.0)
        n_plus = n_minus = n_zero = 0
        for v in values:
            if v > cutoff:
                n_plus += 1
            elif v < -cutoff:
                n_minus += 1
            elif abs(v) <= cutoff:
                n_zero += 1
        if n_plus + n_minus + n_zero < len(values):
            # A NaN eigenvalue, which no branch counts, makes max|lambda| and the
            # cutoff NaN, so no eigenvalue is classified (Python's max may skip it).
            return cls(n_plus=0, n_minus=0, n_zero=0)
        return cls(n_plus=n_plus, n_minus=n_minus, n_zero=n_zero)


class SymMatrix:
    """Immutable dense symmetric matrix.

    ``SymMatrix(entries)`` copies and symmetrizes: the stored entries are
    a_ij / 2 + a_ji / 2 (no sum overflows; halving rounds subnormal ones).  The
    Gram builders store their exactly symmetric arrays as they are (``_exact``).
    """

    __slots__ = ("data",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix must have dimension >= 1")
        a = 0.5 * a + 0.5 * a.T  # halving first: a + a.T overflows past half the float max
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @classmethod
    def _exact(cls, a: np.ndarray) -> "SymMatrix":
        """Wrap a fresh, exactly symmetric square float array read-only, without a copy."""
        obj = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(obj, "data", a)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    def __reduce__(self):
        # The stored data is exactly symmetric, so wrapping it as it is keeps every bit.
        return type(self)._exact, (self.data,)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix({self.data.tolist()!r})"

    def determinant(self) -> float:
        """Determinant via LU factorization (LAPACK)."""
        return float(np.linalg.det(self.data))

    def minor(self, i: int, j: int) -> float:
        """Determinant with row i and column j removed (1-based); 1.0, the empty one, at dim 1.

        The submatrix is copied once, from slices (``_without``); its entries
        are those of the ``np.delete`` reference, so the determinant is too, bit for bit.
        """
        dim = self.dim
        return float(np.linalg.det(_without(self.data, _vertex(i, dim), _vertex(j, dim))))

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum (symmetric eigendecomposition)."""
        return np.linalg.eigvalsh(self.data)

    def signature(self, tol: float = DEFAULT_TOL) -> Signature:
        """Eigenvalue sign counts, classified by ``Signature.of``."""
        return Signature.of(self.eigenvalues(), tol)

    def is_positive_definite(self, tol: float = DEFAULT_TOL) -> bool:
        return self.signature(tol).as_tuple() == (self.dim, 0, 0)
