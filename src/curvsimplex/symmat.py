"""Dense symmetric-matrix kernel.

Determinants, minors, eigenvalue signatures and the first-orthogonal-complement
solve, for the small (dim <= ~50) matrices produced by the Gram builders.
Indices in the public API are 1-based to match the usual subscript conventions;
storage is 0-based numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMinor, SingularFace

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Signature:
    """Eigenvalue sign counts of a symmetric bilinear form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)

    @classmethod
    def of(cls, eig: np.ndarray, tol: float = DEFAULT_TOL) -> "Signature":
        """Classify eigenvalues as positive/negative/zero.

        An eigenvalue counts as zero when |lambda| <= tol * max(1, max|lambda|).
        """
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        cutoff = tol * max(1.0, float(np.max(np.abs(eig))) if eig.size else 1.0)
        n_zero = int(np.sum(np.abs(eig) <= cutoff))
        n_plus = int(np.sum(eig > cutoff))
        n_minus = int(np.sum(eig < -cutoff))
        return cls(n_plus=n_plus, n_minus=n_minus, n_zero=n_zero)


class SymMatrix:
    """Immutable dense symmetric matrix.

    Construction symmetrizes: the stored entries are (a_ij + a_ji) / 2.
    """

    __slots__ = ("data",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix must have dimension >= 1")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix({self.data.tolist()!r})"

    def determinant(self) -> float:
        """Determinant via LU factorization (LAPACK)."""
        return float(np.linalg.det(self.data))

    def minor(self, i: int, j: int) -> float:
        """Determinant with row i and column j removed (1-based)."""
        self._check_index(i)
        self._check_index(j)
        if self.dim == 1:
            raise DegenerateMinor("a 1x1 matrix has no minors")
        sub = np.delete(np.delete(self.data, i - 1, axis=0), j - 1, axis=1)
        return float(np.linalg.det(sub))

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum (symmetric eigendecomposition)."""
        return np.linalg.eigvalsh(self.data)

    def signature(self, tol: float = DEFAULT_TOL) -> Signature:
        """Eigenvalue sign counts, classified by ``Signature.of``."""
        return Signature.of(self.eigenvalues(), tol)

    def is_positive_definite(self, tol: float = DEFAULT_TOL) -> bool:
        return self.signature(tol).as_tuple() == (self.dim, 0, 0)

    def solve_first_complement(self) -> np.ndarray:
        """Vector x with x_1 = 1 and (m x)_i = 0 for every i >= 2.

        Equivalently x is proportional to the signed first-row minors
        (m_11, -m_12, ..., (-1)^(dim+1) m_1,dim).  Requires the trailing
        principal submatrix m(1,1) to be invertible.
        """
        a = self.data[1:, 1:]
        b = self.data[1:, 0]
        if a.size == 0:
            return np.array([1.0])
        try:
            tail = np.linalg.solve(a, -b)
        except np.linalg.LinAlgError as exc:
            raise SingularFace("trailing principal submatrix is singular") from exc
        if not np.all(np.isfinite(tail)):
            raise SingularFace("trailing principal submatrix is singular")
        return np.concatenate(([1.0], tail))

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.dim:
            raise IndexError(f"index {i} out of range 1..{self.dim}")
