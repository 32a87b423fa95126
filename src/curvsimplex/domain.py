"""Domain types for metric simplices and the Gram-matrix builders.

An n-simplex is described purely by the geodesic lengths of its edges.  The
builders here turn those lengths into bilinear-form data: the apex-difference
Gram matrix for flat simplices and the full vertex Gram matrix for curved
ones; ``model_gram`` picks one per curvature, on the unit model.
All values are immutable and all functions are pure.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirection, GramOverflow, OutsideLightCone, WrongModel
from .symmat import SymMatrix

BARYCENTRIC_SUM_TOL = 1e-6
# Largest cosh argument whose Gram entries survive the a + a^T symmetrization.
COSH_ARG_MAX = math.log(sys.float_info.max)


class Geometry(enum.Enum):
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"
    SPHERICAL = "spherical"
    GENERAL = "general"


@dataclass(frozen=True)
class CurvatureSpec:
    """A constant curvature value and its model classification."""

    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ValueError(f"curvature must be finite, got {self.kappa}")

    @property
    def classification(self) -> Geometry:
        if self.kappa == 0:
            return Geometry.EUCLIDEAN
        if self.kappa == -1:
            return Geometry.HYPERBOLIC
        if self.kappa == 1:
            return Geometry.SPHERICAL
        return Geometry.GENERAL

    @property
    def scale(self) -> float:
        """Edge rescaling factor sqrt(|kappa|) onto the unit-curvature model."""
        return math.sqrt(abs(self.kappa))


EUCLIDEAN = CurvatureSpec(0.0)
HYPERBOLIC = CurvatureSpec(-1.0)
SPHERICAL = CurvatureSpec(1.0)


class EdgeLengths:
    """Symmetric matrix of pairwise geodesic edge lengths of an n-simplex.

    The matrix is (n+1) x (n+1) with zero diagonal and positive off-diagonal
    entries; vertices are numbered 1..n+1 in the public API.
    """

    __slots__ = ("gamma",)

    def __init__(self, gamma) -> None:
        g = np.array(gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"edge-length matrix must be square, got {g.shape}")
        if g.shape[0] < 2:
            raise ValueError("a simplex needs at least 2 vertices")
        peak = float(np.max(np.abs(g)))
        if not math.isfinite(peak):
            raise ValueError("edge lengths must be finite")
        if np.max(np.abs(g - g.T)) > 1e-9 * max(1.0, peak):
            raise ValueError("edge-length matrix must be symmetric")
        if np.any(np.abs(np.diag(g)) > 0):
            raise ValueError("diagonal entries must all be zero")
        off = g[~np.eye(g.shape[0], dtype=bool)]
        if np.any(off <= 0):
            raise ValueError("off-diagonal edge lengths must be positive")
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeLengths is immutable")

    @property
    def n(self) -> int:
        """Simplex dimension (one less than the vertex count)."""
        return self.gamma.shape[0] - 1

    @property
    def num_vertices(self) -> int:
        return self.gamma.shape[0]

    def length(self, i: int, j: int) -> float:
        return float(self.gamma[i - 1, j - 1])

    def scaled(self, factor: float) -> "EdgeLengths":
        """New edge set with every length multiplied by factor > 0."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return EdgeLengths(self.gamma * factor)

    def permuted(self, order) -> "EdgeLengths":
        """Relabel vertices so new vertex k is old vertex order[k] (1-based)."""
        idx = np.asarray(order, dtype=int) - 1
        if sorted(idx.tolist()) != list(range(self.num_vertices)):
            raise ValueError("order must be a permutation of 1..num_vertices")
        return EdgeLengths(self.gamma[np.ix_(idx, idx)])

    def restricted(self, vertices) -> "EdgeLengths":
        """Sub-simplex spanned by the given vertices (1-based, >= 2 of them)."""
        idx = np.asarray(sorted(set(vertices)), dtype=int) - 1
        return EdgeLengths(self.gamma[np.ix_(idx, idx)])

    def __repr__(self) -> str:
        return f"EdgeLengths({self.gamma.tolist()!r})"


class BarycentricPoint:
    """Coordinate vector over the simplex vertices, normalized to sum 1.

    Inputs whose sum deviates from 1 by more than 1e-6 are rejected; smaller
    deviations are renormalized.  ``hull`` builds raw hull-frame coefficient
    vectors (used by the model lift), which skip normalization entirely.
    """

    __slots__ = ("coords",)

    def __init__(self, coords) -> None:
        c = np.array(coords, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("coords must be a vector of length >= 2")
        s = float(c.sum())
        if not abs(s - 1.0) <= BARYCENTRIC_SUM_TOL:
            raise ValueError(f"barycentric coordinates sum to {s}, not 1")
        c = c / s
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __setattr__(self, name, value):
        raise AttributeError("BarycentricPoint is immutable")

    @classmethod
    def hull(cls, coords) -> "BarycentricPoint":
        """Raw hull-frame coefficients; no sum-to-1 normalization."""
        obj = object.__new__(cls)
        c = np.array(coords, dtype=float)
        c.setflags(write=False)
        object.__setattr__(obj, "coords", c)
        return obj

    @classmethod
    def vertex(cls, i: int, num_vertices: int) -> "BarycentricPoint":
        """The i-th vertex (1-based) as a barycentric point."""
        c = np.zeros(num_vertices)
        c[i - 1] = 1.0
        return cls(c)

    @property
    def has_negative(self) -> bool:
        """True when some coordinate is negative (point outside the closed simplex)."""
        return bool(np.any(self.coords < 0))

    def __repr__(self) -> str:
        return f"BarycentricPoint({self.coords.tolist()!r})"


@dataclass(frozen=True)
class GramMatrix:
    """A Gram matrix derived from edge lengths.

    Apex Gram (curvature 0, ``apex`` set): n x n matrix of apex-difference
    inner products, with vertex ``apex`` at the origin.  Full vertex Gram
    (nonzero curvature, ``apex`` None): (n+1) x (n+1) matrix of vertex
    position inner products in the curvature's model space.
    """

    matrix: SymMatrix
    curvature: CurvatureSpec
    apex: int | None = None


def euclidean_gram(e: EdgeLengths, apex: int) -> GramMatrix:
    """Apex-difference Gram matrix q_ij = (g_ia^2 + g_ja^2 - g_ij^2) / 2.

    Rows and columns run over the non-apex vertices in ascending order.
    """
    k = e.num_vertices
    if not 1 <= apex <= k:
        raise IndexError(f"apex {apex} out of range 1..{k}")
    others = [i for i in range(k) if i != apex - 1]
    g = e.gamma
    col = g[others, apex - 1]
    q = 0.5 * (col[:, None] ** 2 + col[None, :] ** 2 - g[np.ix_(others, others)] ** 2)
    return GramMatrix(SymMatrix(q), EUCLIDEAN, apex=apex)


def curved_gram(e: EdgeLengths, c: CurvatureSpec) -> GramMatrix:
    """Full vertex Gram matrix for a nonzero constant curvature.

    kappa = -1: q_ij = -cosh(g_ij); kappa = +1: q_ij = cos(g_ij).  For other
    kappa the radius-R model (R = 1/sqrt|kappa|) is used, so q_ij is
    (1/kappa) cos(sqrt(kappa) g_ij) for kappa > 0 and
    (1/kappa) cosh(sqrt(-kappa) g_ij) for kappa < 0; the diagonal is 1/kappa.
    Raises GramOverflow when sqrt(-kappa) * max g_ij exceeds COSH_ARG_MAX.
    """
    kappa = c.kappa
    if kappa == 0:
        raise WrongModel("curvature 0 has no full vertex Gram; use euclidean_gram")
    g = e.gamma
    if kappa > 0:
        q = (1.0 / kappa) * np.cos(math.sqrt(kappa) * g)
    else:
        root, longest = math.sqrt(-kappa), float(g.max())
        if root * longest > COSH_ARG_MAX:
            raise GramOverflow(f"hyperbolic edge {longest} at kappa={kappa} overflows cosh")
        q = (1.0 / kappa) * np.cosh(root * g)
    return GramMatrix(SymMatrix(q), c)


def unit_model(e: EdgeLengths, c: CurvatureSpec) -> tuple[EdgeLengths, CurvatureSpec]:
    """Edges and curvature (0, -1 or +1) of the unit model: edges times sqrt(|kappa|).

    Lengths there are sqrt(|kappa|) times those at c; barycentric coordinates agree.
    """
    kappa = c.kappa
    if kappa == 0 or abs(kappa) == 1:
        return e, c
    return e.scaled(c.scale), HYPERBOLIC if kappa < 0 else SPHERICAL


def model_gram(e: EdgeLengths, c: CurvatureSpec) -> GramMatrix:
    """Apex Gram matrix at the last vertex for kappa = 0, else the unit-model vertex Gram."""
    e, c = unit_model(e, c)
    if c.kappa == 0:
        return euclidean_gram(e, apex=e.num_vertices)
    return curved_gram(e, c)


def hull_inner_product(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Model-space inner product <x, y> = x^T Q y of two hull points."""
    if q.curvature.kappa == 0:
        raise WrongModel("hull inner product needs a full curved Gram matrix")
    m = q.matrix.data
    if x.coords.size != m.shape[0] or y.coords.size != m.shape[0]:
        raise ValueError("coordinate length does not match Gram dimension")
    return float(x.coords @ m @ y.coords)


def lift_to_model(q: GramMatrix, x: BarycentricPoint) -> BarycentricPoint:
    """Radial projection of a hull point onto the model surface <p, p> = 1/kappa.

    Returns hull-frame coefficients (they no longer sum to 1).  For negative
    curvature the point must be timelike (<x, x> < 0); for positive curvature
    it must have positive norm.
    """
    kappa = q.curvature.kappa
    s = hull_inner_product(q, x, x)
    if kappa < 0:
        if s >= 0:
            raise OutsideLightCone(f"<x,x> = {s} is not negative")
    else:
        if s <= 0:
            raise DegenerateDirection(f"<x,x> = {s} is not positive")
    factor = 1.0 / math.sqrt(abs(kappa) * abs(s))
    return BarycentricPoint.hull(x.coords * factor)
