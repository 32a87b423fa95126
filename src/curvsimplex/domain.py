"""Domain types for metric simplices and the Gram-matrix builders.

An n-simplex is described purely by the geodesic lengths of its edges.  The
builders here turn those lengths into bilinear-form data: the apex-difference
Gram matrix for flat simplices and the full vertex Gram matrix for curved
ones, which stores the unit model and carries its curvature; ``model_gram``
picks one per curvature.
All values are immutable and all functions are pure; the one cache is the
verdict a checked ``EdgeLengths`` keeps (see its docstring).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirection, GramOverflow, OutsideLightCone, WrongModel
from .symmat import SymMatrix, _other_vertices

BARYCENTRIC_SUM_TOL = 1e-6
# Largest |a_ij - a_ji| an edge-length matrix may have, relative to max(1, longest edge).
EDGE_SYMMETRY_TOL = 1e-9
# Largest unit-model edge at kappa < 0, ln(float max): up to it e^gamma, and so
# every -cosh(gamma) Gram entry, stays finite.
COSH_ARG_MAX = math.log(sys.float_info.max)
# Edge lengths whose squares are normal float64 numbers lie in [SQRT_MIN, SQRT_MAX].
SQRT_MIN, SQRT_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class CurvatureSpec:
    """A finite constant curvature value."""

    kappa: float

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ValueError(f"curvature must be finite, got {self.kappa}")

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
    entries; vertices are numbered 1..n+1 in the public API.  ``shortest`` is
    the shortest stored edge and ``longest`` the largest |input entry|, which
    bounds every stored edge.

    ``EdgeLengths(gamma)`` validates and symmetrizes its input.  ``scaled``,
    ``permuted`` and ``restricted`` do not: a scaled, relabeled or restricted
    valid edge set is valid, so they check only what their own arguments can
    break (the factor and the range of the scaled extremes, the vertex
    numbers) and carry the read-only matrix and its extremes over.

    A checked edge set keeps its last verdict: ``check`` stores the curvature,
    the model Gram matrix, the tolerance and the report (which holds the
    eigenvalues) in one private entry, which later ``check`` and
    ``model_gram`` calls at that curvature read instead of rebuilding.
    ``model_gram`` (and so ``distance``) never writes it.  Derived edge sets, copies and unpickled ones start unchecked.
    """

    # _memo is None or (kappa, model Gram, tol, report), written by check.
    __slots__ = ("gamma", "shortest", "longest", "_memo")

    def __init__(self, gamma) -> None:
        try:
            g = np.array(gamma, dtype=float)
        except OverflowError as exc:  # an int past the float max
            raise ValueError("edge lengths must be finite") from exc
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"edge-length matrix must be square, got {g.shape}")
        if g.shape[0] < 2:
            raise ValueError("a simplex needs at least 2 vertices")
        longest = float(np.abs(g).max())
        if not math.isfinite(longest):
            raise ValueError("edge lengths must be finite")
        half = 0.5 * g  # halving first: g + g.T and g - g.T overflow past half the float max
        if np.abs(half - half.T).max() > 0.5 * EDGE_SYMMETRY_TOL * max(1.0, longest):
            raise ValueError("edge-length matrix must be symmetric")
        if g.diagonal().any():
            raise ValueError("diagonal entries must all be zero")
        g = half + half.T  # the stored edges: halving rounds subnormal ones
        shortest = float(_off_diagonal(g).min())
        if not shortest > 0:
            raise ValueError("off-diagonal edge lengths must be positive")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "shortest", shortest)
        object.__setattr__(self, "longest", longest)
        object.__setattr__(self, "_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeLengths is immutable")

    def __reduce__(self):
        # Copies and unpickled edge sets keep the stored matrix and extremes, unchecked.
        return type(self)._derived, (self.gamma, self.shortest, self.longest)

    @property
    def n(self) -> int:
        """Simplex dimension (one less than the vertex count)."""
        return self.gamma.shape[0] - 1

    @property
    def num_vertices(self) -> int:
        return self.gamma.shape[0]

    def length(self, i: int, j: int) -> float:
        return float(self.gamma[i - 1, j - 1])

    @classmethod
    def _derived(cls, gamma: np.ndarray, shortest: float, longest: float) -> "EdgeLengths":
        """Edge set of an exactly symmetric matrix derived from a validated one."""
        obj = object.__new__(cls)
        gamma.setflags(write=False)
        object.__setattr__(obj, "gamma", gamma)
        object.__setattr__(obj, "shortest", shortest)
        object.__setattr__(obj, "longest", longest)
        object.__setattr__(obj, "_memo", None)
        return obj

    def scaled(self, factor: float) -> "EdgeLengths":
        """New edge set with every length multiplied by factor > 0."""
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        shortest, longest = float(self.shortest * factor), float(self.longest * factor)
        if not longest < math.inf:
            raise ValueError("edge lengths must be finite")
        if not shortest > 0:
            raise ValueError("off-diagonal edge lengths must be positive")
        return self._derived(self.gamma * factor, shortest, longest)

    def permuted(self, order) -> "EdgeLengths":
        """Relabel vertices so new vertex k is old vertex order[k] (1-based)."""
        idx = np.asarray(order, dtype=int) - 1
        if sorted(idx.tolist()) != list(range(self.num_vertices)):
            raise ValueError("order must be a permutation of 1..num_vertices")
        return self._derived(self.gamma.take(idx, 0).take(idx, 1), self.shortest, self.longest)

    def restricted(self, vertices) -> "EdgeLengths":
        """Sub-simplex spanned by the given vertices (1-based, >= 2 of them)."""
        keep = sorted(set(vertices))
        k = self.num_vertices
        for v in keep:
            if not 1 <= v <= k:
                raise IndexError(f"vertex {v} out of range 1..{k}")
        if len(keep) < 2:
            raise ValueError("a simplex needs at least 2 vertices")
        idx = np.asarray(keep, dtype=int) - 1
        g = self.gamma.take(idx, 0).take(idx, 1)
        off = _off_diagonal(g)
        return self._derived(g, float(off.min()), float(off.max()))

    def __repr__(self) -> str:
        return f"EdgeLengths({self.gamma.tolist()!r})"


def _off_diagonal(g: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a k x k matrix as k - 1 rows of k (a view if g is contiguous).

    Dropping the first of the k^2 entries leaves rows of k + 1 that each end
    on a diagonal entry.
    """
    k = g.shape[0]
    return g.reshape(-1)[1:].reshape(k - 1, k + 1)[:, :k]


class BarycentricPoint:
    """Coordinate vector over the simplex vertices, normalized to sum 1.

    Inputs whose sum deviates from 1 by more than ``BARYCENTRIC_SUM_TOL`` are
    rejected; smaller deviations are renormalized.  ``hull`` builds raw
    hull-frame coefficient vectors (used by the model lift), which skip
    normalization entirely.
    """

    __slots__ = ("coords",)

    def __init__(self, coords) -> None:
        try:
            c = np.array(coords, dtype=float)
        except OverflowError as exc:  # an int past the float max
            raise ValueError("barycentric coordinates must be finite to sum to 1") from exc
        if c.ndim != 1 or c.size < 2:
            raise ValueError("coords must be a vector of length >= 2")
        if not all(map(math.isfinite, c.tolist())):  # before the sum: inf - inf warns
            raise ValueError("barycentric coordinates must be finite to sum to 1")
        s = float(c.sum())
        if not abs(s - 1.0) <= BARYCENTRIC_SUM_TOL:
            raise ValueError(f"barycentric coordinates sum to {s}, not 1")
        c = c / s
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __setattr__(self, name, value):
        raise AttributeError("BarycentricPoint is immutable")

    def __reduce__(self):
        return type(self).hull, (self.coords,)

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
        if not 1 <= i <= num_vertices:
            raise IndexError(f"vertex {i} out of range 1..{num_vertices}")
        c = np.zeros(num_vertices)
        c[i - 1] = 1.0
        return cls.hull(c)  # a one-hot sums to exactly 1: nothing to normalize

    def __repr__(self) -> str:
        return f"BarycentricPoint({self.coords.tolist()!r})"


@dataclass(frozen=True)
class GramMatrix:
    """A Gram matrix derived from edge lengths.

    Apex Gram (curvature 0, ``apex`` set): n x n matrix of apex-difference
    inner products, with vertex ``apex`` at the origin.  Full vertex Gram
    (nonzero curvature, ``apex`` None): (n+1) x (n+1) matrix of vertex
    position inner products on the unit model; a form or length at
    ``curvature`` is that of the unit model over |kappa| or sqrt(|kappa|).
    Any other pairing of ``apex`` and ``curvature`` raises WrongModel.
    """

    matrix: SymMatrix
    curvature: CurvatureSpec
    apex: int | None = None

    def __post_init__(self):
        if self.apex is None and self.curvature.kappa == 0:
            raise WrongModel("a Gram matrix at curvature 0 needs an apex")
        if self.apex is not None and self.curvature.kappa != 0:
            raise WrongModel(f"a Gram matrix at kappa={self.curvature.kappa} has no apex, "
                             f"got apex={self.apex}")


def euclidean_gram(e: EdgeLengths, apex: int) -> GramMatrix:
    """Apex-difference Gram matrix q_ij = (g_ia^2 + g_ja^2 - g_ij^2) / 2.

    Rows and columns run over the non-apex vertices in ascending order.
    Raises GramOverflow when k * longest^2 overflows or shortest^2 is subnormal.
    """
    k = e.num_vertices
    if not 1 <= apex <= k:
        raise IndexError(f"apex {apex} out of range 1..{k}")
    if not (SQRT_MIN <= e.shortest and e.longest * math.sqrt(k) <= SQRT_MAX):
        raise GramOverflow(
            f"squaring edges in [{e.shortest}, {e.longest}] overflows or underflows float64")
    others = _other_vertices(k, apex)
    g2 = e.gamma ** 2
    col = g2[others, apex - 1]
    q = 0.5 * (col[:, None] + col[None, :] - g2.take(others, 0).take(others, 1))
    return GramMatrix(SymMatrix._exact(q), EUCLIDEAN, apex=apex)


def curved_gram(e: EdgeLengths, c: CurvatureSpec) -> GramMatrix:
    """Full vertex Gram matrix of the unit model, carrying the nonzero curvature c.

    The edges are rescaled onto the unit model (``unit_model``) and
    q_ij = cos(g_ij) for kappa > 0, -cosh(g_ij) for kappa < 0, on the
    rescaled edges g; ``curvature`` stays c.  Raises GramOverflow when a
    rescaled edge exceeds COSH_ARG_MAX at kappa < 0.
    """
    if c.kappa == 0:
        raise WrongModel("curvature 0 has no full vertex Gram; use euclidean_gram")
    unit, unit_c = unit_model(e, c)
    if unit_c.kappa > 0:
        q = np.cos(unit.gamma)
    else:
        if unit.longest > COSH_ARG_MAX:
            raise GramOverflow(
                f"hyperbolic edge {unit.longest} at kappa={unit_c.kappa} overflows the Gram matrix")
        q = -np.cosh(unit.gamma)
    return GramMatrix(SymMatrix._exact(q), c)


def unit_model(e: EdgeLengths, c: CurvatureSpec) -> tuple[EdgeLengths, CurvatureSpec]:
    """Edges and curvature (0, -1 or +1) of the unit model: edges times sqrt(|kappa|).

    Lengths there are sqrt(|kappa|) times those at c; barycentric coordinates agree.
    Raises GramOverflow when a rescaled edge is infinite or below the smallest normal.
    """
    kappa = c.kappa
    if kappa == 0 or abs(kappa) == 1:
        return e, c
    if not (sys.float_info.min <= e.shortest * c.scale and e.longest * c.scale < math.inf):
        raise GramOverflow(f"the unit-model rescale of edges in [{e.shortest}, {e.longest}] "
                           f"at kappa={kappa} overflows or underflows float64")
    return e.scaled(c.scale), HYPERBOLIC if kappa < 0 else SPHERICAL


def model_gram(e: EdgeLengths, c: CurvatureSpec) -> GramMatrix:
    """Apex Gram matrix at the last vertex for kappa = 0, else ``curved_gram``.

    An edge set checked at c returns the Gram matrix its check stored.
    """
    memo = e._memo
    if memo is not None and memo[0] == c.kappa:
        return memo[1]
    if c.kappa == 0:
        return euclidean_gram(e, apex=e.num_vertices)
    return curved_gram(e, c)


def _vertex_gram_data(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> np.ndarray:
    """The full vertex Gram array, once q is curved and both points match its size."""
    if q.curvature.kappa == 0:
        raise WrongModel("hull inner product needs a full curved Gram matrix")
    m = q.matrix.data
    if x.coords.size != m.shape[0] or y.coords.size != m.shape[0]:
        raise ValueError("coordinate length does not match Gram dimension")
    return m


@np.errstate(over="ignore", invalid="ignore")  # a value past float64 raises GramOverflow
def hull_inner_product(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Inner product <x, y> of two hull points in the model of curvature kappa.

    That is x^T Q y / |kappa| on the stored unit-model matrix Q (GramOverflow if not finite).
    """
    value = float(x.coords @ _vertex_gram_data(q, x, y) @ y.coords) / abs(q.curvature.kappa)
    if not math.isfinite(value):
        raise GramOverflow(f"<x, y> = {value} at kappa={q.curvature.kappa} leaves float64")
    return value


@np.errstate(over="ignore", invalid="ignore")  # a form past float64 raises GramOverflow
def lift_to_model(q: GramMatrix, x: BarycentricPoint) -> BarycentricPoint:
    """Radial projection of a hull point onto the model surface <p, p> = 1/kappa.

    Returns hull-frame coefficients (they no longer sum to 1).  They are
    x / sqrt|x^T Q x| on the stored unit-model matrix Q, the same at every
    kappa of one sign.  x^T Q x must be finite (else GramOverflow) and have
    the sign of kappa: timelike on the hyperboloid, positive on the sphere.
    """
    s = float(x.coords @ _vertex_gram_data(q, x, x) @ x.coords)
    if q.curvature.kappa < 0 and not s < 0:
        raise OutsideLightCone(f"<x,x> = {s} is not negative")
    if q.curvature.kappa > 0 and not s > 0:
        raise DegenerateDirection(f"<x,x> = {s} is not positive")
    if not math.isfinite(s):
        raise GramOverflow(f"<x,x> = {s} leaves float64")
    return BarycentricPoint.hull(x.coords * (1.0 / math.sqrt(abs(s))))
