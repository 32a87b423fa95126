"""Domain types for metric simplices and the Gram-matrix builders.

An n-simplex is described purely by the geodesic lengths of its edges.  The
builders here turn those lengths into the half squared chords E, the only
matrix built from them and the only one a ``GramMatrix`` stores: its apex
Gram matrix (flat simplices) or full vertex Gram matrix (curved ones, on the
unit model, carrying the curvature) is an exact rearrangement of E, derived
on each read, and ``model_gram`` picks one per curvature.
All values are immutable and all functions are pure; the only caches are the
model Gram matrix and the verdict an ``EdgeLengths`` keeps (see its docstring).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDirection,
    GramOverflow,
    NotRealizableInput,
    OutsideLightCone,
    WrongModel,
)
from .symmat import SymMatrix, _floats, _shown, _vertex, _without

BARYCENTRIC_SUM_TOL = 1e-6
# Largest |a_ij - a_ji| an edge-length matrix may have, relative to max(1, largest |entry|).
EDGE_SYMMETRY_TOL = 1e-9
# Largest unit-model edge at kappa < 0, ln(float max): up to it e^gamma, and so
# every half chord 2 sinh^2(gamma / 2) = cosh(gamma) - 1 and Gram entry -1 - E, stays finite.
COSH_ARG_MAX = math.log(sys.float_info.max)
# Edge lengths whose squares are normal float64 numbers lie in [SQRT_MIN, SQRT_MAX].
SQRT_MIN, SQRT_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)
# Name and error of each model, by the sign of kappa: the error is raised for a
# point or chord outside the model.
_MODEL = {0.0: ("euclidean", NotRealizableInput), -1.0: ("hyperbolic", OutsideLightCone),
          1.0: ("spherical", DegenerateDirection)}


@dataclass(frozen=True)
class CurvatureSpec:
    """A finite constant curvature kappa, with its sign and its scale, set once and read-only.

    ``sign`` is sigma = sign(kappa), 0.0 at kappa = +-0.0; ``scale`` is sqrt(|kappa|), the edge
    rescaling factor onto the unit-curvature model.  kappa alone sets repr, equality and hash.
    """

    kappa: float
    sign: float = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not abs(self.kappa) <= sys.float_info.max:  # NaN, infinite or an int past the float max
            raise ValueError(f"curvature must be finite, got {_shown(self.kappa)}")
        object.__setattr__(self, "sign", math.copysign(1.0, self.kappa) if self.kappa else 0.0)
        object.__setattr__(self, "scale", math.sqrt(abs(self.kappa)))

    def __reduce__(self):
        return type(self), (self.kappa,)


EUCLIDEAN = CurvatureSpec(0.0)
HYPERBOLIC = CurvatureSpec(-1.0)
SPHERICAL = CurvatureSpec(1.0)


class EdgeLengths:
    """Symmetric matrix of pairwise geodesic edge lengths of an n-simplex.

    The matrix is (n+1) x (n+1) with zero diagonal and positive off-diagonal
    entries; vertices are numbered 1..n+1 in the public API.  ``shortest`` and
    ``longest`` are the shortest and longest stored edge, whatever route built
    the set, so every fact read from it depends on the stored matrix alone.

    ``EdgeLengths(gamma)`` validates and symmetrizes its input.  ``scaled``,
    ``permuted`` and ``restricted`` do not: a scaled, relabeled or restricted
    valid edge set is valid, so they check only what their own arguments can
    break (the factor, the range of the scaled extremes, the vertex numbers) and
    carry the matrix over with its extremes, exact as a relabeling keeps the
    edges and rounding f * gamma is monotone.

    Two private slots keep results: ``_gram`` the Gram matrix ``model_gram``
    built last (and so the one ``distance`` and ``check`` read), and
    ``_report`` the tolerance and report of the last ``check``, at its
    curvature.  Each has one writer, which replaces it on a miss.  Derived
    edge sets, copies and unpickled ones start with both empty.
    """

    # _gram is None or a GramMatrix, keyed by its own curvature.kappa;
    # _report is None or (kappa, tol, report).
    __slots__ = ("gamma", "shortest", "longest", "_gram", "_report")

    def __init__(self, gamma) -> None:
        g = _floats(gamma, "edge lengths must be finite")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"edge-length matrix must be square, got {g.shape}")
        if g.shape[0] < 2:
            raise ValueError("a simplex needs at least 2 vertices")
        scale = float(np.abs(g).max())  # the input's own scale, for its checks only
        if not math.isfinite(scale):
            raise ValueError("edge lengths must be finite")
        half = 0.5 * g  # halving first: g + g.T and g - g.T overflow past half the float max
        if np.abs(half - half.T).max() > 0.5 * EDGE_SYMMETRY_TOL * max(1.0, scale):
            raise ValueError("edge-length matrix must be symmetric")
        if g.diagonal().any():
            raise ValueError("diagonal entries must all be zero")
        g = half + half.T  # the stored edges: halving rounds subnormal ones
        shortest, longest = _extremes(g)
        if not shortest > 0:
            raise ValueError("off-diagonal edge lengths must be positive")
        self._fill(g, shortest, longest)

    def _fill(self, gamma: np.ndarray, shortest: float, longest: float) -> None:
        """Write every slot: the matrix, made read-only, its extremes and two empty caches."""
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "shortest", shortest)
        object.__setattr__(self, "longest", longest)
        object.__setattr__(self, "_gram", None)
        object.__setattr__(self, "_report", None)

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
        k = self.num_vertices
        return float(self.gamma[_vertex(i, k) - 1, _vertex(j, k) - 1])

    @classmethod
    def _derived(cls, gamma: np.ndarray, shortest: float, longest: float) -> "EdgeLengths":
        """Edge set of an exactly symmetric matrix derived from a validated one."""
        obj = object.__new__(cls)
        obj._fill(gamma, shortest, longest)
        return obj

    def scaled(self, factor: float) -> "EdgeLengths":
        """New edge set with every length multiplied by factor > 0."""
        if not factor > 0:
            raise ValueError("scale factor must be positive")
        factor = float(_floats(factor, "edge lengths must be finite"))
        shortest, longest = self.shortest * factor, self.longest * factor
        if not longest < math.inf:
            raise ValueError("edge lengths must be finite")
        if not shortest > 0:
            raise ValueError("off-diagonal edge lengths must be positive")
        return self._derived(self.gamma * factor, shortest, longest)

    def permuted(self, order) -> "EdgeLengths":
        """Relabel vertices so new vertex k is old vertex order[k] (1-based).

        The first entry, in order, that is no integer or out of range raises as
        ``_vertex`` does; valid numbers that are no permutation of 1..num_vertices
        raise ValueError.
        """
        k = self.num_vertices
        idx = [_vertex(v, k) - 1 for v in order]
        if sorted(idx) != list(range(k)):
            raise ValueError("order must be a permutation of 1..num_vertices")
        return self._relabeled(idx)

    def _relabeled(self, idx: list[int]) -> "EdgeLengths":
        """New vertex i is old vertex idx[i], idx a permutation of range(num_vertices)."""
        return self._derived(self.gamma.take(idx, 0).take(idx, 1), self.shortest, self.longest)

    def restricted(self, vertices) -> "EdgeLengths":
        """Sub-simplex spanned by the given vertices (1-based, >= 2 of them).

        The first entry, in order, that is no integer or out of range raises as
        ``_vertex`` does.  Repeats are dropped and the vertices sorted; fewer than
        2 distinct vertices raise ValueError.
        """
        k = self.num_vertices
        idx = sorted({_vertex(v, k) - 1 for v in vertices})
        if len(idx) < 2:
            raise ValueError("a simplex needs at least 2 vertices")
        g = self.gamma.take(idx, 0).take(idx, 1)
        return self._derived(g, *_extremes(g))

    def __repr__(self) -> str:
        return f"EdgeLengths({self.gamma.tolist()!r})"


def _extremes(g: np.ndarray) -> tuple[float, float]:
    """The smallest and largest off-diagonal entry of a k x k matrix, k >= 2.

    Past the first of the k^2 entries, k - 1 rows of k + 1 each end on a diagonal entry.
    """
    k = g.shape[0]
    off = g.reshape(-1)[1:].reshape(k - 1, k + 1)[:, :k]
    return float(off.min()), float(off.max())


def _vector(coords) -> np.ndarray:
    """coords as a new float array; ValueError unless it is one vector of >= 2."""
    c = _floats(coords, "barycentric coordinates must be finite to sum to 1")
    if c.ndim != 1 or c.size < 2:
        raise ValueError("coords must be a vector of length >= 2")
    return c


class BarycentricPoint:
    """Coordinate vector over the simplex vertices, normalized to sum 1.

    The sum is ``math.fsum`` of the coordinates as floats, correctly rounded
    (Python's ``sum`` only where ``fsum`` cannot finish: an intermediate past
    float64, or inf - inf).  Inputs whose sum deviates from 1 by more than
    ``BARYCENTRIC_SUM_TOL`` are rejected; smaller deviations are divided out,
    and a sum of exactly 1 leaves the coordinates untouched.  ``hull`` builds
    raw hull-frame coefficient vectors (used by the model lift), which skip
    normalization entirely.
    """

    __slots__ = ("coords",)

    def __init__(self, coords) -> None:
        c = _vector(coords)
        values = c.tolist()
        try:
            s = math.fsum(values)  # a numpy reduce costs more, and warns when it overflows
        except (OverflowError, ValueError):  # a partial sum past float64, or inf - inf
            s = sum(values)
        if not math.isfinite(s) and not all(map(math.isfinite, values)):
            raise ValueError("barycentric coordinates must be finite to sum to 1")
        if not abs(s - 1.0) <= BARYCENTRIC_SUM_TOL:
            raise ValueError(f"barycentric coordinates sum to {s}, not 1")
        if s != 1.0:  # x / 1.0 is x
            c /= s  # c is this point's own copy
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __setattr__(self, name, value):
        raise AttributeError("BarycentricPoint is immutable")

    def __reduce__(self):
        return type(self).hull, (self.coords,)

    @classmethod
    def hull(cls, coords) -> "BarycentricPoint":
        """Raw hull-frame coefficients; no sum-to-1 normalization, but one vector of >= 2."""
        return cls._wrap(_vector(coords))

    @classmethod
    def _wrap(cls, c: np.ndarray) -> "BarycentricPoint":
        """Wrap a fresh float vector of >= 2 coordinates read-only, without a copy or a check."""
        obj = object.__new__(cls)
        c.setflags(write=False)
        object.__setattr__(obj, "coords", c)
        return obj

    @classmethod
    def vertex(cls, i: int, num_vertices: int) -> "BarycentricPoint":
        """The i-th vertex (1-based) as a barycentric point."""
        c = np.zeros(num_vertices)
        c[_vertex(i, num_vertices) - 1] = 1.0
        # A one-hot sums to exactly 1: nothing to normalize; hull rejects a single vertex.
        return cls._wrap(c) if num_vertices > 1 else cls.hull(c)

    def __repr__(self) -> str:
        return f"BarycentricPoint.hull({self.coords.tolist()!r})"  # hull keeps the stored bits


@dataclass(frozen=True)
class GramMatrix:
    """The unit-model half squared chords E of a simplex, and a Gram matrix read from them.

    ``half_chords`` holds E, half the squared chords: gamma^2 / 2 at kappa = 0, else 2 sinh^2(g / 2)
    (kappa < 0) or 2 sin^2(g / 2) (kappa > 0) of g = sqrt(|kappa|) gamma.  ``matrix``
    is derived from E on each read.  With ``apex`` set (curvature 0) it is the n x n
    apex Gram E_ia + E_ja - E_ij, vertex ``apex`` at the origin; with ``apex`` None
    (nonzero curvature) the (n+1) x (n+1) vertex Gram sigma - E of the unit model,
    sigma = sign(kappa): cos g or -cosh g to rounding, less the digits of short edges
    that E keeps.  A form or length at ``curvature`` is the unit model's over |kappa| or
    sqrt(|kappa|).  Any other pairing of ``apex`` and ``curvature`` raises WrongModel,
    and an apex outside E raises as ``_vertex`` does; ``apex`` is stored as the int it returns.
    """

    half_chords: SymMatrix
    curvature: CurvatureSpec
    apex: int | None = None

    def __post_init__(self):
        if self.apex is None and self.curvature.kappa == 0:
            raise WrongModel("a Gram matrix at curvature 0 needs an apex")
        if self.apex is not None and self.curvature.kappa != 0:
            raise WrongModel(f"a Gram matrix at kappa={self.curvature.kappa} has no apex, "
                             f"got apex={_shown(self.apex)}")
        if self.apex is not None:
            object.__setattr__(self, "apex", _vertex(self.apex, self.half_chords.dim))

    @property
    def matrix(self) -> SymMatrix:
        """The apex or vertex Gram matrix, a new read-only array built from E."""
        e, a = self.half_chords.data, self.apex
        if a is None:
            return SymMatrix._exact(self.curvature.sign - e)
        col = np.concatenate((e[:a - 1, a - 1], e[a:, a - 1]))
        return SymMatrix._exact(col[:, None] + col[None, :] - _without(e, a, a))


def euclidean_gram(e: EdgeLengths, apex: int) -> GramMatrix:
    """E = g^2 / 2, whose apex Gram matrix q_ij = E_ia + E_ja - E_ij is at ``apex``.

    q is (g_ia^2 + g_ja^2 - g_ij^2) / 2 bit for bit wherever the halves are normal
    (halving is exact there); only squares below twice the smallest normal, edges
    under about 2.1e-154, round when halved.  Rows and columns run over the
    non-apex vertices in ascending order.
    Raises GramOverflow when k * longest^2 overflows or shortest^2 is subnormal.
    """
    if not (SQRT_MIN <= e.shortest and e.longest * math.sqrt(e.num_vertices) <= SQRT_MAX):
        raise GramOverflow(
            f"squaring edges in [{e.shortest}, {e.longest}] overflows or underflows float64")
    return GramMatrix(SymMatrix._exact(0.5 * e.gamma ** 2), EUCLIDEAN, apex)


def curved_gram(e: EdgeLengths, c: CurvatureSpec) -> GramMatrix:
    """Unit-model E at the nonzero curvature c: its vertex Gram sign(kappa) - E carries c.

    The unit-model edges are g = sqrt(|kappa|) gamma; E_ij = 2 sin^2(g_ij / 2) for
    kappa > 0 and 2 sinh^2(g_ij / 2) for kappa < 0, one transcendental pass, so the
    Gram diagonal is exactly sign(kappa).  GramOverflow if a g_ij is infinite, below
    SQRT_MIN (E underflows there, as at kappa = 0), or past COSH_ARG_MAX at kappa < 0.
    """
    if c.kappa == 0:
        raise WrongModel("curvature 0 has no full vertex Gram; use euclidean_gram")
    longest = e.longest * c.scale
    if not (SQRT_MIN <= e.shortest * c.scale and longest < math.inf):
        raise GramOverflow(f"the unit-model rescale of edges in [{e.shortest}, {e.longest}] "
                           f"at kappa={c.kappa} overflows or underflows float64")
    if c.kappa < 0 and longest > COSH_ARG_MAX:
        raise GramOverflow(f"hyperbolic edge {e.longest} at kappa={c.kappa} overflows the Gram "
                           f"matrix: unit-model edge {longest} > {COSH_ARG_MAX}")
    half = (np.sin if c.kappa > 0 else np.sinh)(e.gamma * c.scale * 0.5)
    half *= half + half
    return GramMatrix(SymMatrix._exact(half), c)


def model_gram(e: EdgeLengths, c: CurvatureSpec) -> GramMatrix:
    """Apex Gram matrix at the last vertex for kappa = 0, else ``curved_gram``.

    The edge set keeps the last one built: a call at its curvature returns it,
    and a call at another curvature builds one and keeps that in its place.
    """
    q = e._gram
    if q is None or q.curvature.kappa != c.kappa:
        q = euclidean_gram(e, apex=e.num_vertices) if c.kappa == 0 else curved_gram(e, c)
        object.__setattr__(e, "_gram", q)
    return q


def _unit_form(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """x^T Q y on the unit model, read from E as sign(kappa) s_x s_y - x^T E y (s: sums)."""
    if q.curvature.kappa == 0:
        raise WrongModel("hull inner product needs a full curved Gram matrix")
    e = q.half_chords.data
    if x.coords.size != e.shape[0] or y.coords.size != e.shape[0]:
        raise ValueError("coordinate length does not match Gram dimension")
    sx, sy = sum(x.coords.tolist()), sum(y.coords.tolist())  # a numpy reduce costs more
    return q.curvature.sign * sx * sy - float(x.coords @ e @ y.coords)


@np.errstate(over="ignore", invalid="ignore")  # a value past float64 raises GramOverflow
def hull_inner_product(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Inner product <x, y> of two hull points in the model of curvature kappa.

    That is x^T Q y / |kappa| on the unit-model Gram Q, read from E (GramOverflow if not finite).
    """
    value = _unit_form(q, x, y) / abs(q.curvature.kappa)
    if not math.isfinite(value):
        raise GramOverflow(f"<x, y> = {value} at kappa={q.curvature.kappa} leaves float64")
    return value


@np.errstate(over="ignore", invalid="ignore")  # a form past float64 raises GramOverflow
def lift_to_model(q: GramMatrix, x: BarycentricPoint) -> BarycentricPoint:
    """Radial projection of a hull point onto the model surface <p, p> = 1/kappa.

    Returns hull-frame coefficients (they no longer sum to 1).  They are
    x / sqrt|x^T Q x| on the unit-model vertex Gram Q, read from E, the same at
    every kappa of one sign.  x^T Q x must be finite (else GramOverflow) and
    have the sign of kappa: timelike on the hyperboloid, positive on the sphere.
    """
    s = _unit_form(q, x, x)
    sign = q.curvature.sign
    if not (sign * s > 0 or math.isnan(s)):  # a NaN form overflowed: no side
        raise _MODEL[sign][1](f"<x,x> = {s} is not {'negative' if sign < 0 else 'positive'}")
    if not math.isfinite(s):
        raise GramOverflow(f"<x,x> = {s} leaves float64")
    return BarycentricPoint._wrap(x.coords * (1.0 / math.sqrt(abs(s))))
