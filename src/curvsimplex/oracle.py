"""Embedding oracle: explicit model-space coordinates and brute-force checks.

Everything here recomputes geometric quantities the slow, coordinate-based
way: vertices are placed in Euclidean, Minkowski, or spherical model space by
factoring the Gram matrix, distances come straight from the model metric, and
projections from numerical minimization over the face.  The rest of the
library never depends on this module; the test suite uses it as an
independent second route to every quantity.  scipy is used only by
``brute_project`` and is imported on its first call, so importing this
module (and with it the package and the CLI) does not load scipy.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain import BarycentricPoint, CurvatureSpec, EdgeLengths
from .errors import (
    DegenerateDirection,
    EmbeddingInconsistency,
    NotRealizableInput,
    OutsideLightCone,
)
from .realizability import Verdict, check
from .symmat import DEFAULT_TOL, _vertex

GRID_POINT_BUDGET = 20_000


class ModelSpace(enum.Enum):
    EUCLIDEAN = "euclidean"
    MINKOWSKI = "minkowski"
    SPHERE = "sphere"


@dataclass(frozen=True)
class Embedding:
    """Explicit vertex coordinates in a model space.

    ``vertices`` is a (num_vertices, ambient_dim) array.  For the Minkowski
    model the bilinear form is diag(1, ..., 1, -1) and every vertex sits on
    the upper sheet; for the sphere model vertices have norm 1/sqrt(kappa).
    """

    model: ModelSpace
    vertices: np.ndarray
    curvature: CurvatureSpec

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    def form(self, u: np.ndarray, v: np.ndarray) -> float:
        """Ambient bilinear form applied to coordinate vectors."""
        if self.model is ModelSpace.MINKOWSKI:
            return float(u[:-1] @ v[:-1] - u[-1] * v[-1])
        return float(u @ v)


def _cholesky(q: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise EmbeddingInconsistency("Cholesky failed on a Realizable input") from exc


def _embed_minkowski(q: np.ndarray) -> np.ndarray:
    """Vertex coordinates of the unit-model vertex Gram matrix q of signature (n, 1)."""
    eigvals, eigvecs = np.linalg.eigh(q)
    if np.sum(eigvals < 0) != 1:
        raise EmbeddingInconsistency("expected exactly one negative eigenvalue")
    # Spatial axes first, time axis last, so the form is diag(1, ..., 1, -1).
    order = np.argsort(-eigvals)
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    verts = eigvecs * np.sqrt(np.abs(eigvals))[None, :]
    verts[:, -1] *= np.sign(verts[0, -1])  # vertex 1 onto the upper sheet
    if not np.all(verts[:, -1] > 0):
        raise EmbeddingInconsistency("vertices landed on both hyperboloid sheets")
    return verts


def embed(e: EdgeLengths, c: CurvatureSpec, tol: float = DEFAULT_TOL) -> Embedding:
    """Place the vertices in the model space of curvature ``c``.

    Euclidean vertices come from a Cholesky factor of the classical apex Gram
    matrix (gamma_ia^2 + gamma_ja^2 - gamma_ij^2) / 2, with the last vertex a as
    the apex at the origin.  Curved ones come from the classical unit-model Gram
    matrix cos(g) or -cosh(g) of the edges g = sqrt(|kappa|) gamma, divided by
    sqrt(|kappa|).  Both matrices are built here, not by the library's builders,
    which derive theirs from the half squared chords.  The configuration is only
    determined up to model isometry; consumers should rely on pairwise distances
    and inner products, not positions.
    """
    report = check(e, c, tol)
    if report.verdict is not Verdict.REALIZABLE:
        raise NotRealizableInput(f"cannot embed: {report.detail}")
    if c.kappa == 0:
        sq = e.gamma ** 2
        q = (sq[:-1, -1, None] + sq[None, :-1, -1] - sq[:-1, :-1]) / 2
        return Embedding(ModelSpace.EUCLIDEAN, np.vstack([_cholesky(q), np.zeros(q.shape[0])]), c)
    g = e.gamma * c.scale
    q = np.cos(g) if c.kappa > 0 else -np.cosh(g)
    if c.kappa < 0:
        return Embedding(ModelSpace.MINKOWSKI, _embed_minkowski(q) / c.scale, c)
    return Embedding(ModelSpace.SPHERE, _cholesky(q) / c.scale, c)


def _hull_point(emb: Embedding, x: BarycentricPoint) -> np.ndarray:
    if x.coords.size != emb.num_vertices:
        raise ValueError("coordinate length does not match the embedding")
    return x.coords @ emb.vertices


def _model_distance(emb: Embedding, px: np.ndarray, py: np.ndarray) -> float:
    """Geodesic distance between hull points, lifted to the model surface.

    Curved distances are measured on the unit model's coordinates (px and py
    times sqrt|kappa|) and divided by sqrt|kappa|: squaring coordinates of
    size 1/sqrt|kappa| overflows at tiny |kappa|.
    """
    if emb.model is ModelSpace.EUCLIDEAN:
        return float(np.linalg.norm(px - py))
    scale = emb.curvature.scale
    px, py = px * scale, py * scale
    sx = emb.form(px, px)
    sy = emb.form(py, py)
    sxy = emb.form(px, py)
    if emb.model is ModelSpace.MINKOWSKI:
        if sx >= 0 or sy >= 0:
            raise OutsideLightCone("hull point outside the light cone")
        arg = max(-sxy / math.sqrt(sx * sy), 1.0)
        return math.acosh(arg) / scale
    if sx <= 0 or sy <= 0:
        raise DegenerateDirection("hull point with non-positive norm")
    arg = min(max(sxy / math.sqrt(sx * sy), -1.0), 1.0)
    return math.acos(arg) / scale


def brute_distance(emb: Embedding, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Distance recomputed directly from explicit coordinates."""
    return _model_distance(emb, _hull_point(emb, x), _hull_point(emb, y))


def _simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All barycentric grid points with coordinates multiples of 1/resolution.

    Stars and bars: each choice of dim - 1 bar positions among resolution + dim - 1
    slots is one point, whose coordinates count the stars between the bars.
    Combinations come in lexicographic order, and so do the points.
    """
    slots = resolution + dim - 1
    pts = [[b - a - 1 for a, b in zip((-1, *bars), (*bars, slots))]
           for bars in itertools.combinations(range(slots), dim - 1)]
    return np.array(pts, dtype=float) / resolution


def _grid_resolution(dim: int) -> int:
    """Largest resolution <= 64 whose grid stays within the point budget."""
    res = 64
    while res > 2 and math.comb(res + dim - 1, dim - 1) > GRID_POINT_BUDGET:
        res //= 2
    return res


def brute_project(emb: Embedding, vertex: int) -> BarycentricPoint:
    """Foot of the perpendicular found by direct minimization over the face.

    Deterministic: a fixed barycentric grid pick of the face, then a
    Nelder-Mead polish of the model distance with negative coordinates
    penalized.  Serves as ground truth for the closed-form projections.
    """
    k = emb.num_vertices
    vertex = _vertex(vertex, k)
    face = [i for i in range(k) if i != vertex - 1]
    apex = emb.vertices[vertex - 1]
    face_verts = emb.vertices[face]
    m = len(face)

    def objective_full(alpha: np.ndarray) -> float:
        return _model_distance(emb, apex, alpha @ face_verts)

    grid = _simplex_grid(m, _grid_resolution(m))
    values = [objective_full(a) for a in grid]
    best = grid[int(np.argmin(values))]

    def objective_free(free: np.ndarray) -> float:
        alpha = np.append(free, 1.0 - free.sum())
        if np.min(alpha) < -1e-9:
            return 1e6 - np.min(alpha)
        return objective_full(alpha)

    if m > 1:
        # Imported here so that importing curvsimplex never loads scipy.
        from scipy.optimize import minimize

        res = minimize(objective_free, best[:-1], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-15,
                                "maxiter": 20_000, "maxfev": 20_000})
        alpha = np.append(res.x, 1.0 - res.x.sum())
    else:
        alpha = np.array([1.0])
    coords = np.insert(alpha, vertex - 1, 0.0)
    return BarycentricPoint(coords)


def edge_lengths_of(emb: Embedding) -> EdgeLengths:
    """Pairwise model distances of the embedded vertices, as an edge set."""
    k = emb.num_vertices
    g = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            g[i, j] = g[j, i] = _model_distance(emb, emb.vertices[i], emb.vertices[j])
    return EdgeLengths(g)
