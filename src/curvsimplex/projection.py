"""Orthogonal projection of a vertex onto its opposite face, and volumes.

One ``project`` body, with one realizability guard, serves every curvature;
the per-model ``*_project`` functions are its unit-curvature cases.  Its
altitude is always finite, and its foot has a lift onto the model exactly
when kappa != 0.  A Euclidean foot comes from one solve w = m^-1 1 on the apex
Gram matrix m at the projected vertex: the foot is w / (1^T w) and the
altitude 1 / sqrt(1^T w).  A Euclidean volume is prod sqrt(lambda) / n! over
the apex Gram eigenvalues that its realizability report already holds, and a
face volume is the volume of the face's own edges.  Curved feet come from the
first-row minors of the vertex Gram matrix, which ``curved_gram`` builds on
the unit model; barycentric coordinates are the same at every curvature of
one sign.  The lift lies on the projected vertex's sheet or hemisphere.

No curved foot is projected inside the convex hull of the vertices: on the
hyperboloid the induced form there can fail to be positive definite, and on
the sphere the radial lift of the in-hull Euclidean foot is generally not the
geodesic minimizer (the minor formula is, as the brute-force oracle confirms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL,
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    curved_gram,
    euclidean_gram,
    lift_to_model,
)
from .errors import GramOverflow, NotRealizableInput, ProjectionDegenerate
from .metrics import SQUARED_DISTANCE_FLOOR, _geodesic
from .realizability import Verdict, check, check_euclidean
from .symmat import DEFAULT_TOL, _other_vertices

# A foot counts as inside its face when every coordinate is >= -INSIDE_TOL.
INSIDE_TOL = 1e-12


@dataclass(frozen=True)
class ProjectionResult:
    """Foot of the perpendicular from a vertex to its opposite face.

    ``foot`` has coordinate 0 at the projected vertex and ``altitude`` is
    always finite.  ``foot_model`` is the lift of the foot onto the model
    surface, on the projected vertex's sheet or hemisphere; it is None exactly
    at kappa = 0.
    """

    foot: BarycentricPoint
    altitude: float
    inside_face: bool
    foot_model: BarycentricPoint | None = None


def _euclidean_foot(e: EdgeLengths, vertex: int) -> tuple[BarycentricPoint, float, None]:
    """Foot, altitude and (no) lift from the apex Gram matrix m at ``vertex``.

    The foot h satisfies <p_i, h> = |h|^2 for every face vertex p_i, so its
    coordinates are w / (1^T w) with w = m^-1 1, and |h|^2 = 1 / (1^T w).
    """
    m = euclidean_gram(e, apex=vertex).matrix.data
    w = np.linalg.solve(m, np.ones(e.n))
    total = float(w.sum())
    if not 0 < total < math.inf:
        raise ProjectionDegenerate(f"1^T m^-1 1 = {total} is not positive")
    coords = np.zeros(e.num_vertices)
    coords[_other_vertices(e.num_vertices, vertex)] = w / total
    return BarycentricPoint(coords), 1.0 / math.sqrt(total), None


def euclidean_volume(e: EdgeLengths, tol: float = DEFAULT_TOL) -> float:
    """prod sqrt(lambda) / n! over the apex Gram eigenvalues ``check_euclidean`` classified.

    Degenerate (flat) edge sets have volume 0.0; GramOverflow if it leaves float64.
    """
    report = check_euclidean(e, tol)
    if report.verdict is Verdict.NOT_REALIZABLE:
        raise NotRealizableInput(f"not a Euclidean edge set: {report.detail}")
    if report.verdict is Verdict.DEGENERATE:
        return 0.0
    volume = math.prod(np.sqrt(report.eigenvalues).tolist()) / math.factorial(e.n)
    if not 0 < volume < math.inf:
        raise GramOverflow(f"volume of edges in [{e.shortest}, {e.longest}] "
                           "overflows or underflows float64")
    return volume


def euclidean_face_volume(e: EdgeLengths, vertex: int,
                          tol: float = DEFAULT_TOL) -> float:
    """Volume of the face opposite ``vertex``: ``euclidean_volume`` of its edges.

    The face of a 2-vertex simplex is a point, of volume 1.0.
    """
    k = e.num_vertices
    if not 1 <= vertex <= k:
        raise IndexError(f"vertex {vertex} out of range 1..{k}")
    if k == 2:
        return 1.0
    return euclidean_volume(e.restricted(v for v in range(1, k + 1) if v != vertex), tol)


def _curved_foot(e: EdgeLengths, c: CurvatureSpec,
                 vertex: int) -> tuple[BarycentricPoint, float, BarycentricPoint]:
    """First-row-minor foot formula on the full vertex Gram matrix.

    With the projected vertex relabeled first, the face coordinates are
    alpha_i = s_i / sum_j s_j with s_i = (-1)^(i+1) M_1i over i, j >= 2, where
    M_1i are the first-row minors of the vertex Gram matrix.  The vertex
    projects onto the face's span at -s / M_11, and M_11 has the sign of kappa,
    so the lift and the altitude are taken at alpha if -sign(kappa) sum_j s_j > 0
    and at -alpha (alpha's mirror on the other sheet, or antipode) otherwise.
    """
    k = e.num_vertices
    face = _other_vertices(k, vertex)
    q = curved_gram(e.permuted([vertex] + [i + 1 for i in face]), c).matrix
    signed = np.array([-q.minor(1, i) if i % 2 == 0 else q.minor(1, i)
                       for i in range(2, k + 1)])
    denom = float(signed.sum())
    if abs(denom) < 1e-300 or not math.isfinite(denom):
        raise ProjectionDegenerate("signed first-row minors sum to zero")
    coords = np.zeros(k)
    coords[face] = signed / denom
    foot = BarycentricPoint(coords)
    # Compare signs (kappa * denom underflows); 0.0 - coords keeps the vertex's +0.0.
    point = foot if (c.kappa < 0) == (denom > 0) else BarycentricPoint.hull(0.0 - foot.coords)
    q = curved_gram(e, c)
    lift = lift_to_model(q, point)
    apex = BarycentricPoint.vertex(vertex, k)
    return foot, _geodesic(q, apex, point, SQUARED_DISTANCE_FLOOR), lift


def project(e: EdgeLengths, c: CurvatureSpec, vertex: int,
            tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project ``vertex`` orthogonally onto the face spanned by the others.

    The foot's barycentric coordinates are scale invariant, so curved feet
    are computed on the unit-model Gram matrix carrying kappa, whose
    distances are already lengths at kappa.
    """
    k = e.num_vertices
    if not 1 <= vertex <= k:
        raise IndexError(f"vertex {vertex} out of range 1..{k}")
    report = check(e, c, tol)
    if report.verdict is not Verdict.REALIZABLE:
        model = "Euclidean" if c.kappa == 0 else "hyperbolic" if c.kappa < 0 else "spherical"
        raise NotRealizableInput(f"not a {model} simplex: {report.detail}")
    foot, altitude, lift = _curved_foot(e, c, vertex) if c.kappa else _euclidean_foot(e, vertex)
    inside = bool((foot.coords >= -INSIDE_TOL).all())
    return ProjectionResult(foot=foot, altitude=altitude, inside_face=inside, foot_model=lift)


def euclidean_project(e: EdgeLengths, vertex: int,
                      tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project ``vertex`` onto its opposite face in the Euclidean metric."""
    return project(e, EUCLIDEAN, vertex, tol)


def hyperbolic_project(e: EdgeLengths, vertex: int,
                       tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project ``vertex`` onto its opposite face in the hyperbolic metric."""
    return project(e, HYPERBOLIC, vertex, tol)


def spherical_project(e: EdgeLengths, vertex: int,
                      tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project ``vertex`` onto its opposite face in the spherical metric."""
    return project(e, SPHERICAL, vertex, tol)
