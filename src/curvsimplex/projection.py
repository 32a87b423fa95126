"""Orthogonal projection of a vertex onto its opposite face, and volumes.

One ``project`` body, with one realizability guard, serves every curvature;
the per-model ``*_project`` functions are its unit-curvature cases.
A Euclidean foot comes from one solve w = m^-1 1 on the apex Gram matrix m at
the projected vertex: the foot is w / (1^T w) and the altitude 1 / sqrt(1^T w).
A Euclidean volume is prod sqrt(lambda) / n! over the apex Gram eigenvalues that
its realizability report already holds, and a face volume is the volume of the
face's own edges.  Curved feet come from the first-row minors of the vertex
Gram matrix, which ``curved_gram`` builds on the unit model; barycentric
coordinates are the same at every curvature of one sign.

The hyperbolic foot must NOT be computed by projecting inside the convex hull
of the vertices: the induced form there can fail to be positive definite.  The
spherical foot is computed with the same first-row-minor formula on the cos
Gram matrix (the radial lift of the in-hull Euclidean foot is generally not
the geodesic minimizer; the minor formula is, as the brute-force oracle
confirms).
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
from .errors import (
    DegenerateDirection,
    GramOverflow,
    NotRealizableInput,
    OutsideLightCone,
    ProjectionDegenerate,
)
from .metrics import SQUARED_DISTANCE_FLOOR, _geodesic
from .realizability import Verdict, check, check_euclidean
from .symmat import DEFAULT_TOL, _other_vertices

# A foot counts as inside its face when every coordinate is >= -INSIDE_TOL.
INSIDE_TOL = 1e-12


@dataclass(frozen=True)
class ProjectionResult:
    """Foot of the perpendicular from a vertex to its opposite face.

    ``foot`` has coordinate 0 at the projected vertex.  For curved simplices
    ``foot_model`` is the lift of the foot onto the model surface.
    """

    foot: BarycentricPoint
    altitude: float
    inside_face: bool
    foot_model: BarycentricPoint | None = None


def _euclidean_foot(e: EdgeLengths, vertex: int) -> tuple[np.ndarray, float]:
    """Foot coordinates and altitude from the apex Gram matrix m at ``vertex``.

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
    return coords, 1.0 / math.sqrt(total)


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


def _curved_foot(e: EdgeLengths, c: CurvatureSpec, vertex: int) -> BarycentricPoint:
    """First-row-minor foot formula on the full vertex Gram matrix.

    With the projected vertex relabeled first, the face coordinates are
    alpha_i = (-1)^(i+1) M_1i / sum_j (-1)^(1+j) M_1j over i, j >= 2, where
    M_1i are the first-row minors of the vertex Gram matrix.
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
    return BarycentricPoint(coords)


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
    if c.kappa == 0:
        coords, altitude = _euclidean_foot(e, vertex)
        return ProjectionResult(foot=BarycentricPoint(coords), altitude=altitude,
                                inside_face=bool((coords >= -INSIDE_TOL).all()))
    foot = _curved_foot(e, c, vertex)
    q = curved_gram(e, c)
    inside = bool((foot.coords >= -INSIDE_TOL).all())
    apex_point = BarycentricPoint.vertex(vertex, k)
    try:
        foot_model = lift_to_model(q, foot)
        altitude = _geodesic(q, apex_point, foot, SQUARED_DISTANCE_FLOOR)
    except (OutsideLightCone, DegenerateDirection):
        # Feet far outside the face can leave the model's valid cone; they are
        # still reported (inside_face is False) but have no lift or altitude.
        if inside:
            raise
        foot_model = None
        altitude = math.nan
    return ProjectionResult(foot=foot, altitude=altitude, inside_face=inside,
                            foot_model=foot_model)


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
