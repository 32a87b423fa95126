"""Orthogonal projection of a vertex onto its opposite face, and volumes.

One ``project`` body, with one realizability guard, serves every curvature;
the per-model ``*_project`` functions are its unit-curvature cases.
Euclidean feet come from signed-minor row sums of the apex Gram matrix; the
signed-minor total doubles as the determinant of the face Gram matrix, which
gives the altitude and the face volume for free.  Curved feet come from the
first-row minors of the unit-model vertex Gram matrix (``unit_model``).

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
    unit_model,
)
from .errors import (
    DegenerateDirection,
    NotRealizableInput,
    OutsideLightCone,
    ProjectionDegenerate,
)
from .metrics import hyperbolic_distance, spherical_distance
from .realizability import Verdict, check, check_euclidean
from .symmat import DEFAULT_TOL

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


def _cofactor_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix of signed minors (-1)^(i+j) M_ij for an invertible matrix."""
    det = np.linalg.det(m)
    return det * np.linalg.inv(m).T


def _signed_minor_rowsums(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Row sums of (-1)^(i+j) M_ij and their total."""
    cof = _cofactor_matrix(m)
    rows = cof.sum(axis=1)
    return rows, float(rows.sum())


def _euclidean_foot(e: EdgeLengths, vertex: int) -> tuple[np.ndarray, float]:
    """Foot coordinates and altitude from the apex Gram matrix at ``vertex``.

    Coordinates of the foot are signed-minor row sums of the apex Gram matrix
    built at the projected vertex, normalized by their total (which equals
    the determinant of the face Gram matrix).  The altitude is
    sqrt(det(Q) / det(Q_face)).
    """
    m = euclidean_gram(e, apex=vertex).matrix.data
    rows, total = _signed_minor_rowsums(m)
    if total <= 0:
        raise ProjectionDegenerate(f"face Gram determinant {total} is not positive")
    coords = np.insert(rows / total, vertex - 1, 0.0)
    return coords, math.sqrt(max(float(np.linalg.det(m)) / total, 0.0))


def euclidean_volume(e: EdgeLengths, tol: float = DEFAULT_TOL) -> float:
    """n-dimensional volume sqrt(det(Q)) / n! (zero for flat configurations)."""
    report = check_euclidean(e, tol)
    if report.verdict is Verdict.NOT_REALIZABLE:
        raise NotRealizableInput(f"not a Euclidean edge set: {report.detail}")
    q = euclidean_gram(e, apex=e.num_vertices)
    det = q.matrix.determinant()
    scale = max(1.0, float(np.max(np.abs(q.matrix.data))) ** e.n)
    if det < 0:
        if det < -tol * scale:
            raise NotRealizableInput(f"negative Gram determinant {det}")
        det = 0.0
    return math.sqrt(det) / math.factorial(e.n)


def euclidean_face_volume(e: EdgeLengths, vertex: int,
                          tol: float = DEFAULT_TOL) -> float:
    """Volume of the face opposite ``vertex``: sqrt of the signed-minor sum.

    Uses the identity that the signed-minor sum of the apex Gram matrix at
    ``vertex`` equals the determinant of the face's own Gram matrix, so only
    one matrix is built unless that apex Gram is singular (a flat simplex),
    where the face's own Gram determinant is taken instead.
    """
    q = euclidean_gram(e, apex=vertex)
    try:
        _, total = _signed_minor_rowsums(q.matrix.data)
    except np.linalg.LinAlgError:
        face = e.restricted(v for v in range(1, e.num_vertices + 1) if v != vertex)
        total = euclidean_gram(face, apex=face.num_vertices).matrix.determinant()
    scale = max(1.0, float(np.max(np.abs(q.matrix.data))) ** (e.n - 1))
    if total < 0:
        if total < -tol * scale:
            raise NotRealizableInput(f"negative face Gram determinant {total}")
        total = 0.0
    return math.sqrt(total) / math.factorial(e.n - 1)


def _curved_foot(e: EdgeLengths, c: CurvatureSpec, vertex: int) -> BarycentricPoint:
    """First-row-minor foot formula on the full vertex Gram matrix.

    With the projected vertex relabeled first, the face coordinates are
    alpha_i = (-1)^(i+1) M_1i / sum_j (-1)^(1+j) M_1j over i, j >= 2, where
    M_1i are the first-row minors of the vertex Gram matrix.
    """
    k = e.num_vertices
    order = [vertex] + [v for v in range(1, k + 1) if v != vertex]
    q = curved_gram(e.permuted(order), c).matrix
    minors = np.array([q.minor(1, i) for i in range(2, k + 1)])
    signs = np.array([(-1.0) ** (i + 1) for i in range(2, k + 1)])
    signed = signs * minors
    denom = float(signed.sum())
    if abs(denom) < 1e-300 or not math.isfinite(denom):
        raise ProjectionDegenerate("signed first-row minors sum to zero")
    alpha = signed / denom
    coords = np.insert(alpha, vertex - 1, 0.0)
    return BarycentricPoint(coords)


def project(e: EdgeLengths, c: CurvatureSpec, vertex: int,
            tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project ``vertex`` orthogonally onto the face spanned by the others.

    The foot's barycentric coordinates are scale invariant, so everything is
    computed on the unit model; the altitude is divided back by sqrt(|kappa|).
    """
    unit, unit_c = unit_model(e, c)
    report = check(unit, unit_c, tol)
    if report.verdict is not Verdict.REALIZABLE:
        model = "Euclidean" if c.kappa == 0 else "hyperbolic" if c.kappa < 0 else "spherical"
        raise NotRealizableInput(f"not a {model} simplex: {report.detail}")
    if c.kappa == 0:
        coords, altitude = _euclidean_foot(e, vertex)
        return ProjectionResult(foot=BarycentricPoint(coords), altitude=altitude,
                                inside_face=bool(np.all(coords >= -INSIDE_TOL)))
    foot = _curved_foot(unit, unit_c, vertex)
    q = curved_gram(unit, unit_c)
    inside = bool(np.all(foot.coords >= -INSIDE_TOL))
    apex_point = BarycentricPoint.vertex(vertex, e.num_vertices)
    dist_fn = hyperbolic_distance if c.kappa < 0 else spherical_distance
    try:
        foot_model = lift_to_model(q, foot)
        altitude = dist_fn(q, apex_point, foot) / c.scale
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


def project_onto_subface(e: EdgeLengths, c: CurvatureSpec, vertex: int, face,
                         tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Convenience wrapper: project onto a lower-dimensional sub-simplex.

    Restricts the simplex to ``vertex`` plus the face vertices and projects
    there; the returned coordinates refer to the restricted vertex set in
    ascending original order.
    """
    face = sorted(set(face))
    if vertex in face:
        raise ValueError("vertex must not belong to the target face")
    keep = sorted(face + [vertex])
    sub = e.restricted(keep)
    return project(sub, c, keep.index(vertex) + 1, tol)
