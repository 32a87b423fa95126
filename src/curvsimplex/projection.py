"""Orthogonal projection of a vertex onto its opposite face, and volumes.

One ``project`` body, with one realizability guard, serves every curvature,
the unit models ``EUCLIDEAN``, ``HYPERBOLIC`` and ``SPHERICAL`` included.  Its
altitude is always finite, and its foot has a lift onto the model exactly when
kappa != 0.  Every foot reads the bordered matrix M that ``check`` classifies.  A
Euclidean foot comes from one solve y = M^-1 e_v at the projected vertex v, on M
scaled by a power of two: the foot is e_v - y / y_v and the altitude 1 / sqrt(y_v).
Curved feet come from the first-row cofactors of M, so they hold as kappa -> 0 and
agree at every curvature of one sign; the lift lies on the projected vertex's sheet
or hemisphere.  A Euclidean volume is sqrt(det G) / n!, the product of the diagonal
of the Cholesky factor of the apex Gram matrix G of the E that ``model_gram`` keeps,
and a face volume is the volume of the face's own edges.

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
    _MODEL,
    BARYCENTRIC_SUM_TOL,
    EUCLIDEAN,
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    curved_gram,
    lift_to_model,
    model_gram,
)
from .errors import (
    DegenerateDirection,
    EmbeddingInconsistency,
    GramOverflow,
    NotRealizableInput,
    OutsideLightCone,
    ProjectionDegenerate,
)
from .metrics import _geodesic
from .realizability import Verdict, _bordered, check
from .symmat import DEFAULT_TOL, Signature, SymMatrix, _other_vertices, _vertex

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
    """Foot, altitude and (no) lift from one solve y = M^-1 e_vertex on ``_bordered``'s M.

    At kappa = 0 the top-left block of M^-1 is the Gram matrix of the barycentric gradients
    (Fiedler 2011), so the altitude is 1 / sqrt(y_v) and the foot e_v - y / y_v (face sum 1).
    The solve runs on 2^-p M, p the binary exponent of the border s = max E rounded down to
    even, so M^-1 stays in range for edges near 1e-153; an exact power of two moves no other bit.
    """
    k = e.num_vertices
    m = _bordered(model_gram(e, EUCLIDEAN))
    p = 2 * (math.frexp(m[0, k])[1] // 2)
    unit = np.eye(1, k + 1, vertex - 1)[0]
    try:
        y = np.linalg.solve(np.ldexp(m, -p), unit)
    except np.linalg.LinAlgError as exc:
        raise ProjectionDegenerate("bordered matrix M is singular") from exc
    yv = float(y[vertex - 1])
    if not 0 < yv < math.inf:
        raise ProjectionDegenerate(
            f"(M^-1)_vv = {yv * 2.0 ** -p} at vertex {vertex} is not positive")
    face = _other_vertices(k, vertex)
    return _foot(k, face, y[face] / -yv), math.ldexp(1.0 / math.sqrt(yv), p // 2), None


def _foot(k: int, face: list[int], quotient: np.ndarray) -> BarycentricPoint:
    """The foot with coordinates ``quotient`` on ``face``, divided once, and 0 elsewhere.

    ProjectionDegenerate unless their Python ``sum`` is within
    ``BARYCENTRIC_SUM_TOL`` of 1 (a quotient can lose its unit sum to cancellation).
    """
    s = sum(quotient.tolist())
    if not abs(s - 1.0) <= BARYCENTRIC_SUM_TOL:
        raise ProjectionDegenerate(
            f"foot is not determined: barycentric coordinates sum to {s}, not 1")
    coords = np.zeros(k)
    coords[face] = quotient
    return BarycentricPoint._wrap(coords)


def euclidean_volume(e: EdgeLengths, tol: float = DEFAULT_TOL) -> float:
    """sqrt(det G) / n!: the Cholesky diagonal product of the apex Gram G at the last vertex.

    Degenerate (flat) edge sets have volume 0.0; GramOverflow if it leaves float64, and
    EmbeddingInconsistency if G has no Cholesky factor (a flat set Realizable at tol 0).
    """
    report = check(e, EUCLIDEAN, tol)
    if report.verdict is Verdict.NOT_REALIZABLE:
        raise NotRealizableInput(f"not a Euclidean edge set: {report.detail}")
    if report.verdict is Verdict.DEGENERATE:
        return 0.0
    try:  # M's inertia held at tol 0, but G need not be positive definite
        factor = np.linalg.cholesky(model_gram(e, EUCLIDEAN).matrix.data)
    except np.linalg.LinAlgError as exc:
        raise EmbeddingInconsistency("apex Gram matrix is not positive definite") from exc
    volume = math.prod(factor.diagonal().tolist()) / math.factorial(e.n)
    if not 0 < volume < math.inf:
        raise GramOverflow(f"volume of edges in [{e.shortest}, {e.longest}] "
                           "overflows or underflows float64")
    return volume


def euclidean_face_volume(e: EdgeLengths, vertex: int,
                          tol: float = DEFAULT_TOL) -> float:
    """Volume of the face opposite ``vertex``: ``euclidean_volume`` of its edges.

    The face of a 2-vertex simplex is a point: its apex Gram spectrum is
    empty, and its volume is 1.0 at every valid ``tol``.
    """
    k = e.num_vertices
    vertex = _vertex(vertex, k)
    if k == 2:
        Signature.of(np.empty(0), tol)  # rejects a bad tol, as every larger face does
        return 1.0
    return euclidean_volume(e.restricted(v for v in range(1, k + 1) if v != vertex), tol)


def _curved_foot(e: EdgeLengths, c: CurvatureSpec,
                 vertex: int) -> tuple[BarycentricPoint, float, BarycentricPoint]:
    """Foot, altitude and lift from the first-row cofactors of ``_bordered``'s M.

    With the projected vertex relabeled first, the Schur complement of M's corner is
    the unit-model vertex Gram Q, so M^-1 e_1 is Q^-1 e_1 on the k vertex rows, read
    from E with no entry near sigma that cancels as kappa -> 0.  The foot is
    alpha_i = C_1i / sum_j C_1j over i, j = 2..k, C_1i = (-1)^(i+1) M_1i (the border
    column stays).  The vertex projects onto the face's span at C_1i / -C_11, and C_11
    (the face's own bordered M) is negative, so the lift and the altitude are taken at
    alpha if sum_j C_1j > 0, else at -alpha (its mirror on the other sheet, or antipode).
    The cofactors of D M D, times d_i = 2^-floor((e_i - 1) / 2) with 2^(e_i - 1) <=
    max_j |m_ij| (exact powers of two), give C_1i, so long edges and tiny kappa stay in range.
    """
    k = e.num_vertices
    face = _other_vertices(k, vertex)
    m = _bordered(curved_gram(e._relabeled([vertex - 1, *face]), c))
    d = np.ldexp(1.0, -((np.frexp(np.abs(m).max(axis=1))[1] - 1) // 2))
    m *= d[:, None]
    m *= d
    m = SymMatrix._exact(m)
    signed = d[1:k] * [-m.minor(1, i) if i % 2 == 0 else m.minor(1, i) for i in range(2, k + 1)]
    denom = float(signed.sum())
    if abs(denom) < 1e-300 or not math.isfinite(denom):
        raise ProjectionDegenerate("signed first-row minors sum to zero")
    foot = _foot(k, face, signed / denom)
    point = foot if denom > 0 else BarycentricPoint._wrap(0.0 - foot.coords)  # keeps a +0.0
    q = curved_gram(e, c)
    try:  # a flat set checked at a tiny tol can leave noise minors here
        lift = lift_to_model(q, point)
        altitude = _geodesic(q, BarycentricPoint.vertex(vertex, k), point)
    except (OutsideLightCone, DegenerateDirection) as exc:
        raise ProjectionDegenerate(f"foot is not determined: {exc}") from exc
    return foot, altitude, lift


def project(e: EdgeLengths, c: CurvatureSpec, vertex: int,
            tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Project ``vertex`` orthogonally onto the face spanned by the others.

    The foot's barycentric coordinates are scale invariant, so curved feet come
    from the unit-model E carrying kappa, whose distances are lengths at kappa.
    """
    vertex = _vertex(vertex, e.num_vertices)
    report = check(e, c, tol)
    if report.verdict is not Verdict.REALIZABLE:
        model = "Euclidean" if c.kappa == 0 else _MODEL[c.sign][0]
        raise NotRealizableInput(f"not a {model} simplex: {report.detail}")
    foot, altitude, lift = _curved_foot(e, c, vertex) if c.kappa else _euclidean_foot(e, vertex)
    inside = bool((foot.coords >= -INSIDE_TOL).all())
    return ProjectionResult(foot=foot, altitude=altitude, inside_face=inside, foot_model=lift)
