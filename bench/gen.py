"""Seeded simplex generator and coordinate-space reference answers.

Every simplex starts as explicit points in the model space of curvature
kappa: points in Euclidean space (kappa = 0), on the upper sheet of the
hyperboloid <p, p> = 1/kappa (kappa < 0, Lorentz form diag(1, ..., 1, -1)),
or in a cap of the sphere of radius 1/sqrt(kappa) (kappa > 0).  They are a
regular simplex moved by normal noise, so every simplex is well shaped and
its verdict is never a matter of tolerance.  The library only ever sees the
edge matrix derived from the points; the reference answers here (distances,
feet, altitudes, volumes) are computed from the points themselves and never
call curvsimplex.
"""

from __future__ import annotations

import functools
import math

import numpy as np

KAPPAS = (0.0, -1.0, 1.0, -0.3, 0.3)

# Largest geodesic distance of a sphere-cap vertex from the cap centre, in
# the unit model: every edge stays below 2 * CAP_ANGLE < pi/2, the spherical
# realizability bound.
CAP_ANGLE = 0.7


def _form(kappa: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ambient bilinear form of the model (Lorentz for kappa < 0) on the last axis."""
    prod = u * v
    if kappa < 0:
        return prod[..., :-1].sum(axis=-1) - prod[..., -1]
    return prod.sum(axis=-1)


@functools.lru_cache(maxsize=None)
def _regular(n: int) -> np.ndarray:
    """Vertices of a regular n-simplex in R^n with circumradius 1, centred at 0."""
    centred = np.eye(n + 1) - 1.0 / (n + 1)
    coords = centred @ np.linalg.svd(centred)[2][:n].T
    coords /= np.linalg.norm(coords[0])
    coords.setflags(write=False)
    return coords


def _tangent(rng: np.random.Generator, n: int, radius: float, limit: float) -> np.ndarray:
    """A regular simplex of the given circumradius with every vertex moved at
    random by about a quarter of it; vertices beyond ``limit`` are drawn again."""
    base = _regular(n) * radius
    sigma = 0.25 * radius / math.sqrt(n)
    x = np.empty_like(base)
    todo = np.arange(n + 1)
    while todo.size:
        x[todo] = base[todo] + rng.standard_normal((todo.size, n)) * sigma
        todo = todo[np.linalg.norm(x[todo], axis=1) >= limit]
    return x


def points(rng: np.random.Generator, kappa: float, n: int) -> np.ndarray:
    """n + 1 random vertices of a well-shaped n-simplex in the model of kappa.

    The vertices are a perturbed regular simplex in the tangent space at the
    model's base point, carried onto the model by the exponential map.
    """
    if kappa == 0:
        return _tangent(rng, n, rng.uniform(0.5, 2.0), math.inf)
    if kappa < 0:
        x = _tangent(rng, n, rng.uniform(0.6, 1.4), math.inf)
    else:
        x = _tangent(rng, n, rng.uniform(0.3, 0.5), CAP_ANGLE)
    r = np.linalg.norm(x, axis=1)[:, None]
    if kappa < 0:
        unit = np.column_stack([np.sinh(r) * x / r, np.cosh(r)])
    else:
        unit = np.column_stack([np.cos(r), np.sin(r) * x / r])
    return unit / math.sqrt(abs(kappa))


def _geodesic(kappa: float, s: np.ndarray, sx, sy) -> np.ndarray:
    """Geodesic distance from form values <p,q>, <p,p>, <q,q> of hull points."""
    if kappa < 0:
        arg = -s / np.sqrt(sx * sy)
        return np.arccosh(np.maximum(arg, 1.0)) / math.sqrt(-kappa)
    arg = s / np.sqrt(sx * sy)
    return np.arccos(np.clip(arg, -1.0, 1.0)) / math.sqrt(kappa)


def edges(kappa: float, pts: np.ndarray) -> np.ndarray:
    """Exactly symmetric edge-length matrix of the vertices ``pts``."""
    k = pts.shape[0]
    iu = np.triu_indices(k, 1)
    p, q = pts[iu[0]], pts[iu[1]]
    if kappa == 0:
        d = np.linalg.norm(p - q, axis=1)
    else:
        d = _geodesic(kappa, _form(kappa, p, q), _form(kappa, p, p), _form(kappa, q, q))
    g = np.zeros((k, k))
    g[iu] = d
    return g + g.T


def inflate(rng: np.random.Generator, g: np.ndarray) -> np.ndarray:
    """Copy of ``g`` with one edge longer than the sum of two others.

    The triangle inequality fails, so no curvature realizes the result.
    """
    k = g.shape[0]
    i, j, m = rng.choice(k, size=3, replace=False)
    out = g.copy()
    out[i, j] = out[j, i] = (g[i, m] + g[m, j]) * rng.uniform(1.1, 1.5)
    return out


def distance(kappa: float, pts: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geodesic distances between barycentric points (rows of x and y)."""
    p, q = x @ pts, y @ pts
    if kappa == 0:
        return np.linalg.norm(p - q, axis=-1)
    return _geodesic(kappa, _form(kappa, p, q), _form(kappa, p, p), _form(kappa, q, q))


def foot(kappa: float, pts: np.ndarray, vertex: int):
    """Foot of the perpendicular from ``vertex`` (1-based) onto its opposite face.

    Returns (barycentric foot with 0 at ``vertex``, altitude, model lift).
    Euclidean: least-squares projection onto the face's affine hull; the lift
    is None.  Curved: form-orthogonal projection p = sum beta_i v_i onto the
    linear span of the face vertices, which meets the model in the face's
    totally geodesic plane.  The barycentric foot is beta / sum(beta); when
    sum(beta) < 0 that hull point is the antipode of p, so no lift exists and
    the lift is None.
    """
    a = pts[vertex - 1]
    face = np.delete(pts, vertex - 1, axis=0)
    if kappa == 0:
        basis = (face[1:] - face[0]).T
        t = np.linalg.lstsq(basis, a - face[0], rcond=None)[0]
        alpha = np.concatenate(([1.0 - t.sum()], t))
        return np.insert(alpha, vertex - 1, 0.0), float(np.linalg.norm(a - alpha @ face)), None
    metric = np.ones(face.shape[1])
    if kappa < 0:
        metric[-1] = -1.0
    beta = np.linalg.solve((face * metric) @ face.T, (face * metric) @ a)
    p = beta @ face
    sp = float(_form(kappa, p, p))
    altitude = float(_geodesic(kappa, _form(kappa, a, p), _form(kappa, a, a), sp))
    total = float(beta.sum())
    alpha = beta / total
    lift = None
    if total > 0:
        lift = np.insert(beta / math.sqrt(abs(kappa) * abs(sp)), vertex - 1, 0.0)
    return np.insert(alpha, vertex - 1, 0.0), altitude, lift


def volume(pts: np.ndarray) -> float:
    """Euclidean content of the simplex spanned by the rows of ``pts``."""
    basis = pts[1:] - pts[0]
    dim = basis.shape[0]
    return math.sqrt(max(float(np.linalg.det(basis @ basis.T)), 0.0)) / math.factorial(dim)


def barycentric(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """m random points inside a simplex with k vertices, as coordinate rows."""
    return rng.dirichlet(np.full(k, 0.7), size=m)
