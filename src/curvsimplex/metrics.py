"""Distances between barycentric points: one chord kernel for every curvature.

A distance is measured on the unit model as the arc over the chord between
the two points.  At kappa = 0 the chord is the apex Gram quadratic form.  At
kappa != 0 the points are lifted radially onto the unit model and the chord is
formed from <x,x>, <y,y> and <x-y, x-y> alone, so short distances keep their
digits and no product of hull norms is formed; the arc is 2 asinh(chord / 2)
on the hyperboloid and 2 asin(chord / 2) on the sphere, and the length at the
Gram matrix's curvature is that arc over sqrt(|kappa|).  A squared chord that
rounds at most ``SQUARED_DISTANCE_FLOOR`` outside its range is clamped into
it; beyond that the input is rejected.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    _MODEL,
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    GramMatrix,
    _vertex_gram_data,
    model_gram,
)
from .errors import GramOverflow
from .symmat import _other_vertices

# How far outside its range a squared chord may round and still be clamped into it.
SQUARED_DISTANCE_FLOOR = 1e-9


@np.errstate(over="ignore", invalid="ignore")  # a form past float64 raises GramOverflow
def _geodesic(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Distance of x and y at q's curvature: the unit-model arc over sqrt(|kappa|).

    With s = <x,x>, n = sqrt|s| and sign * s > 0 for both points, the squared
    chord between the lifts x/n_x and y/n_y is
    (<x-y, x-y> - sign * ((s_x - s_y) / (n_x + n_y))^2) / (n_x n_y),
    which lies in [0, 4] on the sphere and in [0, inf) otherwise.
    """
    kappa = q.curvature.kappa
    sign = math.copysign(1.0, kappa) if kappa else 0.0
    if sign == 0:
        m = q.matrix.data
        k = m.shape[0] + 1
        if x.coords.size != k or y.coords.size != k:
            raise ValueError("coordinate length does not match the simplex")
        diff = (x.coords - y.coords).take(_other_vertices(k, q.apex))
        chord2 = float(diff @ m @ diff)
        if not math.isfinite(chord2):
            raise GramOverflow(f"quadratic form {chord2} leaves float64")
    else:
        z = np.array((x.coords, y.coords, x.coords - y.coords))
        sx, sy, delta2 = (z @ _vertex_gram_data(q, x, y) * z).sum(axis=1).tolist()
        # A NaN norm overflowed and has no side: it raises GramOverflow below.
        if not (sign * sx > 0 and sign * sy > 0) and not (math.isnan(sx) or math.isnan(sy)):
            side = "negative" if sign < 0 else "positive"
            raise _MODEL[sign][1](f"hull norms ({sx}, {sy}) must both be {side}")
        if not (math.isfinite(sx) and math.isfinite(sy) and math.isfinite(delta2)):
            raise GramOverflow(f"quadratic forms ({sx}, {sy}, {delta2}) leave float64")
        nx, ny = math.sqrt(abs(sx)), math.sqrt(abs(sy))
        chord2 = (delta2 - sign * ((sx - sy) / (nx + ny)) ** 2) / (nx * ny)
    top = 4.0 if sign > 0 else math.inf
    if not 0 <= chord2 <= top:
        if not -SQUARED_DISTANCE_FLOOR <= chord2 <= top + SQUARED_DISTANCE_FLOOR:
            raise _MODEL[sign][1](f"squared chord {chord2} outside [0, {top}]")
        chord2 = min(max(chord2, 0.0), top)
    if sign == 0:
        return math.sqrt(chord2)
    arc = 2.0 * (math.asin if sign > 0 else math.asinh)(math.sqrt(chord2) / 2.0)
    return arc / q.curvature.scale


def distance(e: EdgeLengths, c: CurvatureSpec, x: BarycentricPoint,
             y: BarycentricPoint) -> float:
    """Geodesic distance between x and y for any constant curvature.

    A squared chord (on the unit model) that rounds at most
    ``SQUARED_DISTANCE_FLOOR`` outside its range is clamped into it.  No
    realizability check runs (it would add an eigendecomposition to every
    call), so callers run ``check`` first: on edges it does not call
    Realizable the result is still a finite float or a ``GeometryError``, but
    it is no distance.  The Gram matrix is stored on a set with no entry.
    """
    return _geodesic(model_gram(e, c), x, y)
