"""Distances between barycentric points: one chord formula for every curvature.

A distance is the arc over the chord between the radial lifts of the two
points on the unit model, over sqrt(|kappa|).  The chord is formed from the
Gram matrix's half squared chords E alone (Blumenthal, *Theory and
Applications of Distance Geometry*, 1953, ch. IV) the same way at every
kappa, with no 1/kappa term that must cancel: so the distance is continuous
through kappa = 0, and short unit-model edges keep their digits.  A squared
chord that rounds at most ``SQUARED_DISTANCE_FLOOR`` outside its range is
clamped into it; beyond that the input is rejected.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import _MODEL, BarycentricPoint, CurvatureSpec, EdgeLengths, GramMatrix, model_gram
from .errors import GramOverflow

# How far outside its range a squared chord may round and still be clamped into it.
SQUARED_DISTANCE_FLOOR = 1e-9


@np.errstate(over="ignore", invalid="ignore")  # a form past float64 raises GramOverflow
def _geodesic(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """Distance of x and y at q's curvature: the unit-model arc over sqrt(|kappa|).

    For z = x, y and d = x - y let h_z = z^T E z and s_z = sum(z), with
    sigma = sign(kappa), A = s_x^2 - sigma h_x and B = s_y^2 - sigma h_y (so
    <x,x> = sigma A on the unit model).  Both points lie in the model when A > 0
    and B > 0, and the squared chord between their lifts, in [0, 4] on the
    sphere and [0, inf) otherwise, is (sigma (s_d^2 - (sqrt A - sqrt B)^2) - h_d) / sqrt(AB).
    s_d is 0 for barycentric pairs, up to rounding, and 2 from a vertex to a
    mirrored foot.  The bracket is 2 (|s_x s_y| - s_x s_y), which is 0 unless
    the sums differ in sign, minus mu (2 (|s_x| - |s_y|) + mu), with mu = m_x - m_y
    and m_z = sqrt A_z - |s_z| = -sigma h_z / (sqrt A_z + |s_z|): so sums an ulp
    apart leave no residue beside h_d as kappa -> 0.  The arc is the chord at
    kappa = 0, else 2 asinh (hyperboloid) or 2 asin (sphere) of chord / 2.
    """
    e = q.half_chords.data
    if x.coords.size != e.shape[0] or y.coords.size != e.shape[0]:
        raise ValueError("coordinate length does not match the simplex")
    z = np.array((x.coords, y.coords, x.coords - y.coords))
    hx, hy, hd = np.vecdot(z @ e, z).tolist()
    sx, sy = sum(x.coords.tolist()), sum(y.coords.tolist())  # a numpy reduce costs more
    sign = q.curvature.sign
    a, b = sx * sx - sign * hx, sy * sy - sign * hy
    if not (a > 0 and b > 0) and not (math.isnan(a) or math.isnan(b)):  # NaN: GramOverflow below
        side, norm = ("negative" if sign < 0 else "positive"), sign or 1.0  # <z,z> = sigma A
        raise _MODEL[sign][1](f"hull norms ({norm * a}, {norm * b}) must both be {side}")
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(hd)):
        raise GramOverflow(f"quadratic forms ({hx}, {hy}, {hd}) leave float64")
    ax, ay, ra, rb = abs(sx), abs(sy), math.sqrt(a), math.sqrt(b)
    mu = sign * (hy / (rb + ay) - hx / (ra + ax))
    bracket = 2.0 * (abs(sx * sy) - sx * sy) - mu * (2.0 * (ax - ay) + mu)
    chord2 = (sign * bracket - hd) / (ra * rb)
    top = 4.0 if sign > 0 else math.inf
    if not 0 < chord2 <= top:  # a zero chord takes the clamp too, which returns +0.0
        if not -SQUARED_DISTANCE_FLOOR <= chord2 <= top + SQUARED_DISTANCE_FLOOR:
            raise _MODEL[sign][1](f"squared chord {chord2} outside [0, {top}]")
        chord2 = min(max(0.0, chord2), top)
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
    it is no distance.  The Gram matrix comes from ``model_gram``, which keeps it on ``e``.
    """
    return _geodesic(model_gram(e, c), x, y)
