"""Relations between results that need no reference implementation.

Distances, verdicts, feet and altitudes are continuous through kappa = 0, an
altitude is the distance from the vertex to its foot, a distance between two
points of a face is the distance on that face's own edges, relabelling the
vertices permutes the results, and scaling the edges by s at kappa / s^2
scales every length by s.
Near kappa = 0 the oracle is no reference (its cos/cosh Gram loses the digits
there), so these relations are the check.
"""

import numpy as np
import pytest

from curvsimplex import (EUCLIDEAN, BarycentricPoint, CurvatureSpec, EdgeLengths, check, distance,
                         project)

from conftest import random_euclidean, random_interior_point, random_simplex, well_shaped

KAPPAS = [0.0, 1.0, -1.0, 0.3, -0.3]


class TestContinuityThroughZero:
    """On a Euclidean simplex with longest edge L, |d(kappa) - d(0)| <= C |kappa| L^2 d(0).

    Both distances are rounded, so the bound also allows ROUNDING d(0): at
    |kappa| = 1e-300 that allowance is all that is left of it.
    """

    C = 1.0
    ROUNDING = 1e-14

    @pytest.mark.parametrize("kappa", [1e-300, -1e-300, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    def test_distance(self, kappa):
        rng = np.random.default_rng(47)
        c = CurvatureSpec(kappa)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            e = random_euclidean(rng, n)
            x, y = (BarycentricPoint(random_interior_point(rng, n + 1)) for _ in range(2))
            d0 = distance(e, EUCLIDEAN, x, y)
            bound = (self.C * abs(kappa) * e.longest ** 2 + self.ROUNDING) * d0
            assert abs(distance(e, c, x, y) - d0) <= bound

    @pytest.mark.parametrize("kappa", [1e-300, -1e-300])
    def test_coordinate_sums_an_ulp_apart(self, kappa):
        # The two points' sums differ by an ulp.  Left in the chord, a residue of
        # the sums' squares (about 1e-48) would swamp h_d, which is about 1e-300 here.
        e = EdgeLengths(1 - np.eye(4))
        x = BarycentricPoint.hull([0.10543665496545085, 0.45740769571377476,
                                   0.20900307639273202, 0.22815257292804225])
        y = BarycentricPoint.hull([0.033503824142309346, 0.13289774747351743,
                                   0.5132248252551757, 0.3203736031289975])
        d0 = distance(e, EUCLIDEAN, x, y)
        assert distance(e, CurvatureSpec(kappa), x, y) == pytest.approx(d0, rel=self.ROUNDING)


class TestVerdictFootAndAltitudeThroughZero:
    """On a well-shaped Euclidean simplex with longest edge L, at |kappa| L^2 = t
    the verdict is the one at kappa = 0, each foot coordinate moves by at most
    C_FOOT t, and each altitude by at most C_ALTITUDE t of itself.  The first-order
    terms read up to 0.04 (foot) and 0.045 (altitude); at t = 1e-7 rounding adds
    about as much again to the foot."""

    C_FOOT = 0.2
    C_ALTITUDE = 0.1

    @staticmethod
    def simplices(t):
        for n in (2, 3, 5, 10, 40):
            e = well_shaped(np.random.default_rng(5), n, EUCLIDEAN)
            yield e, CurvatureSpec(t / e.longest ** 2)

    def compare_verdicts(self, t):
        for e, c in self.simplices(t):
            assert check(e, c).verdict is check(e, EUCLIDEAN).verdict

    def compare_feet(self, t):
        for e, c in self.simplices(t):
            for v in range(1, e.num_vertices + 1):
                r0, r = project(e, EUCLIDEAN, v), project(e, c, v)
                assert np.abs(r.foot.coords - r0.foot.coords).max() <= self.C_FOOT * abs(t)
                assert abs(r.altitude - r0.altitude) <= self.C_ALTITUDE * abs(t) * r0.altitude

    @pytest.mark.parametrize("t", [1e-3, -1e-3, 1e-5, -1e-5, 1e-7, -1e-7])
    def test_small_kappa(self, t):
        self.compare_verdicts(t)
        self.compare_feet(t)

    @pytest.mark.parametrize("t", [1e-9, -1e-9, 1e-12, -1e-12])
    def test_tiny_kappa_verdict(self, t):
        self.compare_verdicts(t)

    @pytest.mark.parametrize("t", [1e-9, -1e-9, 1e-12, -1e-12])
    def test_tiny_kappa_foot_and_altitude(self, t):
        self.compare_feet(t)


class TestAltitudeIsADistance:
    """A foot inside its face is the nearest point of the face's span, so the
    altitude is the distance from the vertex to it."""

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_feet_inside_their_face(self, n, kappa):
        rng = np.random.default_rng(round(100 * (n + kappa)))
        c = CurvatureSpec(kappa)
        inside = 0
        for _ in range(4):
            e = well_shaped(rng, n, c)
            for v in range(1, n + 2):
                r = project(e, c, v)
                if r.inside_face:
                    inside += 1
                    vertex = BarycentricPoint.vertex(v, n + 1)
                    assert r.altitude == pytest.approx(distance(e, c, vertex, r.foot), rel=1e-12)
        assert inside > 0


class TestFaceRestriction:
    """Points supported on a face F are as far apart as on ``e.restricted(F)``."""

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_distance_on_a_face(self, n, kappa):
        rng = np.random.default_rng(round(100 * (n - kappa)))
        c = CurvatureSpec(kappa)
        for _ in range(10):
            e = random_simplex(rng, n, c)
            face = np.sort(rng.choice(n + 1, size=int(rng.integers(2, n + 1)), replace=False))
            sub = e.restricted(face + 1)
            x, y = random_interior_point(rng, face.size), random_interior_point(rng, face.size)
            on_face = []
            for p in (x, y):
                full = np.zeros(n + 1)
                full[face] = p
                on_face.append(BarycentricPoint(full))
            assert distance(e, c, *on_face) == pytest.approx(
                distance(sub, c, BarycentricPoint(x), BarycentricPoint(y)), rel=1e-12)


class TestRelabelling:
    """Relabelling the vertices permutes the foot and leaves altitudes and distances.

    Vertex k of ``e.permuted(order)`` is e's vertex order[k], so a point p of e
    has the coordinates p[order - 1] there.
    """

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_project_and_distance(self, n, kappa):
        rng = np.random.default_rng(round(100 * (n + 2 * kappa)) + 7)
        c = CurvatureSpec(kappa)
        for _ in range(6):
            e = well_shaped(rng, n, c)
            order = rng.permutation(n + 1) + 1
            relabelled = e.permuted(order)
            for v in range(1, n + 2):
                r = project(e, c, v)
                s = project(relabelled, c, int(np.flatnonzero(order == v)[0]) + 1)
                np.testing.assert_allclose(s.foot.coords, r.foot.coords[order - 1],
                                           rtol=0, atol=1e-12)
                assert s.altitude == pytest.approx(r.altitude, rel=1e-12)
                assert s.inside_face == r.inside_face
            x, y = random_interior_point(rng, n + 1), np.eye(n + 1)[rng.integers(n + 1)]
            assert distance(relabelled, c, BarycentricPoint(x[order - 1]),
                            BarycentricPoint(y[order - 1])) == pytest.approx(
                distance(e, c, BarycentricPoint(x), BarycentricPoint(y)), rel=1e-12)


class TestScaling:
    """``e.scaled(s)`` at kappa / s^2 is the same simplex s times larger: the verdict
    and the foot stay, and altitudes and distances are multiplied by s."""

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_verdict_foot_altitude_and_distance(self, n, kappa):
        rng = np.random.default_rng(round(100 * (n - 2 * kappa)) + 11)
        c = CurvatureSpec(kappa)
        for s in (1e-3, 0.5, 3.0, 1e3):
            cs = CurvatureSpec(kappa / s ** 2)
            e = well_shaped(rng, n, c)
            inflated = e.gamma.copy()
            inflated[0, 1] = inflated[1, 0] = 3 * e.longest
            for edges in (e, EdgeLengths(inflated)):
                assert check(edges.scaled(s), cs).verdict is check(edges, c).verdict
            scaled = e.scaled(s)
            for v in range(1, n + 2):
                r, rs = project(e, c, v), project(scaled, cs, v)
                np.testing.assert_allclose(rs.foot.coords, r.foot.coords, rtol=0, atol=1e-12)
                assert rs.altitude == pytest.approx(s * r.altitude, rel=1e-12)
                assert rs.inside_face == r.inside_face
            x, y = (BarycentricPoint(random_interior_point(rng, n + 1)) for _ in range(2))
            assert distance(scaled, cs, x, y) == pytest.approx(s * distance(e, c, x, y),
                                                               rel=1e-12)
