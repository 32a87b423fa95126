"""Distance tests: reference values, invariants, and oracle agreement."""

import math

import numpy as np
import pytest

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    EUCLIDEAN,
    HYPERBOLIC,
    GeometryError,
    GramMatrix,
    GramOverflow,
    NotRealizableInput,
    OutsideLightCone,
    SPHERICAL,
    Verdict,
    WrongModel,
    brute_distance,
    check,
    curved_gram,
    distance,
    embed,
    euclidean_distance,
    euclidean_gram,
    hull_inner_product,
    hyperbolic_distance,
    spherical_distance,
)

from conftest import (
    random_euclidean,
    random_hyperbolic,
    random_interior_point,
    random_simplex,
    random_spherical,
)


@pytest.fixture
def pq():
    return (BarycentricPoint([0.25] * 4),
            BarycentricPoint([1 / 3, 1 / 3, 1 / 3, 0.0]))


class TestEuclideanDistance:
    def test_reference_eleven_twelfths(self, table_simplex, pq):
        p, q = pq
        g = euclidean_gram(table_simplex, apex=1)
        assert euclidean_distance(g, p, q) == pytest.approx(11 / 12, abs=1e-12)

    def test_identical_points(self, table_simplex, pq):
        p, _ = pq
        g = euclidean_gram(table_simplex, apex=2)
        assert euclidean_distance(g, p, p) == 0.0

    def test_edge_recovery_any_apex(self, table_simplex):
        for apex in range(1, 5):
            g = euclidean_gram(table_simplex, apex)
            for i in range(1, 5):
                for j in range(1, 5):
                    x = BarycentricPoint.vertex(i, 4)
                    y = BarycentricPoint.vertex(j, 4)
                    assert euclidean_distance(g, x, y) == pytest.approx(
                        table_simplex.length(i, j), abs=1e-10)


class TestHyperbolicDistance:
    def test_reference_value(self, table_simplex, pq):
        p, q = pq
        g = curved_gram(table_simplex, HYPERBOLIC)
        assert hyperbolic_distance(g, p, q) == pytest.approx(0.63997, abs=1e-4)

    def test_identical_points(self, table_simplex, pq):
        g = curved_gram(table_simplex, HYPERBOLIC)
        assert hyperbolic_distance(g, pq[0], pq[0]) == 0.0

    def test_edge_recovery(self, table_simplex):
        g = curved_gram(table_simplex, HYPERBOLIC)
        for i in range(1, 5):
            for j in range(1, 5):
                d = hyperbolic_distance(g, BarycentricPoint.vertex(i, 4),
                                        BarycentricPoint.vertex(j, 4))
                assert d == pytest.approx(table_simplex.length(i, j), abs=1e-10)

    def test_spacelike_point_rejected(self, table_simplex):
        g = curved_gram(table_simplex, HYPERBOLIC)
        x = BarycentricPoint.hull([1.0, -1.0, 0.0, 0.0])
        with pytest.raises(OutsideLightCone):
            hyperbolic_distance(g, x, x)


    @pytest.mark.parametrize("x, y, reference", [
        ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], 0.962423650119207),
        ([1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0], 0.549306144334055),
        ([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], 0.532502090002618),
    ])
    def test_long_edges_match_high_precision_reference(self, x, y, reference):
        # Regular triangle with edge 500: the hull norms are about cosh(500) / 2,
        # so their product overflows float64.  References: mpmath at 60 digits.
        e = EdgeLengths(500.0 * (1 - np.eye(3)))
        x, y = BarycentricPoint(x), BarycentricPoint(y)
        assert distance(e, HYPERBOLIC, x, y) == pytest.approx(reference, rel=1e-11)
        assert distance(e.scaled(0.5), CurvatureSpec(-4.0), x, y) == pytest.approx(
            reference / 2, rel=1e-11)
        assert distance(e, HYPERBOLIC, x, x) == 0.0

    def test_edges_near_the_gram_bound(self):
        # Edge 709.7 is just inside the unit-model bound ln(float max) = 709.78.
        # Midpoint-to-midpoint and centroid-to-midpoint distances there equal
        # their ideal-triangle limits, 2 asinh(1/2) and ln(3) / 2, to within e^-709.
        big = 709.7
        e = EdgeLengths(big * (1 - np.eye(3)))
        v1, v2 = BarycentricPoint.vertex(1, 3), BarycentricPoint.vertex(2, 3)
        m12, m13 = BarycentricPoint([0.5, 0.5, 0.0]), BarycentricPoint([0.5, 0.0, 0.5])
        centroid = BarycentricPoint([1 / 3] * 3)
        assert distance(e, HYPERBOLIC, v1, v2) == pytest.approx(big, rel=1e-12)
        assert distance(e, HYPERBOLIC, v1, m12) == pytest.approx(big / 2, rel=1e-12)
        assert distance(e, HYPERBOLIC, m12, m13) == pytest.approx(2 * math.asinh(0.5), rel=1e-12)
        assert distance(e, HYPERBOLIC, centroid, m12) == pytest.approx(math.log(3) / 2, rel=1e-12)
        x, y = point_along_edge(big, -1.0, 1.0), point_along_edge(big, -1.0, 1.0 + 1e-9)
        assert distance(e, HYPERBOLIC, x, y) == pytest.approx(1e-9, rel=1e-5)


class TestSphericalDistance:
    def test_edge_recovery(self):
        rng = np.random.default_rng(17)
        e = random_spherical(rng, 3)
        g = curved_gram(e, SPHERICAL)
        for i in range(1, 5):
            for j in range(1, 5):
                d = spherical_distance(g, BarycentricPoint.vertex(i, 4),
                                       BarycentricPoint.vertex(j, 4))
                assert d == pytest.approx(e.length(i, j), abs=1e-10)

    def test_identical_points(self):
        e = EdgeLengths((math.pi / 3) * (1 - np.eye(3)))
        g = curved_gram(e, SPHERICAL)
        p = BarycentricPoint([0.2, 0.3, 0.5])
        assert spherical_distance(g, p, p) == 0.0

    def test_equilateral_vertex_to_midpoint(self):
        # Oracle: explicit unit-sphere embedding of the equilateral pi/3
        # triangle, midpoint of the opposite edge lifted to the sphere.
        e = EdgeLengths((math.pi / 3) * (1 - np.eye(3)))
        emb = embed(e, SPHERICAL)
        x = BarycentricPoint([1.0, 0.0, 0.0])
        y = BarycentricPoint([0.0, 0.5, 0.5])
        expected = brute_distance(emb, x, y)
        g = curved_gram(e, SPHERICAL)
        assert spherical_distance(g, x, y) == pytest.approx(expected, abs=1e-12)


def point_along_edge(length: float, kappa: float, a: float) -> BarycentricPoint:
    """The point at arc length a from vertex 1 on edge 1-2 (of the given length) of a triangle.

    Its hull coordinates are proportional to (f(s (length - a)), f(s a), 0) with
    s = sqrt|kappa| and f = sinh, sin or (at kappa = 0) the identity.
    """
    s = math.sqrt(abs(kappa))
    f = math.sinh if kappa < 0 else math.sin if kappa > 0 else (lambda t: t)
    w1, w2 = (f(s * (length - a)), f(s * a)) if kappa else (length - a, a)
    return BarycentricPoint([w1 / (w1 + w2), w2 / (w1 + w2), 0.0])


class TestShortDistances:
    """Points h apart along an edge are h apart: the chord keeps the digits that
    an arccos/arccosh of a normalized inner product near 1 loses."""

    @pytest.mark.parametrize("h, rel", [(1e-6, 1e-6), (1e-9, 1e-5)])
    @pytest.mark.parametrize("length", [1.0, 2.0])
    @pytest.mark.parametrize("kappa", [-1.0, 1.0, -0.3, 0.3, 0.0])
    def test_matches_arc_length_along_an_edge(self, kappa, length, h, rel):
        e = EdgeLengths(length * (1 - np.eye(3)))
        a = 0.3 * length
        x, y = point_along_edge(length, kappa, a), point_along_edge(length, kappa, a + h)
        assert distance(e, CurvatureSpec(kappa), x, y) == pytest.approx(h, rel=rel)


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_bad_tol_rejected(self, table_simplex, pq, kappa, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            distance(table_simplex, CurvatureSpec(kappa), *pq, tol=tol)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_bad_tol_rejected_before_clamping(self, tol):
        # The default rejects this unrealizable pair's squared distance of -1.25.
        e = EdgeLengths([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        x, y = BarycentricPoint([0.5, 0.0, 0.5]), BarycentricPoint.vertex(2, 3)
        with pytest.raises(NotRealizableInput):
            distance(e, EUCLIDEAN, x, y)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            euclidean_distance(euclidean_gram(e, apex=3), x, y, tol=tol)


class TestDistanceDispatch:
    def test_hyperbolic_agrees_exactly(self, table_simplex):
        rng = np.random.default_rng(23)
        g = curved_gram(table_simplex, HYPERBOLIC)
        for _ in range(5):
            x = BarycentricPoint(random_interior_point(rng, 4))
            y = BarycentricPoint(random_interior_point(rng, 4))
            assert distance(table_simplex, HYPERBOLIC, x, y) == \
                hyperbolic_distance(g, x, y)

    def test_kappa_minus_four_scaling(self, table_simplex):
        p = BarycentricPoint([0.25] * 4)
        q = BarycentricPoint([1 / 3, 1 / 3, 1 / 3, 0.0])
        doubled = curved_gram(table_simplex.scaled(2.0), HYPERBOLIC)
        expected = 0.5 * hyperbolic_distance(doubled, p, q)
        assert distance(table_simplex, CurvatureSpec(-4.0), p, q) == \
            pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("kappa", [-4.0, -0.25, 0.25, 4.0])
    def test_per_model_distance_reads_the_curvature_of_its_gram(self, kappa):
        # curved_gram stores the unit model and carries kappa, so the per-model
        # distance on it is the distance at kappa, bit for bit.
        e = EdgeLengths([[0, 1, 1.2], [1, 0, 0.9], [1.2, 0.9, 0]])
        if kappa > 0:
            e = e.scaled(0.5 / math.sqrt(kappa))
        c = CurvatureSpec(kappa)
        per_model = hyperbolic_distance if kappa < 0 else spherical_distance
        q = curved_gram(e, c)
        rng = np.random.default_rng(7)
        pairs = [(BarycentricPoint.vertex(1, 3), BarycentricPoint([0, 0.5, 0.5]))]
        pairs += [(BarycentricPoint(random_interior_point(rng, 3)),
                   BarycentricPoint(random_interior_point(rng, 3))) for _ in range(5)]
        for x, y in pairs:
            assert per_model(q, x, y) == distance(e, c, x, y)

    def test_kappa_minus_quarter_reference(self):
        e = EdgeLengths([[0, 1, 1.2], [1, 0, 0.9], [1.2, 0.9, 0]])
        x, y = BarycentricPoint.vertex(1, 3), BarycentricPoint([0, 0.5, 0.5])
        d = hyperbolic_distance(curved_gram(e, CurvatureSpec(-0.25)), x, y)
        assert d == pytest.approx(1.00096, abs=1e-5)

    @pytest.mark.parametrize("per_model,gram_kappa", [
        (euclidean_distance, -1.0), (euclidean_distance, 1.0),
        (hyperbolic_distance, 0.0), (hyperbolic_distance, 1.0), (hyperbolic_distance, 0.3),
        (spherical_distance, 0.0), (spherical_distance, -1.0), (spherical_distance, -0.3),
    ])
    def test_gram_of_another_model_is_wrong_model(self, table_simplex, per_model, gram_kappa):
        e = table_simplex.scaled(0.1) if gram_kappa > 0 else table_simplex
        c = CurvatureSpec(gram_kappa)
        q = euclidean_gram(e, apex=4) if gram_kappa == 0 else curved_gram(e, c)
        x, y = BarycentricPoint([0.25] * 4), BarycentricPoint([1 / 3, 1 / 3, 1 / 3, 0.0])
        with pytest.raises(WrongModel):
            per_model(q, x, y)

    def test_flat_gram_without_apex_is_wrong_model(self, table_simplex):
        # Refused where it is built, so no distance kernel ever sees it.
        with pytest.raises(WrongModel, match="needs an apex"):
            GramMatrix(euclidean_gram(table_simplex, apex=4).matrix, EUCLIDEAN)

    def test_small_curvature_limit(self, table_simplex):
        p = BarycentricPoint([0.25] * 4)
        q = BarycentricPoint([1 / 3, 1 / 3, 1 / 3, 0.0])
        d_flat = distance(table_simplex, EUCLIDEAN, p, q)
        d_nearly_flat = distance(table_simplex, CurvatureSpec(-1e-6), p, q)
        assert d_nearly_flat == pytest.approx(d_flat, abs=1e-4)


class TestInvariants:
    def cases(self):
        rng = np.random.default_rng(41)
        out = []
        for n in (2, 3, 4):
            out.append((random_euclidean(rng, n), EUCLIDEAN))
            out.append((random_hyperbolic(rng, n), HYPERBOLIC))
            out.append((random_spherical(rng, n), SPHERICAL))
            out.append((random_hyperbolic(rng, n).scaled(2.0), CurvatureSpec(-0.25)))
        return rng, out

    def test_symmetry_and_identity(self):
        rng, cases = self.cases()
        for e, c in cases:
            k = e.num_vertices
            for _ in range(10):
                x = BarycentricPoint(random_interior_point(rng, k))
                y = BarycentricPoint(random_interior_point(rng, k))
                assert distance(e, c, x, y) == pytest.approx(
                    distance(e, c, y, x), rel=1e-9, abs=1e-12)
                assert distance(e, c, x, x) == 0.0

    def test_edge_recovery_all_classes(self):
        _, cases = self.cases()
        for e, c in cases:
            k = e.num_vertices
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    d = distance(e, c, BarycentricPoint.vertex(i, k),
                                 BarycentricPoint.vertex(j, k))
                    assert d == pytest.approx(e.length(i, j), abs=1e-10)

    def test_triangle_inequality(self):
        rng, cases = self.cases()
        for e, c in cases:
            k = e.num_vertices
            for _ in range(200):
                x = BarycentricPoint(random_interior_point(rng, k))
                y = BarycentricPoint(random_interior_point(rng, k))
                z = BarycentricPoint(random_interior_point(rng, k))
                assert distance(e, c, x, z) <= (
                    distance(e, c, x, y) + distance(e, c, y, z) + 1e-9)

    def test_oracle_equivalence(self):
        rng, cases = self.cases()
        for e, c in cases:
            emb = embed(e, c)
            k = e.num_vertices
            for _ in range(20):
                x = BarycentricPoint(random_interior_point(rng, k))
                y = BarycentricPoint(random_interior_point(rng, k))
                assert distance(e, c, x, y) == pytest.approx(
                    brute_distance(emb, x, y), abs=1e-8)


class TestUnrealizableEdges:
    """``distance`` runs no realizability check.  On an edge set with one edge
    inflated it returns a finite float or raises a GeometryError; where ``check``
    still finds the set Realizable it is the oracle's distance."""

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0, -0.3, 0.3])
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_finite_or_geometry_error(self, n, kappa):
        rng = np.random.default_rng(round(1000 * (n + kappa)))
        c = CurvatureSpec(kappa)
        verdicts = set()
        for _ in range(30):
            g = random_simplex(rng, n, c).gamma.copy()
            i, j = rng.choice(n + 1, size=2, replace=False)
            g[i, j] = g[j, i] = g[i, j] * rng.choice([1.001, 1.01, 1.5, 3.0])
            e = EdgeLengths(g)
            x, y = (BarycentricPoint(random_interior_point(rng, n + 1)) for _ in range(2))
            verdict = check(e, c).verdict
            verdicts.add(verdict)
            if verdict is Verdict.REALIZABLE:
                assert distance(e, c, x, y) == pytest.approx(
                    brute_distance(embed(e, c), x, y), abs=1e-8)
                continue
            try:
                d = distance(e, c, x, y)
            except GeometryError:
                continue
            assert math.isfinite(d)
        assert {Verdict.REALIZABLE, Verdict.NOT_REALIZABLE} <= verdicts


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFormOverflow:
    """A quadratic form past the float64 range raises no numpy warning: a point
    outside the model raises the model's error, and a form that is not finite
    while both points are in the model raises GramOverflow (the suite turns
    every RuntimeWarning into an error)."""

    LONG = EdgeLengths(709.7 * (1 - np.eye(4)))

    def test_point_outside_the_light_cone(self):
        x = BarycentricPoint([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(OutsideLightCone, match="hull norms"):
            distance(self.LONG, HYPERBOLIC, x, BarycentricPoint([0.25] * 4))

    def test_timelike_points_whose_difference_form_overflows(self):
        x = BarycentricPoint([0.65, 0.65, -0.3, 0.0])
        y = BarycentricPoint([-0.3, 0.0, 0.65, 0.65])
        with pytest.raises(GramOverflow, match="quadratic forms"):
            distance(self.LONG, HYPERBOLIC, x, y)
        assert distance(self.LONG, HYPERBOLIC, x, x) == 0.0

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_huge_coordinates(self, kappa):
        e = EdgeLengths(1 - np.eye(3))
        x = BarycentricPoint([1e200, -1e200, 1.0])
        with pytest.raises(GramOverflow, match="quadratic form"):
            distance(e, CurvatureSpec(kappa), x, BarycentricPoint.vertex(1, 3))
