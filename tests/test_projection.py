"""Projection and volume tests."""

import math

import numpy as np
import pytest

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    HYPERBOLIC,
    NotRealizableInput,
    SPHERICAL,
    brute_distance,
    brute_project,
    check_euclidean,
    curved_gram,
    distance,
    embed,
    euclidean_distance,
    euclidean_face_volume,
    euclidean_gram,
    euclidean_project,
    euclidean_volume,
    hull_inner_product,
    hyperbolic_project,
    project,
    project_onto_subface,
    spherical_project,
)
from curvsimplex.projection import _signed_minor_rowsums

from conftest import (
    COLLINEAR_HYPERBOLIC_EDGES,
    random_euclidean,
    random_hyperbolic,
    random_interior_point,
    random_simplex,
    random_spherical,
)


def inside_projection_case(rng, generator, projector, n):
    """Random simplex whose chosen vertex projects inside the opposite face."""
    while True:
        e = generator(rng, n)
        vertex = int(rng.integers(1, e.num_vertices + 1))
        res = projector(e, vertex)
        if res.inside_face:
            return e, vertex, res


class TestEuclideanProject:
    def test_reference_vertex_1(self, table_simplex):
        res = euclidean_project(table_simplex, 1)
        assert np.allclose(res.foot.coords, [0.0, 0.65625, 0.23264, 0.11111], atol=1e-5)
        assert res.altitude == pytest.approx(1.4136, abs=1e-3)
        assert res.inside_face

    def test_equilateral_symmetry(self):
        e = EdgeLengths([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        res = euclidean_project(e, 3)
        assert np.allclose(res.foot.coords, [0.5, 0.5, 0.0], atol=1e-12)
        assert res.altitude == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_right_triangle_altitude(self):
        # Classical oracle: the altitude onto the hypotenuse is ab/c = 12/5.
        e = EdgeLengths([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        res = euclidean_project(e, 1)
        assert res.altitude == pytest.approx(12 / 5, abs=1e-12)

    def test_degenerate_rejected(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        with pytest.raises(NotRealizableInput):
            euclidean_project(e, 1)

    def test_outside_foot_flagged(self):
        # Obtuse triangle: the apex projects beyond the opposite edge.
        e = EdgeLengths([[0, 1.0, 1.0], [1.0, 0, 1.9], [1.0, 1.9, 0]])
        assert check_euclidean(e).verdict.value == "Realizable"
        res = euclidean_project(e, 2)
        assert not res.inside_face
        assert res.foot.has_negative

    def test_minimizes_distance_over_face(self, table_simplex):
        rng = np.random.default_rng(13)
        g = euclidean_gram(table_simplex, apex=1)
        res = euclidean_project(table_simplex, 1)
        v1 = BarycentricPoint.vertex(1, 4)
        for _ in range(500):
            w = random_interior_point(rng, 3)
            y = BarycentricPoint(np.concatenate(([0.0], w)))
            assert res.altitude <= euclidean_distance(g, v1, y) + 1e-9


class TestDeterminantIdentities:
    def test_lemma_altitude_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            e = random_euclidean(rng, n)
            vertex = int(rng.integers(1, n + 2))
            q = euclidean_gram(e, apex=vertex).matrix
            res = euclidean_project(e, vertex)
            _, face_det = _signed_minor_rowsums(q.data)
            lhs = q.determinant()
            rhs = res.altitude ** 2 * face_det
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_corollary_signed_minor_sum_is_face_det(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            e = random_euclidean(rng, n)
            vertex = int(rng.integers(1, n + 2))
            q = euclidean_gram(e, apex=vertex).matrix
            _, total = _signed_minor_rowsums(q.data)
            face = [v for v in range(1, n + 2) if v != vertex]
            face_edges = e.restricted(face)
            face_apex = int(rng.integers(1, n + 1))
            face_det = euclidean_gram(face_edges, apex=face_apex).matrix.determinant()
            assert total == pytest.approx(face_det, rel=1e-8)


class TestVolumes:
    def test_reference_volume(self, table_simplex):
        assert euclidean_volume(table_simplex) == pytest.approx(
            math.sqrt(287.75) / 6, rel=1e-12)

    def test_degenerate_zero(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        assert euclidean_volume(e) == 0.0

    def test_unit_right_simplex(self):
        e = EdgeLengths([[0, 1, 1], [1, 0, math.sqrt(2)], [1, math.sqrt(2), 0]])
        assert euclidean_volume(e) == pytest.approx(0.5, abs=1e-12)

    def test_not_realizable_rejected(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        with pytest.raises(NotRealizableInput):
            euclidean_volume(e)

    def test_reference_face_volume(self, table_simplex):
        # The face opposite vertex 1 is the 3-4-5 right triangle: area 6.
        assert euclidean_face_volume(table_simplex, 1) == pytest.approx(6.0, rel=1e-12)

    def test_heron_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            e = random_euclidean(rng, 3)
            vertex = int(rng.integers(1, 5))
            face = [v for v in range(1, 5) if v != vertex]
            a = e.length(face[0], face[1])
            b = e.length(face[0], face[2])
            c = e.length(face[1], face[2])
            s = (a + b + c) / 2
            heron = math.sqrt(s * (s - a) * (s - b) * (s - c))
            assert euclidean_face_volume(e, vertex) == pytest.approx(heron, rel=1e-10)

    def test_edge_face_volume_is_length(self):
        e = EdgeLengths([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert euclidean_face_volume(e, 2) == pytest.approx(1.0, abs=1e-12)


class TestHyperbolicProject:
    def test_reference_vertex_1(self, table_simplex):
        res = hyperbolic_project(table_simplex, 1)
        assert np.allclose(res.foot.coords, [0.0, 0.80146, 0.15190, 0.04665], atol=1e-4)
        assert np.allclose(res.foot_model.coords,
                           [0.0, 0.22222, 0.04212, 0.01293], atol=1e-4)
        assert res.altitude == pytest.approx(1.0575, abs=1e-3)
        assert res.inside_face

    def test_equilateral_symmetry(self):
        e = EdgeLengths(1.3 * (1 - np.eye(3)))
        res = hyperbolic_project(e, 2)
        assert np.allclose(res.foot.coords, [0.5, 0.0, 0.5], atol=1e-12)

    def test_foot_model_on_hyperboloid(self, table_simplex):
        res = hyperbolic_project(table_simplex, 3)
        q = curved_gram(table_simplex, HYPERBOLIC)
        assert hull_inner_product(q, res.foot_model, res.foot_model) == \
            pytest.approx(-1.0, abs=1e-9)

    def test_altitude_matches_brute_minimization(self):
        rng = np.random.default_rng(43)
        for n in (2, 3):
            e, vertex, res = inside_projection_case(
                rng, random_hyperbolic, hyperbolic_project, n)
            emb = embed(e, HYPERBOLIC)
            bf = brute_project(emb, vertex)
            v = BarycentricPoint.vertex(vertex, e.num_vertices)
            assert res.altitude == pytest.approx(
                brute_distance(emb, v, bf), abs=1e-6)
            assert np.max(np.abs(res.foot.coords - bf.coords)) < 1e-6

    def test_minimality_over_sampled_face(self, table_simplex):
        rng = np.random.default_rng(47)
        res = hyperbolic_project(table_simplex, 1)
        v1 = BarycentricPoint.vertex(1, 4)
        for _ in range(500):
            w = random_interior_point(rng, 3)
            y = BarycentricPoint(np.concatenate(([0.0], w)))
            assert res.altitude <= distance(table_simplex, HYPERBOLIC, v1, y) + 1e-9

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            e = random_hyperbolic(rng, n)
            m = e.num_vertices
            vertex = int(rng.integers(1, m + 1))
            res = hyperbolic_project(e, vertex)
            if res.foot_model is None:
                continue
            q = curved_gram(e, HYPERBOLIC)
            v = BarycentricPoint.vertex(vertex, m)
            vp = hull_inner_product(q, v, res.foot_model)
            u = vp * res.foot_model.coords + v.coords
            residual = q.matrix.data @ u
            face = [i for i in range(m) if i != vertex - 1]
            assert np.max(np.abs(residual[face])) < 1e-8

    def test_p_dot_p_ratio_identity(self, table_simplex):
        # -<p,p>/<v1,p> equals the first minor over the signed first-row
        # minor sum of the vertex Gram matrix.
        q = curved_gram(table_simplex, HYPERBOLIC)
        res = hyperbolic_project(table_simplex, 1)
        v1 = BarycentricPoint.vertex(1, 4)
        pp = hull_inner_product(q, res.foot, res.foot)
        vp = hull_inner_product(q, v1, res.foot)
        minors = [q.matrix.minor(1, i) for i in range(1, 5)]
        denom = sum((-1.0) ** (i + 1) * minors[i - 1] for i in range(2, 5))
        assert -pp / vp == pytest.approx(minors[0] / denom, rel=1e-8)

    def test_not_realizable_rejected(self):
        e = EdgeLengths(COLLINEAR_HYPERBOLIC_EDGES)
        with pytest.raises(NotRealizableInput):
            hyperbolic_project(e, 1)

    def test_hull_route_would_fail(self):
        # Regression for the near-collinear configuration: the induced form
        # on the vertex hull is not positive definite, so the flat in-hull
        # projection recipe is unusable even though a small perturbation of
        # the collinear triple is a legitimate hyperbolic triangle.
        g = np.array(COLLINEAR_HYPERBOLIC_EDGES)
        g[0, 2] *= 0.98
        g[2, 0] *= 0.98
        e = EdgeLengths(g)
        from curvsimplex import check_hyperbolic, Verdict
        assert check_hyperbolic(e).verdict is Verdict.REALIZABLE
        chord = np.sqrt(2.0 * np.cosh(e.gamma) - 2.0)
        np.fill_diagonal(chord, 0.0)
        hull_gram = euclidean_gram(EdgeLengths(chord), apex=1).matrix
        assert not hull_gram.is_positive_definite()
        # The synthetic route still produces a valid projection.
        res = hyperbolic_project(e, 1)
        assert abs(res.foot.coords.sum() - 1.0) < 1e-9


class TestSphericalProject:
    def test_equilateral_symmetry(self):
        e = EdgeLengths((math.pi / 3) * (1 - np.eye(3)))
        res = spherical_project(e, 1)
        assert np.allclose(res.foot.coords, [0.0, 0.5, 0.5], atol=1e-12)

    def test_degenerate_rejected(self):
        e = EdgeLengths([[0, 0.1, 0.2], [0.1, 0, 0.1], [0.2, 0.1, 0]])
        with pytest.raises(NotRealizableInput):
            spherical_project(e, 1)

    def test_matches_brute_minimization(self):
        rng = np.random.default_rng(59)
        for n in (2, 3):
            e, vertex, res = inside_projection_case(
                rng, random_spherical, spherical_project, n)
            emb = embed(e, SPHERICAL)
            bf = brute_project(emb, vertex)
            assert np.max(np.abs(res.foot.coords - bf.coords)) < 1e-6
            v = BarycentricPoint.vertex(vertex, e.num_vertices)
            assert res.altitude <= brute_distance(emb, v, bf) + 1e-8

    def test_foot_model_on_sphere(self):
        rng = np.random.default_rng(61)
        e = random_spherical(rng, 3)
        res = spherical_project(e, 2)
        q = curved_gram(e, SPHERICAL)
        assert hull_inner_product(q, res.foot_model, res.foot_model) == \
            pytest.approx(1.0, abs=1e-9)


class TestDispatchAndSubface:
    def test_general_kappa_altitude_scaling(self, table_simplex):
        res_unit = hyperbolic_project(table_simplex.scaled(2.0), 1)
        res = project(table_simplex, CurvatureSpec(-4.0), 1)
        assert np.allclose(res.foot.coords, res_unit.foot.coords)
        assert res.altitude == pytest.approx(res_unit.altitude / 2.0, rel=1e-12)

    @pytest.mark.parametrize("kappa", [-4.0, -0.3, 0.3, 4.0])
    def test_general_kappa_is_unit_model_of_rescaled_edges(self, kappa):
        c = CurvatureSpec(kappa)
        scale = math.sqrt(abs(kappa))
        unit_project = hyperbolic_project if kappa < 0 else spherical_project
        rng = np.random.default_rng(int(abs(kappa) * 10) + 1)
        for n in (2, 3, 4):
            e = random_simplex(rng, n, c)
            for vertex in range(1, n + 2):
                res = project(e, c, vertex)
                unit = unit_project(e.scaled(scale), vertex)
                assert np.array_equal(res.foot.coords, unit.foot.coords)
                assert res.inside_face == unit.inside_face
                if unit.foot_model is None:
                    # a foot far outside its face has no lift and no altitude
                    assert res.foot_model is None and math.isnan(res.altitude)
                else:
                    assert np.array_equal(res.foot_model.coords, unit.foot_model.coords)
                    assert res.altitude == unit.altitude / scale

    def test_foot_sums_to_one(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            e = random_hyperbolic(rng, 3)
            res = hyperbolic_project(e, 1)
            assert res.foot.coords.sum() == pytest.approx(1.0, abs=1e-9)

    def test_subface_projection_matches_restriction(self, table_simplex):
        res = project_onto_subface(table_simplex, CurvatureSpec(0.0), 1, [3, 4])
        sub = table_simplex.restricted([1, 3, 4])
        direct = euclidean_project(sub, 1)
        assert np.allclose(res.foot.coords, direct.foot.coords)
        assert res.altitude == direct.altitude

    def test_subface_rejects_vertex_in_face(self, table_simplex):
        with pytest.raises(ValueError):
            project_onto_subface(table_simplex, CurvatureSpec(0.0), 1, [1, 2])
