"""Projection and volume tests."""

import math

import numpy as np
import pytest

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    GramOverflow,
    HYPERBOLIC,
    NotRealizableInput,
    SPHERICAL,
    Verdict,
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
    spherical_project,
)

from conftest import (
    ANTIPODE_4SIMPLEX,
    COLLINEAR_HYPERBOLIC_EDGES,
    NON_EUCLIDEAN_FACE_EDGES,
    WRONG_SHEET_TETRAHEDRON,
    edges_from_points,
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
        assert np.any(res.foot.coords < 0)

    @pytest.mark.parametrize("s", [1e-100, 1e-5, 1e5, 1e100])
    def test_scaling_keeps_verdict_and_scales_volume_and_altitude(self, s):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            e = random_euclidean(rng, n)
            big = e.scaled(s)
            assert check_euclidean(big).verdict is Verdict.REALIZABLE
            assert euclidean_volume(big) == pytest.approx(
                s ** n * euclidean_volume(e), rel=1e-12)
            for vertex in range(1, n + 2):
                res, res_big = euclidean_project(e, vertex), euclidean_project(big, vertex)
                assert res_big.altitude == pytest.approx(s * res.altitude, rel=1e-12)
                assert np.allclose(res_big.foot.coords, res.foot.coords, rtol=0, atol=1e-12)
        flat = EdgeLengths([[0, 1, 2], [1, 0, 1], [2, 1, 0]]).scaled(s)
        assert check_euclidean(flat).verdict is Verdict.DEGENERATE
        assert euclidean_volume(flat) == 0.0
        bad = EdgeLengths([[0, 1, 3], [1, 0, 1], [3, 1, 0]]).scaled(s)
        assert check_euclidean(bad).verdict is Verdict.NOT_REALIZABLE

    def test_minimizes_distance_over_face(self, table_simplex):
        rng = np.random.default_rng(13)
        g = euclidean_gram(table_simplex, apex=1)
        res = euclidean_project(table_simplex, 1)
        v1 = BarycentricPoint.vertex(1, 4)
        for _ in range(500):
            w = random_interior_point(rng, 3)
            y = BarycentricPoint(np.concatenate(([0.0], w)))
            assert res.altitude <= euclidean_distance(g, v1, y) + 1e-9


def signed_minor_sum(q):
    """Sum of the signed minors (-1)^(i+j) M_ij over every entry of q."""
    return sum((-1.0) ** (i + j) * q.minor(i, j)
               for i in range(1, q.dim + 1) for j in range(1, q.dim + 1))


class TestDeterminantIdentities:
    def test_lemma_altitude_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            e = random_euclidean(rng, n)
            vertex = int(rng.integers(1, n + 2))
            q = euclidean_gram(e, apex=vertex).matrix
            res = euclidean_project(e, vertex)
            face_det = signed_minor_sum(q)
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
            total = signed_minor_sum(q)
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

    def test_volume_agrees_with_verdict(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(60):
            n = int(rng.integers(2, 5))
            if rng.random() < 0.2:  # collinear points: a flat simplex
                t = rng.uniform(0, 3, size=n + 1)
                g = np.abs(t[:, None] - t[None, :])
            else:
                g = np.triu(rng.uniform(0.2, 2.0, size=(n + 1, n + 1)), 1)
                g = g + g.T
            e = EdgeLengths(g)
            verdict = check_euclidean(e).verdict
            seen.add(verdict)
            if verdict is Verdict.NOT_REALIZABLE:
                with pytest.raises(NotRealizableInput):
                    euclidean_volume(e)
            elif verdict is Verdict.DEGENERATE:
                assert euclidean_volume(e) == 0.0
            else:
                assert 0 < euclidean_volume(e) < math.inf
        assert seen == set(Verdict)

    def test_not_realizable_face_rejected(self):
        with pytest.raises(NotRealizableInput):
            euclidean_face_volume(EdgeLengths(NON_EUCLIDEAN_FACE_EDGES), 5)

    def test_large_edge_volumes(self):
        e = EdgeLengths(1e60 * (1 - np.eye(4)))
        assert euclidean_volume(e) == pytest.approx(math.sqrt(2) / 12 * 1e180, rel=1e-12)
        assert euclidean_face_volume(e, 2) == pytest.approx(math.sqrt(3) / 4 * 1e120, rel=1e-12)
        with pytest.raises(GramOverflow):
            euclidean_volume(EdgeLengths(1e150 * (1 - np.eye(4))))

    def test_face_vertex_out_of_range(self, table_simplex):
        for vertex in (0, 5):
            with pytest.raises(IndexError):
                euclidean_face_volume(table_simplex, vertex)

    def test_point_face_of_an_edge(self):
        e = EdgeLengths([[0, 2.5], [2.5, 0]])
        assert [euclidean_face_volume(e, v) for v in (1, 2)] == [1.0, 1.0]

    def test_edge_face_volume_is_length(self):
        e = EdgeLengths([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert euclidean_face_volume(e, 2) == pytest.approx(1.0, abs=1e-12)

    def test_flat_triangle_face_volumes_are_edge_lengths(self):
        # Collinear 1 + 1 = 2: the apex Gram at every vertex is exactly singular.
        e = EdgeLengths([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert [euclidean_face_volume(e, v) for v in (1, 2, 3)] == [1.0, 2.0, 1.0]

    def test_flat_tetrahedron_face_volumes_are_triangle_areas(self):
        # The 3 x 4 rectangle's corners: every face is a 3-4-5 right triangle.
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [3.0, 4.0]])
        e = edges_from_points(pts)
        for vertex in range(1, 5):
            assert euclidean_face_volume(e, vertex) == pytest.approx(6.0, rel=1e-12)


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
            assert res.foot_model is not None
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
                assert res.foot_model is not None and unit.foot_model is not None
                assert np.array_equal(res.foot_model.coords, unit.foot_model.coords)
                assert res.altitude == unit.altitude / scale

    @pytest.mark.parametrize("vertex", [0, -1, 5])
    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0, -0.3])
    def test_vertex_out_of_range(self, table_simplex, kappa, vertex):
        e = table_simplex if kappa <= 0 else table_simplex.scaled(0.3)
        with pytest.raises(IndexError, match=f"vertex {vertex} out of range 1..4"):
            project(e, CurvatureSpec(kappa), vertex)

    def test_foot_sums_to_one(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            e = random_hyperbolic(rng, 3)
            res = hyperbolic_project(e, 1)
            assert res.foot.coords.sum() == pytest.approx(1.0, abs=1e-9)


def coordinate_foot(e, c, vertex):
    """Altitude and lift of the foot from ``vertex``, from ``embed`` coordinates.

    The foot is the form-orthogonal projection p = beta @ face of the vertex
    onto the linear span of its face's vertices, taken on the upper sheet at
    kappa < 0.  The altitude is the arc over the chord between the vertex and
    p on the unit model; the lift is beta / sqrt(|kappa <p, p>|).
    """
    v = embed(e, c).vertices
    metric = np.ones(v.shape[1])
    if c.kappa < 0:
        metric[-1] = -1.0
    a = v[vertex - 1]
    face = np.delete(v, vertex - 1, axis=0)
    beta = np.linalg.solve((face * metric) @ face.T, (face * metric) @ a)
    p = beta @ face
    if c.kappa < 0 and p[-1] < 0:
        p, beta = -p, -beta
    pp = float((p * metric) @ p)
    u = a * c.scale - p / math.sqrt(abs(pp))
    chord = math.sqrt(abs(float((u * metric) @ u)))
    arc = 2.0 * (math.asinh if c.kappa < 0 else math.asin)(chord / 2.0)
    lift = np.insert(beta / math.sqrt(abs(c.kappa * pp)), vertex - 1, 0.0)
    return arc / c.scale, lift


class TestFootSheet:
    """Curved feet are lifted, and measured, at the projection of the vertex.

    Normalizing the signed first-row minors to sum 1 gives the foot's mirror
    on the other sheet (or its antipode on the sphere) when they sum to the
    wrong sign; ``project`` still lifts the foot itself.
    """

    def test_wrong_sheet_tetrahedron(self):
        e = EdgeLengths(WRONG_SHEET_TETRAHEDRON)
        res = hyperbolic_project(e, 4)
        altitude, lift = coordinate_foot(e, HYPERBOLIC, 4)
        assert altitude == pytest.approx(0.0501714576343651, rel=1e-10)
        assert res.altitude == pytest.approx(altitude, rel=1e-8)
        assert np.allclose(res.foot_model.coords, lift, rtol=0, atol=1e-8)
        assert math.copysign(1.0, res.foot_model.coords[3]) == 1.0  # +0.0, not -0.0
        q = curved_gram(e, HYPERBOLIC)
        v4 = BarycentricPoint.vertex(4, 4)
        assert hull_inner_product(q, res.foot_model, res.foot_model) == \
            pytest.approx(-1.0, abs=1e-9)
        assert hull_inner_product(q, v4, res.foot_model) < 0  # the vertex's sheet
        assert not res.inside_face
        assert res.foot.coords.sum() == pytest.approx(1.0, abs=1e-12)

    def test_antipode_4simplex(self):
        e = EdgeLengths(ANTIPODE_4SIMPLEX)
        res = spherical_project(e, 4)
        altitude, lift = coordinate_foot(e, SPHERICAL, 4)
        assert res.altitude == pytest.approx(altitude, rel=1e-8)
        assert res.altitude < 0.1  # not pi minus the altitude
        assert np.allclose(res.foot_model.coords, lift, rtol=0, atol=1e-8 * np.abs(lift).max())
        q = curved_gram(e, SPHERICAL)
        v4 = BarycentricPoint.vertex(4, 5)
        assert hull_inner_product(q, v4, res.foot_model) > 0  # the vertex's hemisphere

    @pytest.mark.parametrize("kappa", [1e-322, -1e-322])
    def test_subnormal_kappa(self, kappa):
        # kappa times the minors' sum (about -0.01 here) underflows to -0.0, so
        # the sheet is chosen from signs.  The unit edges are a ~ 0.0994 and the
        # foot is the midpoint of the opposite edge: cosh h = cosh a / cosh(a/2),
        # cos on the sphere.
        c = CurvatureSpec(kappa)
        res = project(EdgeLengths(1e160 * (1 - np.eye(3))), c, 3)
        a = 1e160 * c.scale
        ch, ach = (math.cosh, math.acosh) if kappa < 0 else (math.cos, math.acos)
        assert res.altitude * c.scale == pytest.approx(ach(ch(a) / ch(a / 2)), rel=1e-9)
        assert res.foot_model is not None and (res.foot_model.coords[:2] > 0).all()

    @pytest.mark.parametrize("kappa", [-1.0, -0.3, 1.0, 4.0])
    def test_altitude_and_lift_match_coordinates(self, kappa):
        c = CurvatureSpec(kappa)
        rng = np.random.default_rng(0)
        for n in range(2, 7):
            for _ in range(12):
                e = random_simplex(rng, n, c)
                for vertex in range(1, n + 2):
                    res = project(e, c, vertex)
                    altitude, lift = coordinate_foot(e, c, vertex)
                    # The tolerance is the reference's own error: against a
                    # 60-digit mpmath altitude, ``embed`` coordinates are off by
                    # up to 1.5e-8 relative on nearly flat simplices of this
                    # generator (``project``: 1.6e-9).
                    assert res.altitude == pytest.approx(altitude, rel=2e-8)
                    assert res.foot_model is not None
                    scale = max(1.0, float(np.abs(lift).max()))
                    assert np.allclose(res.foot_model.coords, lift, rtol=0, atol=1e-8 * scale)
