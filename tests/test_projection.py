"""Projection and volume tests."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    EmbeddingInconsistency,
    EUCLIDEAN,
    GramOverflow,
    HYPERBOLIC,
    NotRealizableInput,
    ProjectionDegenerate,
    SPHERICAL,
    Verdict,
    brute_distance,
    brute_project,
    check,
    curved_gram,
    distance,
    embed,
    euclidean_face_volume,
    euclidean_gram,
    euclidean_volume,
    hull_inner_product,
    model_gram,
    project,
)
from curvsimplex.projection import _foot
from curvsimplex.realizability import _bordered
from curvsimplex.symmat import SymMatrix

from conftest import (
    ANTIPODE_4SIMPLEX,
    COLLINEAR_HYPERBOLIC_EDGES,
    FLAT_4SIMPLICES,
    FLAT_HYPERBOLIC_TETRAHEDRON,
    FLAT_TOL0_ORDERS,
    NON_EUCLIDEAN_FACE_EDGES,
    WRONG_SHEET_TETRAHEDRON,
    classical_gram,
    corpus_euclidean_sets,
    edges_from_points,
    exact_apex_gram,
    exact_feet,
    random_euclidean,
    random_hyperbolic,
    random_interior_point,
    random_simplex,
    random_spherical,
    symmetric_elimination,
    well_shaped,
)


def inside_projection_case(rng, generator, c, n):
    """Random simplex whose chosen vertex projects inside the opposite face."""
    while True:
        e = generator(rng, n)
        vertex = int(rng.integers(1, e.num_vertices + 1))
        res = project(e, c, vertex)
        if res.inside_face:
            return e, vertex, res


class TestFootIsDividedOnce:
    """A foot is its own quotient y / -y_v or s / sum(s), checked and never divided again."""

    def test_euclidean_foot_is_the_solve_quotient(self):
        rng = np.random.default_rng(31)
        for n in (3, 5, 10):
            e = random_euclidean(rng, n)
            m = _bordered(model_gram(e, EUCLIDEAN))
            for vertex in range(1, n + 2):
                y = np.linalg.solve(m, np.eye(n + 2)[vertex - 1])[:n + 1]
                coords = project(e, EUCLIDEAN, vertex).foot.coords
                assert np.array_equal(np.delete(coords, vertex - 1),
                                      np.delete(y, vertex - 1) / -y[vertex - 1])

    @pytest.mark.parametrize("quotient", [[0.5, 0.5 + 2e-6], [math.inf, -math.inf],
                                          [math.nan, 1.0], [1e308, 1e308]])
    def test_a_quotient_off_the_unit_sum_is_degenerate(self, quotient):
        with pytest.raises(ProjectionDegenerate,
                           match="foot is not determined: barycentric coordinates sum to"):
            _foot(3, [0, 2], np.array(quotient))

    def test_a_quotient_near_the_unit_sum_is_kept_as_it_is(self):
        foot = _foot(3, [0, 2], np.array([0.25, 0.75 + 1e-7]))
        assert foot.coords.tolist() == [0.25, 0.0, 0.75 + 1e-7]
        assert not foot.coords.flags.writeable


class TestEuclideanProject:
    def test_reference_vertex_1(self, table_simplex):
        res = project(table_simplex, EUCLIDEAN, 1)
        assert np.allclose(res.foot.coords, [0.0, 0.65625, 0.23264, 0.11111], atol=1e-5)
        assert res.altitude == pytest.approx(1.4136, abs=1e-3)
        assert res.inside_face

    def test_equilateral_symmetry(self):
        e = EdgeLengths([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        res = project(e, EUCLIDEAN, 3)
        assert np.allclose(res.foot.coords, [0.5, 0.5, 0.0], atol=1e-12)
        assert res.altitude == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_right_triangle_altitude(self):
        # Classical oracle: the altitude onto the hypotenuse is ab/c = 12/5.
        e = EdgeLengths([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        res = project(e, EUCLIDEAN, 1)
        assert res.altitude == pytest.approx(12 / 5, abs=1e-12)

    def test_degenerate_rejected(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        with pytest.raises(NotRealizableInput):
            project(e, EUCLIDEAN, 1)

    def test_outside_foot_flagged(self):
        # Obtuse triangle: the apex projects beyond the opposite edge.
        e = EdgeLengths([[0, 1.0, 1.0], [1.0, 0, 1.9], [1.0, 1.9, 0]])
        assert check(e, EUCLIDEAN).verdict.value == "Realizable"
        res = project(e, EUCLIDEAN, 2)
        assert not res.inside_face
        assert np.any(res.foot.coords < 0)

    @pytest.mark.parametrize("s", [1e-100, 1e-5, 1e5, 1e100])
    def test_scaling_keeps_verdict_and_scales_volume_and_altitude(self, s):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            e = random_euclidean(rng, n)
            big = e.scaled(s)
            assert check(big, EUCLIDEAN).verdict is Verdict.REALIZABLE
            assert euclidean_volume(big) == pytest.approx(
                s ** n * euclidean_volume(e), rel=1e-12)
            for vertex in range(1, n + 2):
                res, res_big = project(e, EUCLIDEAN, vertex), project(big, EUCLIDEAN, vertex)
                assert res_big.altitude == pytest.approx(s * res.altitude, rel=1e-12)
                assert np.allclose(res_big.foot.coords, res.foot.coords, rtol=0, atol=1e-12)
        flat = EdgeLengths([[0, 1, 2], [1, 0, 1], [2, 1, 0]]).scaled(s)
        assert check(flat, EUCLIDEAN).verdict is Verdict.DEGENERATE
        assert euclidean_volume(flat) == 0.0
        bad = EdgeLengths([[0, 1, 3], [1, 0, 1], [3, 1, 0]]).scaled(s)
        assert check(bad, EUCLIDEAN).verdict is Verdict.NOT_REALIZABLE

    @pytest.mark.parametrize("j", [-508, -506, -300, 0, 300, 500])
    def test_power_of_two_scale_moves_no_foot_bit(self, j):
        # At 2^-508 the edges are near 1e-153 and E near 1e-307, where an unscaled
        # M^-1 overflows; the solve on 2^-p M keeps every foot and altitude exact.
        for seed in range(20):
            n = 2 + seed % 9
            e = random_euclidean(np.random.default_rng(seed), n)
            scaled = e.scaled(math.ldexp(1.0, j))
            for vertex in range(1, n + 2):
                res, res_scaled = project(e, EUCLIDEAN, vertex), project(scaled, EUCLIDEAN, vertex)
                assert np.array_equal(res_scaled.foot.coords, res.foot.coords)
                assert res_scaled.altitude == math.ldexp(res.altitude, j)

    @pytest.mark.parametrize("name", sorted(FLAT_4SIMPLICES))
    def test_flat_set_realizable_at_tol_zero_projects_or_is_degenerate(self, name):
        # At tol 0 the bordered matrix M can be singular in float64, or give a foot
        # whose coordinates lose their unit sum: those feet are ProjectionDegenerate.
        flat = EdgeLengths(np.sqrt(np.array(FLAT_4SIMPLICES[name], dtype=float)))
        assert check(flat, EUCLIDEAN, 0.0).verdict is Verdict.NOT_REALIZABLE
        e = flat.permuted(FLAT_TOL0_ORDERS[name])
        assert check(e, EUCLIDEAN).verdict is Verdict.DEGENERATE
        assert check(e, EUCLIDEAN, 0.0).verdict is Verdict.REALIZABLE
        for vertex in range(1, 6):
            try:
                res = project(e, EUCLIDEAN, vertex, 0.0)
            except ProjectionDegenerate:
                continue
            assert res.foot.coords[vertex - 1] == 0.0
            assert math.isfinite(res.altitude)

    def test_minimizes_distance_over_face(self, table_simplex):
        rng = np.random.default_rng(13)
        res = project(table_simplex, EUCLIDEAN, 1)
        v1 = BarycentricPoint.vertex(1, 4)
        for _ in range(500):
            w = random_interior_point(rng, 3)
            y = BarycentricPoint(np.concatenate(([0.0], w)))
            assert res.altitude <= distance(table_simplex, EUCLIDEAN, v1, y) + 1e-9


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
            res = project(e, EUCLIDEAN, vertex)
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


def volume_of_gram(rows) -> float:
    """sqrt(det) / n! of an apex Gram matrix given as n rows of Fraction: the determinant
    exact (``symmetric_elimination``), its square root to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    det = symmetric_elimination(rows)[1]
    with mpmath.workdps(50):
        root = mpmath.sqrt(mpmath.mpf(det.numerator) / det.denominator)
        return float(root / mpmath.factorial(len(rows)))


def exact_volume(e: EdgeLengths) -> float:
    """Volume of the float64 edges from their exact apex Gram at the last vertex."""
    return volume_of_gram(exact_apex_gram(e))


def volume_of_half_chords(half_chords: np.ndarray) -> float:
    """Volume from the exact apex Gram E_ia + E_ja - E_ij of float64 half chords E."""
    h = [[Fraction(v) for v in row] for row in half_chords.tolist()]
    a = len(h) - 1
    return volume_of_gram([[h[i][a] + h[j][a] - h[i][j] for j in range(a)] for i in range(a)])


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
            verdict = check(e, EUCLIDEAN).verdict
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

    @pytest.mark.parametrize("name", sorted(FLAT_4SIMPLICES))
    def test_flat_set_realizable_at_tol_zero(self, name):
        # Where tol 0 calls a relabeling of a flat set Realizable, M's spectrum has no
        # zero, but the apex Gram can round to a matrix with no Cholesky factor.
        flat = EdgeLengths(np.sqrt(np.array(FLAT_4SIMPLICES[name], dtype=float)))
        realizable = 0
        for order in itertools.permutations(range(1, 6)):
            e = flat.permuted(order)
            if check(e, EUCLIDEAN, 0.0).verdict is not Verdict.REALIZABLE:
                continue
            realizable += 1
            try:
                assert 0 < euclidean_volume(e, 0.0) < math.inf
            except EmbeddingInconsistency as exc:
                assert str(exc) == "apex Gram matrix is not positive definite"
        assert realizable > 0

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_well_shaped_volumes_match_50_digits(self, n):
        e = well_shaped(np.random.default_rng([n, 34]), n, EUCLIDEAN)
        assert euclidean_volume(e) == pytest.approx(exact_volume(e), rel=1e-13, abs=0.0)
        for vertex in range(1, n + 2):
            face = e.restricted(v for v in range(1, n + 2) if v != vertex)
            assert euclidean_face_volume(e, vertex) == pytest.approx(
                exact_volume(face), rel=1e-13, abs=0.0)

    def test_flat_tetrahedron_faces_lose_no_more_than_rounding_e(self):
        # Read at kappa = 0, the faces of the flat hyperbolic tetrahedron are Euclidean
        # triangles, face 1 nearly flat.  Each face volume is as close to the 50-digit
        # one as the 50-digit volume of the float64 E = gamma^2 / 2 is, or within the
        # well-shaped 1e-13 where that rounding costs less than the factorization.
        e = EdgeLengths(FLAT_HYPERBOLIC_TETRAHEDRON)
        for vertex in range(1, 5):
            face = e.restricted(v for v in range(1, 5) if v != vertex)
            exact = exact_volume(face)
            rounded = volume_of_half_chords(model_gram(face, EUCLIDEAN).half_chords.data)
            bound = max(abs(rounded / exact - 1), 1e-13)
            assert abs(euclidean_face_volume(e, vertex) / exact - 1) <= bound

    def test_corpus_volumes_match_exact_determinants(self):
        # Each volume and face volume (of a face with >= 2 vertices) of the corpus's
        # realizable kappa = 0 sets against sqrt(det G) / n! of the exact apex Gram G of
        # its float64 edges, within 5 times its data error (the same volume from the
        # float64 E = fl(gamma^2 / 2)), floored at 1e-13.  The worst ratio is 3.4 for a
        # volume (k=0.0 n=5 real1) and 1.1 for a face.
        volumes = faces = 0
        for label, e in corpus_euclidean_sets():
            k = e.num_vertices
            try:
                if check(e, EUCLIDEAN).verdict is not Verdict.REALIZABLE:
                    continue
                computed = [(euclidean_volume(e), e)] + [
                    (euclidean_face_volume(e, v), e.restricted(set(range(1, k + 1)) - {v}))
                    for v in range(1, k + 1) if k > 2]
            except GramOverflow:
                continue
            for volume, sub in computed:
                exact = exact_volume(sub)
                data_error = abs(volume_of_half_chords(0.5 * sub.gamma ** 2) / exact - 1)
                assert abs(volume / exact - 1) <= 5 * max(data_error, 1e-13), (label, sub.n)
            volumes, faces = volumes + 1, faces + len(computed) - 1
        assert volumes >= 13 and faces >= 72

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
        res = project(table_simplex, HYPERBOLIC, 1)
        assert np.allclose(res.foot.coords, [0.0, 0.80146, 0.15190, 0.04665], atol=1e-4)
        assert np.allclose(res.foot_model.coords,
                           [0.0, 0.22222, 0.04212, 0.01293], atol=1e-4)
        assert res.altitude == pytest.approx(1.0575, abs=1e-3)
        assert res.inside_face
        assert not res.foot.coords.flags.writeable
        assert not res.foot_model.coords.flags.writeable

    def test_equilateral_symmetry(self):
        e = EdgeLengths(1.3 * (1 - np.eye(3)))
        res = project(e, HYPERBOLIC, 2)
        assert np.allclose(res.foot.coords, [0.5, 0.0, 0.5], atol=1e-12)

    def test_foot_model_on_hyperboloid(self, table_simplex):
        res = project(table_simplex, HYPERBOLIC, 3)
        q = curved_gram(table_simplex, HYPERBOLIC)
        assert hull_inner_product(q, res.foot_model, res.foot_model) == \
            pytest.approx(-1.0, abs=1e-9)

    def test_altitude_matches_brute_minimization(self):
        rng = np.random.default_rng(43)
        for n in (2, 3):
            e, vertex, res = inside_projection_case(
                rng, random_hyperbolic, HYPERBOLIC, n)
            emb = embed(e, HYPERBOLIC)
            bf = brute_project(emb, vertex)
            v = BarycentricPoint.vertex(vertex, e.num_vertices)
            assert res.altitude == pytest.approx(
                brute_distance(emb, v, bf), abs=1e-6)
            assert np.max(np.abs(res.foot.coords - bf.coords)) < 1e-6

    def test_minimality_over_sampled_face(self, table_simplex):
        rng = np.random.default_rng(47)
        res = project(table_simplex, HYPERBOLIC, 1)
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
            res = project(e, HYPERBOLIC, vertex)
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
        res = project(table_simplex, HYPERBOLIC, 1)
        v1 = BarycentricPoint.vertex(1, 4)
        pp = hull_inner_product(q, res.foot, res.foot)
        vp = hull_inner_product(q, v1, res.foot)
        minors = [q.matrix.minor(1, i) for i in range(1, 5)]
        denom = sum((-1.0) ** (i + 1) * minors[i - 1] for i in range(2, 5))
        assert -pp / vp == pytest.approx(minors[0] / denom, rel=1e-8)

    def test_not_realizable_rejected(self):
        e = EdgeLengths(COLLINEAR_HYPERBOLIC_EDGES)
        with pytest.raises(NotRealizableInput):
            project(e, HYPERBOLIC, 1)

    def test_flat_set_realizable_at_tol_zero_projects_or_is_degenerate(self):
        # At tol 0 the noise minors of the foot from vertex 1 put its squared
        # chord below -SQUARED_DISTANCE_FLOOR: that foot is ProjectionDegenerate.
        flat = EdgeLengths(FLAT_HYPERBOLIC_TETRAHEDRON)
        assert check(flat, HYPERBOLIC, 0.0).verdict is Verdict.NOT_REALIZABLE
        e = flat.permuted(FLAT_TOL0_ORDERS["hyperbolic"])
        for tol in (1e-9, 1e-12, 1e-15):
            assert check(e, HYPERBOLIC, tol).verdict is Verdict.DEGENERATE
        assert check(e, HYPERBOLIC, 0.0).verdict is Verdict.REALIZABLE
        with pytest.raises(ProjectionDegenerate, match="foot is not determined: squared chord"):
            project(e, HYPERBOLIC, 1, 0.0)
        for vertex in (2, 3, 4):
            assert project(e, HYPERBOLIC, vertex, 0.0).altitude == 0.0

    def test_vanishing_minor_sum_is_degenerate(self, monkeypatch, table_simplex):
        monkeypatch.setattr(SymMatrix, "minor", lambda self, i, j: 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ProjectionDegenerate,
                               match="signed first-row minors sum to zero"):
                project(table_simplex, HYPERBOLIC, 1)

    def test_hull_route_would_fail(self):
        # Regression for the near-collinear configuration: the induced form
        # on the vertex hull is not positive definite, so the flat in-hull
        # projection recipe is unusable even though a small perturbation of
        # the collinear triple is a legitimate hyperbolic triangle.
        g = np.array(COLLINEAR_HYPERBOLIC_EDGES)
        g[0, 2] *= 0.98
        g[2, 0] *= 0.98
        e = EdgeLengths(g)
        assert check(e, HYPERBOLIC).verdict is Verdict.REALIZABLE
        chord = np.sqrt(2.0 * np.cosh(e.gamma) - 2.0)
        np.fill_diagonal(chord, 0.0)
        hull_gram = euclidean_gram(EdgeLengths(chord), apex=1).matrix
        assert not hull_gram.is_positive_definite()
        # The synthetic route still produces a valid projection.
        res = project(e, HYPERBOLIC, 1)
        assert abs(res.foot.coords.sum() - 1.0) < 1e-9


def regular_altitude(k, a):
    """Altitude of the regular hyperbolic simplex with k vertices and edge a:
    sinh^2 h = (C - 1) ((k - 1) + 1/C) / ((k - 2) + 1/C) with C = cosh a."""
    c = math.cosh(a)
    return math.asinh(math.sqrt((c - 1.0) * ((k - 1) + 1.0 / c) / ((k - 2) + 1.0 / c)))


class TestLongHyperbolicEdges:
    """Unit-model edges into the hundreds, where the first-row minors of the
    vertex Gram matrix leave float64 unless they are balanced first (from
    edge ~354 at k = 3, ~236 at k = 4 and ~140 at k = 6)."""

    @pytest.mark.parametrize("kappa", [-1.0, -4.0])
    @pytest.mark.parametrize("k, edge", [(3, 300.0), (3, 360.0), (3, 500.0), (3, 709.0),
                                         (4, 200.0), (4, 240.0), (4, 500.0), (4, 709.0),
                                         (6, 120.0), (6, 150.0), (6, 500.0), (6, 708.0)])
    def test_regular_foot_is_the_face_centroid(self, kappa, k, edge):
        c = CurvatureSpec(kappa)
        e = EdgeLengths(edge / c.scale * (1 - np.eye(k)))
        res = project(e, c, 1)
        assert res.foot.coords[0] == 0.0
        assert np.allclose(res.foot.coords[1:], 1.0 / (k - 1), rtol=0, atol=1e-15)
        assert res.altitude * c.scale == pytest.approx(regular_altitude(k, edge), rel=1e-14)
        assert res.inside_face
        lift = res.foot_model.coords[1:]
        assert (lift > 0).all() and np.allclose(lift, lift.mean(), rtol=1e-14, atol=0)

    # Foot, altitude and lift from vertex 1, computed with 1000-digit arithmetic
    # (60 digits find these Gram matrices singular).  The near-regular sets
    # balance every row alike; the graded tetrahedron (vertices at distances
    # 150..153 from a point, in tetrahedral directions) balances its rows by
    # different powers of two.
    REFERENCES = {
        "tetrahedron": (
            [[0, 300, 300.2, 299.9], [300, 0, 300.1, 300.3],
             [300.2, 300.1, 0, 299.8], [299.9, 300.3, 299.8, 0]],
            [0.0, 0.4473055699866825, 0.068513452497898, 0.48418097751541944],
            150.48871478262893,
            [0.0, 5.398991301972645e-66, 8.26959373913632e-67, 5.844078548505869e-66]),
        "triangle": (
            [[0, 500, 500.3], [500, 0, 499.6], [500.3, 499.6, 0]],
            [0.0, 0.5744425168116618, 0.42555748318833825],
            251.04314718055994,
            [0.0, 3.7877612158972457e-109, 2.8060425243281856e-109]),
        "6-vertex": (
            [[0.0, 149.89, 149.92, 150.12, 150.2, 149.86],
             [149.89, 0.0, 149.94, 149.87, 150.04, 150.05],
             [149.92, 149.94, 0.0, 149.99, 150.19, 150.12],
             [150.12, 149.87, 149.99, 0.0, 149.91, 150.15],
             [150.2, 150.04, 150.19, 149.91, 0.0, 149.83],
             [149.86, 150.05, 150.12, 150.15, 149.83, 0.0]],
            [0.0, 0.25870818584306454, 0.27723235760709763, 0.1021685237936828,
             0.007473796202539847, 0.3544171365536152],
            75.4065014194144,
            [0.0, 1.1308962545211548e-33, 1.211871336147522e-33, 4.466113065255712e-34,
             3.2670354457333945e-35, 1.5492707003470372e-33]),
        "graded tetrahedron": (
            [[0.0, 300.595, 301.595, 302.595], [300.595, 0.0, 302.595, 303.595],
             [301.595, 302.595, 0.0, 304.595], [302.595, 303.595, 304.595, 0.0]],
            [0.0, 0.6652409557748219, 0.24472847105479764, 0.09003057317038046],
            150.34680614433407,
            [0.0, 1.8660240544770256e-66, 6.864718863734772e-67, 2.5253889393898067e-67]),
    }

    @pytest.mark.parametrize("name", REFERENCES)
    def test_matches_reference(self, name):
        edges, foot, altitude, lift = self.REFERENCES[name]
        res = project(EdgeLengths(edges), HYPERBOLIC, 1)
        assert res.altitude == pytest.approx(altitude, rel=1e-15)
        assert np.allclose(res.foot.coords, foot, rtol=0, atol=1e-14)
        assert np.allclose(res.foot_model.coords, lift, rtol=1e-13, atol=0)


class TestBalancedMinors:
    """Every curved foot takes its minors on D M D, M the bordered matrix ``check``
    classifies; rows whose largest |m_ij| reaches 4 balance by a power of two below 1
    (here M's vertex rows by the same powers as the vertex Gram Q's rows)."""

    # Edges between 2 and 8: the rows' largest |q_ij| have frexp exponents
    # 10, 6, 10 and 8, so they balance by 2^-4, 2^-2, 2^-4 and 2^-3.  The foot,
    # altitude and lift from vertex 1 were computed with 50-digit mpmath from
    # the solve Q_ff a = Q_f1 on the face rows: foot a / sum(a), lift
    # a / sqrt(-a.Q_f1) and altitude arccosh(sqrt(-a.Q_f1)).
    EDGES = [[0, 4.4, 7.3, 5.7], [4.4, 0, 3.9, 2.3], [7.3, 3.9, 0, 5.1], [5.7, 2.3, 5.1, 0]]
    FOOT = [0.0, 0.92175319930979658, 0.012048092669294084, 0.066198708020909335]
    ALTITUDE = 4.3422354855497294
    LIFT = [0.0, 0.62883990239988962, 0.0082194685344589229, 0.045162185628472471]

    def test_rows_balance_by_different_powers(self):
        q = curved_gram(EdgeLengths(self.EDGES), HYPERBOLIC).matrix.data
        assert np.frexp(np.abs(q).max(axis=1))[1].tolist() == [10, 6, 10, 8]

    def test_matches_reference(self):
        res = project(EdgeLengths(self.EDGES), HYPERBOLIC, 1)
        assert res.altitude == pytest.approx(self.ALTITUDE, rel=1e-15)
        assert np.allclose(res.foot.coords, self.FOOT, rtol=0, atol=1e-15)
        assert np.allclose(res.foot_model.coords, self.LIFT, rtol=1e-14, atol=0)
        assert res.inside_face


class TestSphericalProject:
    def test_equilateral_symmetry(self):
        e = EdgeLengths((math.pi / 3) * (1 - np.eye(3)))
        res = project(e, SPHERICAL, 1)
        assert np.allclose(res.foot.coords, [0.0, 0.5, 0.5], atol=1e-12)

    def test_degenerate_rejected(self):
        e = EdgeLengths([[0, 0.1, 0.2], [0.1, 0, 0.1], [0.2, 0.1, 0]])
        with pytest.raises(NotRealizableInput):
            project(e, SPHERICAL, 1)

    def test_matches_brute_minimization(self):
        rng = np.random.default_rng(59)
        for n in (2, 3):
            e, vertex, res = inside_projection_case(
                rng, random_spherical, SPHERICAL, n)
            emb = embed(e, SPHERICAL)
            bf = brute_project(emb, vertex)
            assert np.max(np.abs(res.foot.coords - bf.coords)) < 1e-6
            v = BarycentricPoint.vertex(vertex, e.num_vertices)
            assert res.altitude <= brute_distance(emb, v, bf) + 1e-8

    def test_foot_model_on_sphere(self):
        rng = np.random.default_rng(61)
        e = random_spherical(rng, 3)
        res = project(e, SPHERICAL, 2)
        q = curved_gram(e, SPHERICAL)
        assert hull_inner_product(q, res.foot_model, res.foot_model) == \
            pytest.approx(1.0, abs=1e-9)


class TestDispatchAndSubface:
    def test_general_kappa_altitude_scaling(self, table_simplex):
        res_unit = project(table_simplex.scaled(2.0), HYPERBOLIC, 1)
        res = project(table_simplex, CurvatureSpec(-4.0), 1)
        assert np.allclose(res.foot.coords, res_unit.foot.coords)
        assert res.altitude == pytest.approx(res_unit.altitude / 2.0, rel=1e-12)

    @pytest.mark.parametrize("kappa", [-4.0, -0.3, 0.3, 4.0])
    def test_general_kappa_is_unit_model_of_rescaled_edges(self, kappa):
        c = CurvatureSpec(kappa)
        scale = math.sqrt(abs(kappa))
        unit_c = CurvatureSpec(math.copysign(1.0, kappa))
        rng = np.random.default_rng(int(abs(kappa) * 10) + 1)
        for n in (2, 3, 4):
            e = random_simplex(rng, n, c)
            for vertex in range(1, n + 2):
                res = project(e, c, vertex)
                unit = project(e.scaled(scale), unit_c, vertex)
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
            res = project(e, HYPERBOLIC, 1)
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
        res = project(e, HYPERBOLIC, 4)
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
        assert not res.foot_model.coords.flags.writeable  # lifted from the mirrored foot

    def test_antipode_4simplex(self):
        e = EdgeLengths(ANTIPODE_4SIMPLEX)
        res = project(e, SPHERICAL, 4)
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


def classical_foot(e: EdgeLengths, kappa: float, vertex: int) -> tuple[np.ndarray, float]:
    """50-digit foot from ``vertex`` by the classical route on the float64 edges, and at
    kappa = 0 its altitude (NaN at kappa != 0).  Curved: the cos/cosh vertex Gram Q of the
    unit model, y = Q^-1 e_vertex by LU, and y over the face divided by its sum.  Euclidean:
    the apex Gram m at ``vertex``, w = m^-1 1 by LU, the foot w / sum(w) and the altitude
    1 / sqrt(sum(w)).  The foot is 0 at ``vertex``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        q = mpmath.matrix(classical_gram(e, kappa, vertex))
        if kappa == 0:  # the apex Gram has no row for ``vertex``
            y = list(mpmath.lu_solve(q, mpmath.ones(q.rows, 1)))
            y.insert(vertex - 1, mpmath.mpf(0))
        else:
            unit = mpmath.matrix(q.rows, 1)
            unit[vertex - 1] = 1
            y = list(mpmath.lu_solve(q, unit))
            y[vertex - 1] = 0
        total = mpmath.fsum(y)
        altitude = float(1 / mpmath.sqrt(total)) if kappa == 0 else math.nan
        return np.array([float(v / total) for v in y]), altitude


class TestCurvedFootHighPrecision:
    """Curved feet of well-shaped simplices against 50-digit references, within
    1e-13 of the largest coordinate, from unit curvature down to |kappa| L^2 = 1e-12
    (L the longest edge), where the vertex Gram lies within 1e-12 of rank one."""

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("kappa,t", [(1.0, None), (-1.0, None), (0.3, None),
                                         (None, 1e-9), (None, -1e-9), (None, -1e-12)],
                             ids=["k=1", "k=-1", "k=0.3", "kL2=1e-9", "kL2=-1e-9", "kL2=-1e-12"])
    def test_every_vertex(self, kappa, t, n):
        rng = np.random.default_rng([n, 32])
        if kappa is None:  # kappa = t / L^2 on a Euclidean set
            e = well_shaped(rng, n, EUCLIDEAN)
            kappa = t / e.longest ** 2
        else:
            e = well_shaped(rng, n, CurvatureSpec(kappa))
        for vertex in range(1, n + 2):
            reference, _ = classical_foot(e, kappa, vertex)
            foot = project(e, CurvatureSpec(kappa), vertex).foot.coords
            assert np.abs(foot - reference).max() <= 1e-13 * np.abs(reference).max()


class TestEuclideanFootHighPrecision:
    """Euclidean feet of the same well-shaped simplices, from M's solve, against
    50-digit apex-Gram references: each foot within 1e-13 of its largest coordinate,
    and each altitude within 1e-13 relative."""

    @pytest.mark.parametrize("n", [3, 10])
    def test_every_vertex(self, n):
        e = well_shaped(np.random.default_rng([n, 32]), n, EUCLIDEAN)
        for vertex in range(1, n + 2):
            reference, altitude = classical_foot(e, 0.0, vertex)
            res = project(e, EUCLIDEAN, vertex)
            assert np.abs(res.foot.coords - reference).max() <= 1e-13 * np.abs(reference).max()
            assert res.altitude == pytest.approx(altitude, rel=1e-13, abs=0.0)

    def test_corpus_feet_match_exact_solves(self):
        # Every foot and squared altitude of the corpus's realizable kappa = 0 sets against
        # the exact solve of M y = e_v on the float64 edges (``exact_feet``), within twice
        # its data error (the same solve on the float64 E = fl(gamma^2 / 2)), floored at
        # 1e-13: the foot relative to its largest coordinate.  The worst ratio is 1.03, for
        # a foot and an altitude of k=0.0 n=10 real0.
        feet = 0
        for label, e in corpus_euclidean_sets():
            try:
                if check(e, EUCLIDEAN).verdict is not Verdict.REALIZABLE:
                    continue
            except GramOverflow:
                continue
            g = [[Fraction(v) for v in row] for row in e.gamma.tolist()]
            exact = exact_feet([[x * x / 2 for x in row] for row in g])
            rounded = exact_feet([[Fraction(v) for v in row]
                                  for row in (0.5 * e.gamma ** 2).tolist()])
            for vertex, ((foot, a2), (foot_r, a2_r)) in enumerate(zip(exact, rounded), 1):
                res = project(e, EUCLIDEAN, vertex)
                scale = max(map(abs, foot))
                error = max(abs(Fraction(x) - f) for x, f in zip(res.foot.coords.tolist(), foot))
                data_error = max(abs(r - f) for r, f in zip(foot_r, foot))
                assert error <= 2 * max(data_error, scale / 10 ** 13), (label, vertex)
                error, data_error = abs(Fraction(res.altitude) ** 2 / a2 - 1), abs(a2_r / a2 - 1)
                assert error <= 2 * max(data_error, Fraction(1, 10 ** 13)), (label, vertex)
                feet += 1
        assert feet >= 81
