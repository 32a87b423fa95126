"""Tests for the model-space embedding oracle itself.

The oracle is the independent ground truth for the synthetic formulas, so it
gets its own checks: embeddings must land on the right quadric, reproduce the
input edge lengths, and its brute-force searches must agree with hand-checked
configurations.
"""

import math

import numpy as np
import pytest

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    DegenerateDirection,
    EUCLIDEAN,
    EdgeLengths,
    EmbeddingInconsistency,
    HYPERBOLIC,
    ModelSpace,
    NotRealizableInput,
    SPHERICAL,
    brute_distance,
    brute_project,
    check,
    distance,
    edge_lengths_of,
    embed,
)

from curvsimplex.oracle import GRID_POINT_BUDGET, _embed_minkowski, _grid_resolution, _simplex_grid

from conftest import (
    COLLINEAR_HYPERBOLIC_EDGES,
    random_euclidean,
    random_hyperbolic,
    random_simplex,
    random_spherical,
)


class TestEmbedRoundTrip:
    """embed() followed by pairwise model distances must return the input."""

    def test_euclidean(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            e = random_euclidean(rng, n)
            emb = embed(e, EUCLIDEAN)
            assert emb.model is ModelSpace.EUCLIDEAN
            assert np.max(np.abs(edge_lengths_of(emb).gamma - e.gamma)) < 1e-8

    def test_hyperbolic(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            e = random_hyperbolic(rng, n)
            emb = embed(e, HYPERBOLIC)
            assert emb.model is ModelSpace.MINKOWSKI
            assert np.max(np.abs(edge_lengths_of(emb).gamma - e.gamma)) < 1e-8

    def test_spherical(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            e = random_spherical(rng, n)
            emb = embed(e, SPHERICAL)
            assert emb.model is ModelSpace.SPHERE
            assert np.max(np.abs(edge_lengths_of(emb).gamma - e.gamma)) < 1e-8

    def test_general_curvature(self):
        rng = np.random.default_rng(14)
        for kappa in (-4.0, -0.25, 0.25, 0.3, 4.0):
            c = CurvatureSpec(kappa)
            e = random_simplex(rng, 3, c)
            emb = embed(e, c)
            assert np.max(np.abs(edge_lengths_of(emb).gamma - e.gamma)) < 1e-8


class TestIndependentRoute:
    """embed builds its own classical apex or cos/cosh vertex Gram: it never calls a
    library builder."""

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0, -0.3, 4.0])
    def test_embed_without_the_library_gram_builder(self, monkeypatch, kappa):
        c = CurvatureSpec(kappa)
        e = random_simplex(np.random.default_rng(15), 3, c)
        check(e, c)  # stores the verdict that embed's own check reads

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called a library Gram builder")

        for builder in ("curved_gram", "euclidean_gram"):
            monkeypatch.setattr(f"curvsimplex.domain.{builder}", refuse)
            monkeypatch.setattr(f"curvsimplex.oracle.{builder}", refuse, raising=False)
        emb = embed(e, c)
        assert np.max(np.abs(edge_lengths_of(emb).gamma - e.gamma)) < 1e-8


class TestTinyCurvature:
    """Coordinates of size 1/sqrt|kappa| are measured on the unit model."""

    def test_distances_of_a_wide_triangle(self):
        # Unit-model edge 20 at kappa = -1e-300; the coordinates reach 1.3e154,
        # so squaring them overflows.  Their unit-model <p, p> = -1 rounds by
        # about 6e-8 at size 1.3e4, which bounds every distance to ~3e-9.
        e = EdgeLengths(2e151 * (1 - np.eye(3)))
        c = CurvatureSpec(-1e-300)
        emb = embed(e, c)
        vertex, mid = BarycentricPoint.vertex(1, 3), BarycentricPoint([0.5, 0.5, 0.0])
        assert brute_distance(emb, vertex, mid) == pytest.approx(1e151, rel=1e-8)
        assert brute_distance(emb, vertex, mid) == pytest.approx(
            distance(e, c, vertex, mid), rel=1e-8)
        recovered = edge_lengths_of(emb).gamma
        assert np.allclose(recovered, e.gamma, rtol=1e-8, atol=0.0)


class TestModelConstraints:
    def test_minkowski_vertices_on_upper_sheet(self, table_simplex):
        emb = embed(table_simplex, HYPERBOLIC)
        for v in emb.vertices:
            assert emb.form(v, v) == pytest.approx(-1.0, abs=1e-9)
            assert v[-1] > 0

    def test_minkowski_chords_are_spacelike(self, table_simplex):
        # <v_i - v_j, v_i - v_j> = 2 cosh(gamma_ij) - 2 >= 0.
        emb = embed(table_simplex, HYPERBOLIC)
        k = emb.num_vertices
        for i in range(k):
            for j in range(i + 1, k):
                d = emb.vertices[i] - emb.vertices[j]
                expected = 2.0 * math.cosh(table_simplex.length(i + 1, j + 1)) - 2.0
                assert emb.form(d, d) == pytest.approx(expected, abs=1e-9)
                assert emb.form(d, d) >= 0.0

    def test_sphere_vertices_unit_norm(self):
        rng = np.random.default_rng(21)
        e = random_spherical(rng, 3)
        emb = embed(e, SPHERICAL)
        assert np.allclose(np.linalg.norm(emb.vertices, axis=1), 1.0, atol=1e-9)

    def test_general_kappa_radius(self):
        rng = np.random.default_rng(22)
        c = CurvatureSpec(-4.0)
        e = random_simplex(rng, 2, c)
        emb = embed(e, c)
        for v in emb.vertices:
            assert emb.form(v, v) == pytest.approx(-0.25, abs=1e-9)

    def test_collinear_triple_rejected(self):
        e = EdgeLengths(COLLINEAR_HYPERBOLIC_EDGES)
        with pytest.raises(NotRealizableInput):
            embed(e, HYPERBOLIC)


class TestBruteDistance:
    def test_reference_pair(self, table_simplex):
        emb = embed(table_simplex, HYPERBOLIC)
        p = BarycentricPoint([0.25, 0.25, 0.25, 0.25])
        q = BarycentricPoint([1 / 3, 1 / 3, 1 / 3, 0.0])
        assert brute_distance(emb, p, q) == pytest.approx(0.63997, abs=1e-4)

    def test_euclidean_reference_pair(self, table_simplex):
        emb = embed(table_simplex, EUCLIDEAN)
        p = BarycentricPoint([0.25, 0.25, 0.25, 0.25])
        q = BarycentricPoint([1 / 3, 1 / 3, 1 / 3, 0.0])
        assert brute_distance(emb, p, q) == pytest.approx(11.0 / 12.0, abs=1e-9)

    def test_vertices_recover_edges(self, table_simplex):
        emb = embed(table_simplex, HYPERBOLIC)
        x = BarycentricPoint.vertex(1, 4)
        y = BarycentricPoint.vertex(3, 4)
        assert brute_distance(emb, x, y) == pytest.approx(3.0, abs=1e-9)


class TestBruteProject:
    def test_equilateral_euclidean_midpoint(self):
        e = EdgeLengths([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        emb = embed(e, EUCLIDEAN)
        foot = brute_project(emb, 1)
        assert np.allclose(foot.coords, [0.0, 0.5, 0.5], atol=1e-6)

    def test_reference_euclidean_foot(self, table_simplex):
        emb = embed(table_simplex, EUCLIDEAN)
        foot = brute_project(emb, 1)
        assert np.allclose(foot.coords, [0.0, 0.65625, 0.23264, 0.11111],
                           atol=1e-5)

    def test_reference_hyperbolic_foot(self, table_simplex):
        emb = embed(table_simplex, HYPERBOLIC)
        foot = brute_project(emb, 1)
        assert np.allclose(foot.coords, [0.0, 0.80146, 0.15190, 0.04665],
                           atol=1e-5)

    def test_edge_face(self):
        # Projecting onto a single opposite vertex returns that vertex.
        e = EdgeLengths([[0.0, 1.5], [1.5, 0.0]])
        emb = embed(e, EUCLIDEAN)
        foot = brute_project(emb, 1)
        assert np.allclose(foot.coords, [0.0, 1.0])


class TestGuards:
    """Each oracle guard raises on the input it names, and on no valid one."""

    def test_minkowski_needs_one_negative_eigenvalue(self):
        with pytest.raises(EmbeddingInconsistency, match="exactly one negative"):
            _embed_minkowski(np.diag([1.0, -1.0, -1.0]))

    def test_minkowski_rejects_points_on_both_sheets(self):
        # Rows (x, y, t) on -t^2 + x^2 + y^2 = -1: two on the upper sheet, one on the lower.
        r = math.sqrt(2.0)
        v = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, r], [0.0, -1.0, -r]])
        with pytest.raises(EmbeddingInconsistency, match="both hyperboloid sheets"):
            _embed_minkowski(v @ np.diag([1.0, 1.0, -1.0]) @ v.T)

    def test_hull_point_of_the_wrong_length(self, table_simplex):
        emb = embed(table_simplex, HYPERBOLIC)
        with pytest.raises(ValueError, match="does not match the embedding"):
            brute_distance(emb, BarycentricPoint([0.5, 0.5]), BarycentricPoint.vertex(1, 4))

    def test_sphere_rejects_a_hull_point_of_zero_norm(self):
        emb = embed(random_spherical(np.random.default_rng(23), 3), SPHERICAL)
        with pytest.raises(DegenerateDirection, match="non-positive norm"):
            brute_distance(emb, BarycentricPoint.hull(np.zeros(4)), BarycentricPoint.vertex(1, 4))

    @pytest.mark.parametrize("vertex", [0, 5, np.int64(5)])
    def test_brute_project_vertex_out_of_range(self, table_simplex, vertex):
        emb = embed(table_simplex, EUCLIDEAN)
        with pytest.raises(IndexError, match=f"vertex {vertex} out of range 1..4"):
            brute_project(emb, vertex)

    @pytest.mark.parametrize("vertex", [1.5, 2.0, np.float64(2.0)])
    def test_brute_project_vertex_not_an_integer(self, table_simplex, vertex):
        # A TypeError of the oracle's own, not numpy's IndexError on a float index.
        emb = embed(table_simplex, EUCLIDEAN)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            brute_project(emb, vertex)


class TestSimplexGrid:
    """The face grid ``brute_project`` starts from, on every rung of the resolution
    ladder whose grid fits the point budget."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_every_point_once_in_lexicographic_order(self, dim):
        ladder = [r for r in (64, 32, 16, 8, 4, 2)
                  if math.comb(r + dim - 1, dim - 1) <= GRID_POINT_BUDGET]
        assert _grid_resolution(dim) == ladder[0]
        for r in ladder:
            grid = _simplex_grid(dim, r)
            assert grid.shape == (math.comb(r + dim - 1, dim - 1), dim)
            counts = grid * r
            assert np.array_equal(counts, np.round(counts)) and counts.min() >= 0
            assert np.all(np.abs(grid.sum(axis=1) - 1.0) <= 1e-15)
            rows = [tuple(row) for row in counts.astype(int).tolist()]
            assert all(a < b for a, b in zip(rows, rows[1:]))


class TestDeterminism:
    def test_embed_repeatable(self, table_simplex):
        a = embed(table_simplex, HYPERBOLIC)
        b = embed(table_simplex, HYPERBOLIC)
        assert np.array_equal(a.vertices, b.vertices)

    def test_brute_project_repeatable(self, table_simplex):
        emb = embed(table_simplex, HYPERBOLIC)
        a = brute_project(emb, 2)
        b = brute_project(emb, 2)
        assert np.array_equal(a.coords, b.coords)
