"""Domain types and Gram-builder tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    EUCLIDEAN,
    Geometry,
    GramOverflow,
    HYPERBOLIC,
    OutsideLightCone,
    SPHERICAL,
    WrongModel,
    curved_gram,
    distance,
    euclidean_gram,
    hull_inner_product,
    lift_to_model,
    model_gram,
    unit_model,
)

from conftest import TABLE_3SIMPLEX, random_hyperbolic, random_interior_point


class TestEdgeLengths:
    def test_basic(self, table_simplex):
        assert table_simplex.n == 3
        assert table_simplex.num_vertices == 4
        assert table_simplex.length(2, 4) == 5.0

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            EdgeLengths([[1.0, 2.0], [2.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            EdgeLengths([[0.0, 2.0], [3.0, 0.0]])

    def test_rejects_nonpositive_edge(self):
        with pytest.raises(ValueError, match="positive"):
            EdgeLengths([[0.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EdgeLengths([[0.0, bad, 1.0], [bad, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            EdgeLengths([[bad, 1.0], [1.0, 0.0]])

    def test_scaled(self, table_simplex):
        assert table_simplex.scaled(2.0).length(1, 2) == 4.0

    def test_permuted_roundtrip(self, table_simplex):
        p = table_simplex.permuted([3, 1, 4, 2])
        assert p.length(1, 2) == table_simplex.length(3, 1)

    def test_restricted(self, table_simplex):
        sub = table_simplex.restricted([2, 3, 4])
        assert sub.n == 2
        assert sub.length(1, 2) == table_simplex.length(2, 3)


class TestCurvatureSpec:
    @pytest.mark.parametrize("kappa,cls", [
        (0.0, Geometry.EUCLIDEAN),
        (-1.0, Geometry.HYPERBOLIC),
        (1.0, Geometry.SPHERICAL),
        (-0.25, Geometry.GENERAL),
        (4.0, Geometry.GENERAL),
    ])
    def test_classification(self, kappa, cls):
        assert CurvatureSpec(kappa).classification is cls

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CurvatureSpec(bad)


class TestBarycentricPoint:
    def test_normalizes_small_deviation(self):
        p = BarycentricPoint([0.5, 0.5 + 5e-7])
        assert p.coords.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError, match="sum"):
            BarycentricPoint([0.5, 0.6])

    @pytest.mark.parametrize("coords", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0],
                                        [0.5, 0.5, -math.inf]])
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError, match="sum"):
            BarycentricPoint(coords)

    def test_negative_flag(self):
        assert BarycentricPoint([1.5, -0.5]).has_negative
        assert not BarycentricPoint([0.5, 0.5]).has_negative

    def test_vertex(self):
        v = BarycentricPoint.vertex(2, 4)
        assert np.allclose(v.coords, [0, 1, 0, 0])

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_sum_one_after_normalization(self, weights):
        total = sum(weights)
        p = BarycentricPoint([w / total for w in weights])
        assert abs(p.coords.sum() - 1.0) <= 1e-12


class TestEuclideanGram:
    def test_reference_apex_1(self, table_simplex):
        q = euclidean_gram(table_simplex, apex=1)
        expected = [[4.0, -1.5, -2.5], [-1.5, 9.0, 8.0], [-2.5, 8.0, 16.0]]
        assert np.array_equal(q.matrix.data, expected)

    def test_equilateral(self):
        e = EdgeLengths([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        q = euclidean_gram(e, apex=3)
        assert np.allclose(q.matrix.data, [[1.0, 0.5], [0.5, 1.0]])

    def test_degenerate_line(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        q = euclidean_gram(e, apex=3)
        assert np.allclose(q.matrix.data, [[9.0, 6.0], [6.0, 4.0]])

    def test_diagonal_squares_edge_to_apex(self, table_simplex):
        for apex in range(1, 5):
            q = euclidean_gram(table_simplex, apex)
            others = [v for v in range(1, 5) if v != apex]
            for row, v in enumerate(others):
                assert q.matrix.data[row, row] == pytest.approx(
                    table_simplex.length(v, apex) ** 2)


class TestCurvedGram:
    def test_reference_hyperbolic(self, table_simplex):
        q = curved_gram(table_simplex, HYPERBOLIC)
        expected = -np.cosh(np.array(TABLE_3SIMPLEX))
        assert np.array_equal(q.matrix.data, expected)
        assert np.all(np.diag(q.matrix.data) == -1.0)

    def test_spherical_equilateral(self):
        e = EdgeLengths((math.pi / 3) * (1 - np.eye(3)))
        q = curved_gram(e, SPHERICAL)
        assert np.allclose(q.matrix.data, [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]])

    def test_general_kappa_reduces_to_unit(self, table_simplex):
        q4 = curved_gram(table_simplex, CurvatureSpec(-4.0))
        unit = curved_gram(table_simplex.scaled(2.0), HYPERBOLIC)
        assert np.allclose(q4.matrix.data, unit.matrix.data / 4.0)

    def test_kappa_zero_rejected(self, table_simplex):
        with pytest.raises(WrongModel):
            curved_gram(table_simplex, EUCLIDEAN)

    @pytest.mark.parametrize("kappa,edge", [(-1.0, 720.0), (-4.0, 360.0), (-0.25, 1420.0)])
    def test_hyperbolic_overflow_refused(self, kappa, edge):
        e = EdgeLengths(edge * (1 - np.eye(3)))
        with pytest.raises(GramOverflow):
            curved_gram(e, CurvatureSpec(kappa))
        with pytest.raises(GramOverflow):
            model_gram(e, CurvatureSpec(kappa))

    def test_hyperbolic_below_overflow_bound_is_finite(self):
        e = EdgeLengths(709.0 * (1 - np.eye(3)))
        assert np.all(np.isfinite(curved_gram(e, HYPERBOLIC).matrix.data))


class TestModelGram:
    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0])
    def test_unit_curvatures_are_their_own_model(self, table_simplex, kappa):
        c = CurvatureSpec(kappa)
        assert unit_model(table_simplex, c) == (table_simplex, c)

    def test_kappa_zero_is_apex_gram_at_last_vertex(self, table_simplex):
        q = model_gram(table_simplex, EUCLIDEAN)
        assert q.apex == table_simplex.num_vertices
        assert np.array_equal(q.matrix.data, euclidean_gram(table_simplex, 4).matrix.data)

    @pytest.mark.parametrize("kappa", [-4.0, -1.0, -0.3, 0.3, 1.0, 4.0])
    def test_curved_is_unit_model_of_rescaled_edges(self, table_simplex, kappa):
        q = model_gram(table_simplex, CurvatureSpec(kappa))
        unit = HYPERBOLIC if kappa < 0 else SPHERICAL
        scaled = table_simplex.scaled(math.sqrt(abs(kappa)))
        unit_edges, unit_c = unit_model(table_simplex, CurvatureSpec(kappa))
        assert unit_c == unit
        assert np.array_equal(unit_edges.gamma, scaled.gamma)
        assert q.apex is None
        assert q.curvature == unit
        assert np.array_equal(q.matrix.data, curved_gram(scaled, unit).matrix.data)


class TestHullInnerProduct:
    def test_vertex_diagonal(self, table_simplex):
        q = curved_gram(table_simplex, HYPERBOLIC)
        v = BarycentricPoint.vertex(2, 4)
        assert hull_inner_product(q, v, v) == -1.0

    def test_reference_values(self, table_simplex):
        q = curved_gram(table_simplex, HYPERBOLIC)
        p = BarycentricPoint([0.25] * 4)
        r = BarycentricPoint([1 / 3, 1 / 3, 1 / 3, 0.0])
        assert hull_inner_product(q, p, r) == pytest.approx(-16.40517, abs=1e-4)
        assert hull_inner_product(q, p, p) == pytest.approx(-19.34049, abs=1e-4)
        assert hull_inner_product(q, r, r) == pytest.approx(-9.47513, abs=1e-4)

    def test_bilinear_symmetric(self, table_simplex):
        rng = np.random.default_rng(11)
        q = curved_gram(table_simplex, HYPERBOLIC)
        for _ in range(20):
            x = BarycentricPoint(random_interior_point(rng, 4))
            y = BarycentricPoint(random_interior_point(rng, 4))
            z = BarycentricPoint(random_interior_point(rng, 4))
            assert hull_inner_product(q, x, y) == pytest.approx(
                hull_inner_product(q, y, x), rel=1e-14)
            mix = BarycentricPoint.hull(0.3 * x.coords + 0.7 * y.coords)
            assert hull_inner_product(q, mix, z) == pytest.approx(
                0.3 * hull_inner_product(q, x, z) + 0.7 * hull_inner_product(q, y, z),
                rel=1e-12)


class TestLiftToModel:
    def test_already_on_hyperboloid(self, table_simplex):
        q = curved_gram(table_simplex, HYPERBOLIC)
        v = BarycentricPoint.vertex(1, 4)
        lifted = lift_to_model(q, v)
        assert np.allclose(lifted.coords, v.coords)

    def test_reference_foot_lift(self, table_simplex):
        q = curved_gram(table_simplex, HYPERBOLIC)
        raw = np.array([0.0, 0.80146, 0.15190, 0.04665])
        p = BarycentricPoint(raw / raw.sum())
        lifted = lift_to_model(q, p)
        assert np.allclose(lifted.coords, [0.0, 0.22222, 0.04212, 0.01293], atol=1e-4)
        assert hull_inner_product(q, lifted, lifted) == pytest.approx(-1.0, abs=1e-9)

    def test_spherical_vertex_fixed(self):
        e = EdgeLengths((math.pi / 3) * (1 - np.eye(3)))
        q = curved_gram(e, SPHERICAL)
        v = BarycentricPoint.vertex(3, 3)
        assert np.allclose(lift_to_model(q, v).coords, v.coords)

    def test_norm_is_inverse_curvature(self):
        rng = np.random.default_rng(5)
        for kappa in (-4.0, -1.0, -0.25):
            c = CurvatureSpec(kappa)
            e = random_hyperbolic(rng, 3).scaled(1.0 / math.sqrt(-kappa))
            q = curved_gram(e, c)
            x = BarycentricPoint(random_interior_point(rng, 4))
            lifted = lift_to_model(q, x)
            assert hull_inner_product(q, lifted, lifted) == pytest.approx(
                1.0 / kappa, abs=1e-9)

    def test_outside_light_cone_rejected(self, table_simplex):
        q = curved_gram(table_simplex, HYPERBOLIC)
        # A difference-like direction with coordinates summing to ~0 is
        # spacelike; feed it as raw hull coefficients.
        x = BarycentricPoint.hull([1.0, -1.0, 0.0, 0.0])
        with pytest.raises(OutsideLightCone):
            lift_to_model(q, x)


class TestScalingLaw:
    @pytest.mark.parametrize("kappa", [-0.25, -4.0])
    def test_hyperbolic_scaling(self, table_simplex, kappa):
        rng = np.random.default_rng(2)
        scale = math.sqrt(-kappa)
        x = BarycentricPoint(random_interior_point(rng, 4))
        y = BarycentricPoint(random_interior_point(rng, 4))
        d_kappa = distance(table_simplex, CurvatureSpec(kappa), x, y)
        d_unit = distance(table_simplex.scaled(scale), HYPERBOLIC, x, y)
        assert d_kappa == pytest.approx(d_unit / scale, abs=1e-9)

    @pytest.mark.parametrize("kappa", [0.25, 4.0])
    def test_spherical_scaling(self, kappa):
        rng = np.random.default_rng(4)
        from conftest import random_spherical
        scale = math.sqrt(kappa)
        e = random_spherical(rng, 3, max_edge=math.pi / 5).scaled(1.0 / scale)
        x = BarycentricPoint(random_interior_point(rng, 4))
        y = BarycentricPoint(random_interior_point(rng, 4))
        d_kappa = distance(e, CurvatureSpec(kappa), x, y)
        d_unit = distance(e.scaled(scale), SPHERICAL, x, y)
        assert d_kappa == pytest.approx(d_unit / scale, abs=1e-9)
