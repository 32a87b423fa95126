"""Domain types and Gram-builder tests."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    EUCLIDEAN,
    GramMatrix,
    GramOverflow,
    HYPERBOLIC,
    OutsideLightCone,
    SPHERICAL,
    WrongModel,
    check,
    curved_gram,
    distance,
    euclidean_gram,
    hull_inner_product,
    lift_to_model,
    model_gram,
    unit_model,
)
from curvsimplex.symmat import SymMatrix

from conftest import (
    TABLE_3SIMPLEX,
    random_hyperbolic,
    random_interior_point,
    random_simplex,
    random_spherical,
)


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

    @pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400)], ids=["plus", "minus"])
    def test_rejects_int_past_the_float_max(self, big):
        with pytest.raises(ValueError, match="finite"):
            EdgeLengths([[0, big], [big, 0]])

    def test_shortest_and_longest(self, table_simplex):
        assert (table_simplex.shortest, table_simplex.longest) == (2.0, 5.0)

    def test_edges_past_half_the_float_max(self):
        # Symmetrizing as g + g^T would overflow (and warn) here.
        e = EdgeLengths(1.7e308 * (1 - np.eye(3)))
        assert e.longest == 1.7e308
        assert np.all(e.gamma[~np.eye(3, dtype=bool)] == 1.7e308)

    @pytest.mark.parametrize("edge", [1e308, -1e308])
    def test_mixed_signs_near_the_float_max(self, edge):
        # g - g^T would overflow (and warn) here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="symmetric"):
                EdgeLengths([[0.0, edge], [-edge, 0.0]])

    def test_subnormal_edge_stored_as_zero_rejected(self):
        # Halving 5e-324 rounds it to 0, so the stored edge would be 0.
        with pytest.raises(ValueError, match="positive"):
            EdgeLengths([[0.0, 5e-324], [5e-324, 0.0]])

    def test_shortest_is_the_stored_edge(self):
        e = EdgeLengths([[0.0, 1.5e-323], [1.5e-323, 0.0]])
        assert e.shortest == e.gamma[0, 1] == e.length(2, 1)

    def test_scaled(self, table_simplex):
        assert table_simplex.scaled(2.0).length(1, 2) == 4.0

    def test_permuted_roundtrip(self, table_simplex):
        p = table_simplex.permuted([3, 1, 4, 2])
        assert p.length(1, 2) == table_simplex.length(3, 1)

    def test_restricted(self, table_simplex):
        sub = table_simplex.restricted([2, 3, 4])
        assert sub.n == 2
        assert sub.length(1, 2) == table_simplex.length(2, 3)

    @pytest.mark.parametrize("vertices, bad", [([0, 2], 0), ([2, 4], 4), ([-1, 2], -1)])
    def test_restricted_vertex_out_of_range(self, vertices, bad):
        e = EdgeLengths([row[:3] for row in TABLE_3SIMPLEX[:3]])
        with pytest.raises(IndexError, match=rf"vertex {bad} out of range 1\.\.3"):
            e.restricted(vertices)

    @pytest.mark.parametrize("vertices", [[], [2], [2, 2]])
    def test_restricted_needs_two_vertices(self, table_simplex, vertices):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            table_simplex.restricted(vertices)


class TestCurvatureSpec:
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

    # inf + -inf would make numpy warn in the sum; RuntimeWarning is an error here.
    @pytest.mark.parametrize("coords", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0],
                                        [0.5, 0.5, -math.inf], [math.inf, -math.inf, 1.0]])
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError, match="sum"):
            BarycentricPoint(coords)

    def test_rejects_int_past_the_float_max(self):
        with pytest.raises(ValueError, match="finite"):
            BarycentricPoint([10 ** 400, 0, 1])

    def test_vertex(self):
        v = BarycentricPoint.vertex(2, 4)
        assert np.allclose(v.coords, [0, 1, 0, 0])

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_vertex_out_of_range(self, i):
        with pytest.raises(IndexError, match=f"vertex {i} out of range 1..3"):
            BarycentricPoint.vertex(i, 3)

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


    @pytest.mark.parametrize("k, edge", [(4, 1e200), (11, 9e153), (4, 1e-157)])
    def test_squared_edges_outside_float_range_raise(self, k, edge):
        # k * edge^2 overflows, or edge^2 is subnormal.
        e = EdgeLengths(edge * (1 - np.eye(k)))
        with pytest.raises(GramOverflow, match="squaring"):
            euclidean_gram(e, apex=1)
        with pytest.raises(GramOverflow):
            model_gram(e, EUCLIDEAN)

    @pytest.mark.parametrize("edge", [1e150, 1e-150])
    def test_squared_edges_inside_float_range(self, edge):
        q = euclidean_gram(EdgeLengths(edge * (1 - np.eye(4))), apex=1).matrix.data
        assert np.allclose(q, 0.5 * edge ** 2 * (1 + np.eye(3)), rtol=1e-15, atol=0)


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
        # The matrix is the unit model's, of the edges times sqrt(4); kappa is kept.
        q4 = curved_gram(table_simplex, CurvatureSpec(-4.0))
        unit = curved_gram(table_simplex.scaled(2.0), HYPERBOLIC)
        assert np.array_equal(q4.matrix.data, unit.matrix.data)
        assert q4.curvature == CurvatureSpec(-4.0)

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

    @pytest.mark.parametrize("edge", [1417.0, 1419.0])
    def test_entries_past_the_float_max_refused(self, edge):
        # At kappa = -0.25 the entries are -cosh(edge / 2) on the unit model, so
        # these edges stay below the bound ln(float max); only edges past it
        # (test_hyperbolic_overflow_refused at 1420), whose entries would leave
        # float64, are refused.  No overflow warning fires either way.
        e = EdgeLengths(edge * (1 - np.eye(3)))
        c = CurvatureSpec(-0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = curved_gram(e, c)
            assert np.all(np.isfinite(q.matrix.data))
            assert np.array_equal(q.matrix.data,
                                  curved_gram(e.scaled(0.5), HYPERBOLIC).matrix.data)
            assert np.array_equal(model_gram(e, c).matrix.data, q.matrix.data)
            with pytest.raises(GramOverflow):
                curved_gram(e.scaled(1420.0 / edge), c)

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
        assert q.curvature == CurvatureSpec(kappa)
        assert np.array_equal(q.matrix.data, curved_gram(scaled, unit).matrix.data)

    @pytest.mark.parametrize("kappa", [1e300, -1e300])
    def test_overflowing_rescale_raises_gram_overflow(self, kappa):
        e = EdgeLengths(1e200 * (1 - np.eye(3)))
        with pytest.raises(GramOverflow, match="rescale"):
            unit_model(e, CurvatureSpec(kappa))

    @pytest.mark.parametrize("kappa", [1e-300, -1e-300])
    def test_underflowing_rescale_raises_gram_overflow(self, kappa):
        # sqrt(1e-300) * 1e-200 = 1e-350 rounds to zero.
        e = EdgeLengths(1e-200 * (1 - np.eye(3)))
        with pytest.raises(GramOverflow, match="rescale"):
            unit_model(e, CurvatureSpec(kappa))


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
class TestCopyAndPickle:
    def test_edge_lengths_keep_their_bits(self, round_trip):
        # Asymmetric input: the stored edges are averages, and longest is the
        # largest input entry, not the largest stored edge.
        e = EdgeLengths([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5e-323], [2.0 + 1e-9, 1.5e-323, 0.0]])
        assert e.longest > e.gamma.max()
        twin = round_trip(e)
        assert type(twin) is EdgeLengths
        assert twin.gamma.tobytes() == e.gamma.tobytes()
        assert (twin.shortest, twin.longest) == (e.shortest, e.longest)
        assert not twin.gamma.flags.writeable

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 0.3])
    def test_a_copy_of_a_checked_set_starts_unchecked(self, table_simplex, round_trip, kappa):
        c = CurvatureSpec(kappa)
        report = check(table_simplex, c)
        twin = round_trip(table_simplex)
        twin_report = check(twin, c)
        assert twin_report == report
        assert twin_report is not report
        assert twin_report.eigenvalues.tobytes() == report.eigenvalues.tobytes()
        assert model_gram(twin, c) is not model_gram(table_simplex, c)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 0.3])
    def test_gram_matrix_keeps_its_bits(self, table_simplex, round_trip, kappa):
        q = model_gram(table_simplex, CurvatureSpec(kappa))
        twin = round_trip(q)
        assert type(twin.matrix) is SymMatrix
        assert twin.matrix.data.tobytes() == q.matrix.data.tobytes()
        assert not twin.matrix.data.flags.writeable
        assert (twin.curvature, twin.apex) == (q.curvature, q.apex)

    def test_sym_matrix_keeps_its_bits(self, round_trip):
        # Asymmetric input: the stored entries are averages, down to subnormals.
        m = SymMatrix([[1.0, 1.5e-323, -0.0], [5e-324, 1e300, 2.0], [-0.0, 2.0 + 1e-15, 3.0]])
        twin = round_trip(m)
        assert type(twin) is SymMatrix
        assert twin.data.tobytes() == m.data.tobytes()
        assert not twin.data.flags.writeable

    def test_barycentric_point_keeps_its_bits(self, round_trip):
        p = BarycentricPoint([0.1, 0.2, 0.7 + 3e-7])  # renormalized: the sum is not 1
        twin = round_trip(p)
        assert type(twin) is BarycentricPoint
        assert twin.coords.tobytes() == p.coords.tobytes()
        assert not twin.coords.flags.writeable


class TestModelGramMemo:
    """model_gram reads the Gram matrix a check stored and never writes one."""

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0, -0.3, 0.3])
    def test_checked_set_returns_the_stored_gram(self, table_simplex, kappa):
        c = CurvatureSpec(kappa)
        fresh = model_gram(EdgeLengths(TABLE_3SIMPLEX), c)
        check(table_simplex, c)
        q = model_gram(table_simplex, c)
        assert q is model_gram(table_simplex, c)
        assert (q.apex, q.curvature) == (fresh.apex, fresh.curvature)
        assert q.matrix.data.tobytes() == fresh.matrix.data.tobytes()

    def test_other_curvature_builds_its_own(self, table_simplex):
        check(table_simplex, HYPERBOLIC)
        q = model_gram(table_simplex, SPHERICAL)
        assert q.curvature == SPHERICAL
        built = curved_gram(table_simplex, SPHERICAL)
        assert q.matrix.data.tobytes() == built.matrix.data.tobytes()
        assert model_gram(table_simplex, SPHERICAL) is not q

    @pytest.mark.parametrize("kappa", [0.0, -1.0, -0.3])
    def test_distance_alone_stores_nothing(self, table_simplex, kappa):
        c = CurvatureSpec(kappa)
        x, y = BarycentricPoint.vertex(1, 4), BarycentricPoint([0.25] * 4)
        distance(table_simplex, c, x, y)
        assert model_gram(table_simplex, c) is not model_gram(table_simplex, c)


DERIVED_KAPPAS = [0.0, -1.0, 1.0, -0.3, 0.3]
DERIVED_SIZES = [2, 3, 10, 40]


@pytest.fixture(scope="module")
def derived_grid():
    """Seeded realizable simplices over the curvature x dimension grid."""
    rng = np.random.default_rng(20261018)
    return [(kappa, random_simplex(rng, n, CurvatureSpec(kappa)))
            for kappa in DERIVED_KAPPAS for n in DERIVED_SIZES]


def assert_same_edge_set(derived, validated):
    assert np.array_equal(derived.gamma, validated.gamma)
    assert (derived.shortest, derived.longest) == (validated.shortest, validated.longest)
    assert not derived.gamma.flags.writeable


class TestDerivedEdgeLengths:
    """scaled / permuted / restricted skip validation but equal a validated build."""

    @pytest.mark.parametrize("factor", [1e-3, 0.3, 1.0, 1.7, math.sqrt(0.3), 1e5])
    def test_scaled_equals_validated(self, derived_grid, factor):
        for _, e in derived_grid:
            assert_same_edge_set(e.scaled(factor), EdgeLengths(e.gamma * factor))

    def test_permuted_equals_validated(self, derived_grid):
        rng = np.random.default_rng(1)
        for _, e in derived_grid:
            order = rng.permutation(e.num_vertices) + 1
            idx = order - 1
            assert_same_edge_set(e.permuted(order), EdgeLengths(e.gamma[np.ix_(idx, idx)]))

    def test_restricted_equals_validated(self, derived_grid):
        rng = np.random.default_rng(2)
        for _, e in derived_grid:
            for size in {2, max(2, e.num_vertices // 2), e.num_vertices}:
                keep = np.sort(rng.choice(e.num_vertices, size=size, replace=False))
                expected = EdgeLengths(e.gamma[np.ix_(keep, keep)])
                assert_same_edge_set(e.restricted((keep + 1).tolist()), expected)
                # restricted sorts and deduplicates its vertex list.
                assert_same_edge_set(
                    e.restricted((np.r_[keep[::-1], keep[:1]] + 1).tolist()), expected)

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, -math.inf])
    def test_scaled_rejects_bad_factor(self, table_simplex, factor):
        with pytest.raises(ValueError, match="positive"):
            table_simplex.scaled(factor)

    @pytest.mark.parametrize("edge, factor", [(2.0, 1e308), (1.0, math.inf)])
    def test_scaled_rejects_overflow(self, edge, factor):
        with pytest.raises(ValueError, match="finite"):
            EdgeLengths(edge * (1 - np.eye(3))).scaled(factor)

    def test_scaled_rejects_underflow(self):
        with pytest.raises(ValueError, match="positive"):
            EdgeLengths(1e-200 * (1 - np.eye(3))).scaled(1e-200)


def raw_euclidean_gram(e, apex):
    """The apex Gram formula, before any symmetrization."""
    others = [i for i in range(e.num_vertices) if i != apex - 1]
    g = e.gamma
    col = g[others, apex - 1]
    return 0.5 * (col[:, None] ** 2 + col[None, :] ** 2 - g[np.ix_(others, others)] ** 2)


def raw_curved_gram(e, kappa):
    """The unit-model vertex Gram formula on the rescaled edges, before any symmetrization."""
    g = e.gamma * math.sqrt(abs(kappa))
    return np.cos(g) if kappa > 0 else -np.cosh(g)


def assert_symmetrization_is_exact(raw, data):
    """raw is exactly symmetric, so the builder stored it bit for bit, read-only."""
    assert np.array_equal(raw, raw.T)
    assert np.array_equal(data, raw)
    assert not data.flags.writeable


class TestGramsAreExactlySymmetric:
    """Grams built from a symmetric edge matrix need no symmetrization."""

    def test_euclidean_gram_every_apex(self, derived_grid):
        for _, e in derived_grid:
            for apex in range(1, e.num_vertices + 1):
                assert_symmetrization_is_exact(raw_euclidean_gram(e, apex),
                                               euclidean_gram(e, apex).matrix.data)

    def test_curved_gram(self, derived_grid):
        for kappa, e in derived_grid:
            if kappa != 0:
                assert_symmetrization_is_exact(raw_curved_gram(e, kappa),
                                               curved_gram(e, CurvatureSpec(kappa)).matrix.data)


class TestGramMatrixInvariant:
    """apex is set exactly when the curvature is 0 (the flat case: test_metrics.py)."""

    def test_curved_gram_with_apex_refused(self):
        with pytest.raises(WrongModel, match="has no apex"):
            GramMatrix(SymMatrix(-np.eye(3)), HYPERBOLIC, apex=2)


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


    def test_quotient_past_float64_raises(self):
        # The unit form is -5.5e307; divided by |kappa| = 0.25 it leaves float64.
        e = EdgeLengths(1419.4 * (1 - np.eye(3)))
        q = curved_gram(e, CurvatureSpec(-0.25))
        x, y = BarycentricPoint([1 / 3] * 3), BarycentricPoint([0.5, 0.5, 0.0])
        with pytest.raises(GramOverflow, match="leaves float64"):
            hull_inner_product(q, x, y)
        unit = curved_gram(e.scaled(0.5), HYPERBOLIC)
        assert -math.inf < hull_inner_product(unit, x, y) < -5e307

    def test_form_past_float64_raises(self):
        # Twice the centroid of the 709.7 tetrahedron has the unit form
        # 4 * -6.2e307: the product overflows inside numpy, and no warning leaks.
        q = curved_gram(EdgeLengths(709.7 * (1 - np.eye(4))), HYPERBOLIC)
        x = BarycentricPoint.hull([0.5] * 4)
        with pytest.raises(GramOverflow, match="leaves float64"):
            hull_inner_product(q, x, x)
        centroid = BarycentricPoint([0.25] * 4)
        assert -math.inf < hull_inner_product(q, centroid, centroid) < -6e307


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

    @pytest.mark.parametrize("kappa", [-4.0, -0.25, 0.25, 4.0])
    def test_coefficients_are_those_of_the_unit_model(self, kappa):
        rng = np.random.default_rng(6)
        e = random_hyperbolic(rng, 3) if kappa < 0 else random_spherical(rng, 3)
        e = e.scaled(1.0 / math.sqrt(abs(kappa)))
        unit = HYPERBOLIC if kappa < 0 else SPHERICAL
        x = BarycentricPoint(random_interior_point(rng, 4))
        lifted = lift_to_model(curved_gram(e, CurvatureSpec(kappa)), x)
        unit_lifted = lift_to_model(curved_gram(e.scaled(math.sqrt(abs(kappa))), unit), x)
        assert lifted.coords.tobytes() == unit_lifted.coords.tobytes()

    def test_outside_light_cone_rejected(self, table_simplex):
        q = curved_gram(table_simplex, HYPERBOLIC)
        # A difference-like direction with coordinates summing to ~0 is
        # spacelike; feed it as raw hull coefficients.
        x = BarycentricPoint.hull([1.0, -1.0, 0.0, 0.0])
        with pytest.raises(OutsideLightCone):
            lift_to_model(q, x)

    def test_form_past_float64_raises(self):
        # Twice the centroid is timelike, but its form is 4 * -6.2e307.
        q = curved_gram(EdgeLengths(709.7 * (1 - np.eye(4))), HYPERBOLIC)
        assert np.isfinite(lift_to_model(q, BarycentricPoint([0.25] * 4)).coords).all()
        with pytest.raises(GramOverflow, match="leaves float64"):
            lift_to_model(q, BarycentricPoint.hull([0.5] * 4))


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
