"""Domain types and Gram-builder tests."""

import copy
import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    Verdict,
    WrongModel,
    check,
    curved_gram,
    distance,
    euclidean_gram,
    hull_inner_product,
    lift_to_model,
    model_gram,
    project,
)
from curvsimplex import domain
from curvsimplex.domain import BARYCENTRIC_SUM_TOL, EDGE_SYMMETRY_TOL
from curvsimplex.symmat import SymMatrix

from conftest import (
    ASYMMETRIC_TRIANGLE,
    NEAR_RIGHT_TRIANGLE,
    TABLE_3SIMPLEX,
    classical_gram,
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

    @pytest.mark.parametrize("vertices, bad", [
        ([0, 2], 0), ([2, 4], 4), ([-1, 2], -1), ([1, 4, 2], 4), ([3, 1, 2, 2, 0], 0),
        ((v for v in [2, 3, 4]), 4)])
    def test_restricted_vertex_out_of_range(self, vertices, bad):
        e = EdgeLengths([row[:3] for row in TABLE_3SIMPLEX[:3]])
        with pytest.raises(IndexError, match=rf"vertex {bad} out of range 1\.\.3"):
            e.restricted(vertices)

    @pytest.mark.parametrize("vertices", [[], [2], [2, 2]])
    def test_restricted_needs_two_vertices(self, table_simplex, vertices):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            table_simplex.restricted(vertices)

    @pytest.mark.parametrize("order", [[1, 1, 3], [1, 2], [3, 2, 1, 1], []])
    def test_permuted_rejects_a_non_permutation(self, order):
        e = EdgeLengths([row[:3] for row in TABLE_3SIMPLEX[:3]])
        with pytest.raises(ValueError, match=r"^order must be a permutation of 1\.\.num_vertices$"):
            e.permuted(order)

    def test_generators_are_read_once(self, table_simplex):
        expected = table_simplex.permuted([4, 2, 3, 1])
        assert np.array_equal(table_simplex.permuted(v for v in [4, 2, 3, 1]).gamma,
                              expected.gamma)
        assert table_simplex.restricted(v for v in [4, 2]).gamma.tolist() == [
            [0.0, table_simplex.length(2, 4)], [table_simplex.length(2, 4), 0.0]]


class TestCurvatureSpec:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CurvatureSpec(bad)

    @pytest.mark.parametrize("kappa, sign, scale", [
        (0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (-1.0, -1.0, 1.0),
        (0.3, 1.0, math.sqrt(0.3)), (-0.3, -1.0, math.sqrt(0.3)), (-4.0, -1.0, 2.0),
        (1e-300, 1.0, math.sqrt(1e-300)), (-1e-300, -1.0, math.sqrt(1e-300))])
    def test_sign_and_scale_are_exact(self, kappa, sign, scale):
        c = CurvatureSpec(kappa)
        assert (c.sign.hex(), c.scale.hex()) == (sign.hex(), scale.hex())  # +0.0, not -0.0

    def test_kappa_alone_sets_repr_equality_and_hash(self):
        c = CurvatureSpec(-0.3)
        assert repr(c) == "CurvatureSpec(kappa=-0.3)"
        assert c == CurvatureSpec(-0.3) and c != CurvatureSpec(0.3)
        assert hash(c) == hash((-0.3,))
        assert CurvatureSpec(0.0) == CurvatureSpec(-0.0)
        assert hash(CurvatureSpec(0.0)) == hash(CurvatureSpec(-0.0))

    def test_replace_recomputes_sign_and_scale(self):
        c = dataclasses.replace(SPHERICAL, kappa=-4.0)
        assert (c.kappa, c.sign, c.scale) == (-4.0, -1.0, 2.0)
        assert (SPHERICAL.sign, SPHERICAL.scale) == (1.0, 1.0)
        with pytest.raises(TypeError):
            CurvatureSpec(1.0, -1.0)

    @pytest.mark.parametrize("kappa", [0.0, -0.0, -4.0, 0.3])
    def test_pickles_hold_kappa_alone(self, kappa):
        # sign and scale are derived on load, not read back from a stored state.
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            cls, args = CurvatureSpec(kappa).__reduce_ex__(protocol)
            assert cls is CurvatureSpec and [a.hex() for a in args] == [kappa.hex()]
            assert b"sign" not in pickle.dumps(CurvatureSpec(kappa), protocol)

    @pytest.mark.parametrize("name", ["kappa", "sign", "scale"])
    def test_fields_are_read_only(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(CurvatureSpec(-4.0), name, 1.0)


class TestBarycentricPoint:
    def test_normalizes_small_deviation(self):
        p = BarycentricPoint([0.5, 0.5 + 5e-7])
        assert p.coords.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError, match="sum"):
            BarycentricPoint([0.5, 0.6])

    # Each case sums to NaN or inf; the message says which coordinates made it so.
    @pytest.mark.parametrize("coords", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0],
                                        [0.5, 0.5, -math.inf], [math.inf, -math.inf, 1.0]])
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError, match="sum"):
            BarycentricPoint(coords)

    def test_rejects_an_overflowing_sum(self):
        # Finite coordinates whose sum overflows; a numpy reduce would warn here.
        with pytest.raises(ValueError, match="sum to inf, not 1"):
            BarycentricPoint([1e308, 1e308, -1e308])

    def test_rejects_int_past_the_float_max(self):
        with pytest.raises(ValueError, match="finite"):
            BarycentricPoint([10 ** 400, 0, 1])

    def test_hull_rejects_int_past_the_float_max(self):
        with pytest.raises(ValueError, match="finite"):
            BarycentricPoint.hull([10 ** 400, 0, 1])

    def test_vertex(self):
        v = BarycentricPoint.vertex(2, 4)
        assert np.allclose(v.coords, [0, 1, 0, 0])

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_vertex_out_of_range(self, i):
        with pytest.raises(IndexError, match=f"vertex {i} out of range 1..3"):
            BarycentricPoint.vertex(i, 3)

    # A (2, 2) hull point has the size of a 4-vertex simplex's rows, so only
    # its shape can reject it, before numpy broadcasts or multiplies it.
    @pytest.mark.parametrize("call", [
        lambda e, x: distance(e, HYPERBOLIC, x, BarycentricPoint([0.25] * 4)),
        lambda e, x: lift_to_model(curved_gram(e, HYPERBOLIC), x),
        lambda e, x: hull_inner_product(curved_gram(e, HYPERBOLIC), x, x),
    ], ids=["distance", "lift_to_model", "hull_inner_product"])
    def test_hull_rejects_coordinates_that_are_not_one_vector(self, call):
        e = EdgeLengths(TABLE_3SIMPLEX)
        with pytest.raises(ValueError, match="coords must be a vector of length >= 2"):
            call(e, BarycentricPoint.hull([[0.5, 0.5], [0.5, -0.5]]))

    def test_normalization_is_within_1_5_ulp_of_the_exact_quotient(self):
        # A correctly rounded sum leaves one rounding of the sum and one of the quotient
        # between each coordinate and x_i / sum(x) in exact arithmetic; a left-to-right
        # float sum drifts by up to (k - 1) roundings: 2.8 ulp on the 41-coordinate centroid.
        rng = np.random.default_rng(25)
        points = [[1 / 41] * 41] + [[(1 + f * BARYCENTRIC_SUM_TOL) / 11] * 11 for f in (0.9, -0.9)]
        points += [rng.dirichlet(np.ones(k)).tolist() for k in (8, 11, 41) for _ in range(200)]
        for coords in points:
            total = sum(map(Fraction, coords))
            for got, x in zip(BarycentricPoint(coords).coords.tolist(), coords):
                exact = Fraction(x) / total
                assert abs(Fraction(got) - exact) <= 1.5 * Fraction(math.ulp(float(exact))), coords

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_sum_one_after_normalization(self, weights):
        total = sum(weights)
        p = BarycentricPoint([w / total for w in weights])
        assert abs(p.coords.sum() - 1.0) <= 1e-12

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_normalization_divides_by_the_float_sum(self, data):
        coords = data.draw(near_unit_sums())
        given_array = np.array(coords)
        p = BarycentricPoint(given_array)
        s = math.fsum(coords)
        assert p.coords.tobytes() == (np.array(coords) / s).tobytes()
        if s == 1.0:  # untouched, -0.0 included
            assert p.coords.tobytes() == np.array(coords).tobytes()
        assert given_array.tobytes() == np.array(coords).tobytes()
        assert not np.shares_memory(p.coords, given_array)
        assert not p.coords.flags.writeable


@st.composite
def near_unit_sums(draw):
    """2 to 41 coordinates whose float sum is within BARYCENTRIC_SUM_TOL of 1:
    multiples of 2^-20 that sum to exactly 1, any zero among them possibly -0.0,
    or a random vector divided by its sum and scaled by 1 + d, |d| < the tolerance."""
    k = draw(st.integers(2, 41))
    if draw(st.booleans()):
        units = draw(st.lists(st.sampled_from([0, 1, -1]) | st.integers(-2 ** 20, 2 ** 20),
                              min_size=k - 1, max_size=k - 1))
        units.append(2 ** 20 - sum(units))
        negative_zero = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        coords = [-0.0 if u == 0 and neg else u / 2 ** 20
                  for u, neg in zip(units, negative_zero)]
        assert sum(coords) == 1.0
        return coords
    weights = draw(st.lists(st.floats(-1.0, 2.0), min_size=k, max_size=k))
    total = sum(weights)
    assume(abs(total) > 0.1)
    d = draw(st.floats(-0.99 * BARYCENTRIC_SUM_TOL, 0.99 * BARYCENTRIC_SUM_TOL))
    coords = [w / total * (1.0 + d) for w in weights]
    assume(abs(sum(coords) - 1.0) <= BARYCENTRIC_SUM_TOL)
    return coords


TABLE_MIDPOINT = BarycentricPoint([0.5, 0.5, 0.0, 0.0])
SHORT_POINT = BarycentricPoint([0.5, 0.5])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: EdgeLengths([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]), ValueError,
                 "must be square", id="edges-not-square"),
    pytest.param(lambda: EdgeLengths(3.0), ValueError, "must be square", id="edges-scalar"),
    pytest.param(lambda: EdgeLengths([[0.0]]), ValueError, "at least 2 vertices",
                 id="edges-one-vertex"),
    pytest.param(lambda: setattr(EdgeLengths(TABLE_3SIMPLEX), "gamma", None), AttributeError,
                 "EdgeLengths is immutable", id="edges-setattr"),
    pytest.param(lambda: setattr(TABLE_MIDPOINT, "coords", None), AttributeError,
                 "BarycentricPoint is immutable", id="point-setattr"),
    pytest.param(lambda: hull_inner_product(euclidean_gram(EdgeLengths(TABLE_3SIMPLEX), 4),
                                            TABLE_MIDPOINT, TABLE_MIDPOINT),
                 WrongModel, "needs a full curved Gram matrix", id="hull-kappa-0"),
    pytest.param(lambda: lift_to_model(euclidean_gram(EdgeLengths(TABLE_3SIMPLEX), 4),
                                       TABLE_MIDPOINT),
                 WrongModel, "needs a full curved Gram matrix", id="lift-kappa-0"),
    pytest.param(lambda: hull_inner_product(curved_gram(EdgeLengths(TABLE_3SIMPLEX), HYPERBOLIC),
                                            TABLE_MIDPOINT, SHORT_POINT),
                 ValueError, "does not match Gram dimension", id="hull-short-point"),
    pytest.param(lambda: lift_to_model(curved_gram(EdgeLengths(TABLE_3SIMPLEX), SPHERICAL),
                                       SHORT_POINT),
                 ValueError, "does not match Gram dimension", id="lift-short-point"),
])
def test_bad_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


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


    @pytest.mark.parametrize("k", [2, 3, 4, 11, 41])
    def test_every_apex_equals_the_delete_reference(self, k):
        e = random_simplex(np.random.default_rng(k), k - 1, EUCLIDEAN)
        half = 0.5 * e.gamma ** 2
        for apex in range(1, k + 1):
            col = np.delete(half[:, apex - 1], apex - 1)
            block = np.delete(np.delete(half, apex - 1, axis=0), apex - 1, axis=1)
            expected = col[:, None] + col[None, :] - block
            assert np.array_equal(euclidean_gram(e, apex).matrix.data, expected)

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
        # The vertex Gram is -1 - E bit for bit, and the classical -cosh to rounding.
        q = curved_gram(table_simplex, HYPERBOLIC)
        assert np.array_equal(q.matrix.data, -1.0 - q.half_chords.data)
        expected = -np.cosh(np.array(TABLE_3SIMPLEX))
        assert np.all(np.abs(q.matrix.data - expected) <= 4 * np.spacing(-expected))
        assert np.all(np.diag(q.matrix.data) == -1.0)

    @pytest.mark.parametrize("kappa", [-1.0, 1.0])
    def test_one_transcendental_pass_and_no_cos_or_cosh(self, monkeypatch, table_simplex,
                                                        kappa):
        calls = []
        for name in ("sin", "sinh", "cos", "cosh"):
            f = getattr(np, name)
            monkeypatch.setattr(np, name, lambda x, f=f, name=name: calls.append(name) or f(x))
        curved_gram(table_simplex.scaled(0.2), CurvatureSpec(kappa))
        assert calls == ["sin" if kappa > 0 else "sinh"]

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

    def test_hyperbolic_overflow_names_the_callers_kappa_and_edge(self):
        e = EdgeLengths(400.0 * (1 - np.eye(3)))
        with pytest.raises(GramOverflow, match=r"^hyperbolic edge 400\.0 at kappa=-4\.0 overflows "
                           r"the Gram matrix: unit-model edge 800\.0 > 709\.78"):
            curved_gram(e, CurvatureSpec(-4.0))

    def test_hyperbolic_below_overflow_bound_is_finite(self):
        e = EdgeLengths(709.0 * (1 - np.eye(3)))
        assert np.all(np.isfinite(curved_gram(e, HYPERBOLIC).matrix.data))


class TestHalfChords:
    """Both builders store E, the unit-model half squared chords, read-only."""

    def test_euclidean_is_half_the_squared_edges_at_every_apex(self, table_simplex):
        for apex in range(1, 5):
            e = euclidean_gram(table_simplex, apex).half_chords.data
            assert np.array_equal(e, 0.5 * table_simplex.gamma ** 2)
            assert not e.flags.writeable

    @pytest.mark.parametrize("kappa", [-1.0, 1.0, -0.3, 0.3])
    def test_curved_is_the_gram_without_its_ones(self, table_simplex, kappa):
        # The vertex Gram is sign(kappa) (11^T - sign(kappa) E) on the unit model.
        e = table_simplex.scaled(0.2)
        q = curved_gram(e, CurvatureSpec(kappa))
        sign = math.copysign(1.0, kappa)
        assert np.allclose(sign * (1.0 - sign * q.half_chords.data), q.matrix.data,
                           rtol=1e-15, atol=1e-15)
        assert not q.half_chords.data.flags.writeable

    @pytest.mark.parametrize("kappa", [-1.0, 1.0])
    def test_short_edges_keep_their_digits(self, kappa):
        # cos and cosh of 1e-8 round to 1, so the Gram matrix alone loses these chords.
        q = curved_gram(EdgeLengths(1e-8 * (1 - np.eye(3))), CurvatureSpec(kappa))
        assert np.allclose(q.half_chords.data, 0.5e-16 * (1 - np.eye(3)), rtol=1e-15, atol=0)
        assert np.array_equal(q.matrix.data, kappa * np.ones((3, 3)))

    def test_curved_gram_is_sign_minus_half_chords(self, derived_grid):
        for kappa, e in derived_grid:
            if kappa != 0:
                q = curved_gram(e, CurvatureSpec(kappa))
                assert np.array_equal(q.matrix.data,
                                      math.copysign(1.0, kappa) - q.half_chords.data)

    def test_hand_built_gram_derives_the_builders_matrix(self, derived_grid):
        # The matrix is a view of E alone: the same E by hand gives the same bits.
        for kappa, e in derived_grid:
            c = CurvatureSpec(kappa)
            if kappa == 0:
                built = [euclidean_gram(e, a) for a in range(1, e.num_vertices + 1)]
            else:
                built = [curved_gram(e, c)]
            for q in built:
                hand = GramMatrix(SymMatrix(q.half_chords.data), c, q.apex)
                assert hand.matrix.data.tobytes() == q.matrix.data.tobytes()
                assert not hand.matrix.data.flags.writeable

    @pytest.mark.parametrize("apex", [0, 4, -1])
    def test_apex_outside_half_chords_raises_index_error(self, apex):
        with pytest.raises(IndexError, match="out of range"):
            GramMatrix(SymMatrix(np.zeros((3, 3))), EUCLIDEAN, apex)


class TestModelGram:
    def test_kappa_zero_is_apex_gram_at_last_vertex(self, table_simplex):
        q = model_gram(table_simplex, EUCLIDEAN)
        assert q.apex == table_simplex.num_vertices
        assert np.array_equal(q.matrix.data, euclidean_gram(table_simplex, 4).matrix.data)

    @pytest.mark.parametrize("kappa", [-4.0, -1.0, -0.3, 0.3, 1.0, 4.0])
    def test_curved_is_unit_model_of_rescaled_edges(self, table_simplex, kappa):
        q = model_gram(table_simplex, CurvatureSpec(kappa))
        unit = HYPERBOLIC if kappa < 0 else SPHERICAL
        scaled = table_simplex.scaled(math.sqrt(abs(kappa)))
        assert q.apex is None
        assert q.curvature == CurvatureSpec(kappa)
        assert np.array_equal(q.matrix.data, curved_gram(scaled, unit).matrix.data)

    @pytest.mark.parametrize("kappa", [1e300, -1e300])
    def test_overflowing_rescale_raises_gram_overflow(self, kappa):
        e = EdgeLengths(1e200 * (1 - np.eye(3)))
        with pytest.raises(GramOverflow, match="rescale"):
            curved_gram(e, CurvatureSpec(kappa))

    @pytest.mark.parametrize("kappa, edges", [
        # sqrt(1e-300) * 1e-200 = 1e-350 rounds to zero.
        pytest.param(1e-300, 1e-200 * (1 - np.eye(3)), id="1e-300"),
        pytest.param(-1e-300, 1e-200 * (1 - np.eye(3)), id="-1e-300"),
        # A realizable triangle with one subnormal edge: the same check at
        # kappa = +-1 as at every other kappa, not a Degenerate verdict.
        pytest.param(1.0, [[0, 1, 1e-310], [1, 0, 1], [1e-310, 1, 0]], id="1.0-subnormal"),
        pytest.param(-1.0, [[0, 1, 1e-310], [1, 0, 1], [1e-310, 1, 0]], id="-1.0-subnormal"),
    ])
    def test_underflowing_rescale_raises_gram_overflow(self, kappa, edges):
        with pytest.raises(GramOverflow, match="rescale"):
            check(EdgeLengths(edges), CurvatureSpec(kappa))

    @pytest.mark.parametrize("kappa", [-1.0, 1.0])
    def test_underflowing_half_chords_raise_gram_overflow(self, kappa):
        # Unit-model edges of 1e-157 are normal, but their half squared chords
        # (about 5e-315) are not: every curvature has euclidean_gram's range.
        e = EdgeLengths(1e-157 * (1 - np.eye(4)))
        with pytest.raises(GramOverflow, match="squaring"):
            euclidean_gram(e, 1)
        c = CurvatureSpec(kappa)
        with pytest.raises(GramOverflow, match="rescale"):
            check(e, c)
        with pytest.raises(GramOverflow, match="rescale"):
            project(e, c, 1)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
class TestCopyAndPickle:
    def test_edge_lengths_keep_their_bits(self, round_trip):
        # Asymmetric input: the stored edges are averages, down to subnormals, and
        # longest is the largest of them, not the largest input entry.
        e = EdgeLengths(ASYMMETRIC_TRIANGLE)
        assert e.longest == e.gamma.max() < 2.0 + 1e-9
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
        # Asymmetric input: the stored entries are averages, down to subnormals,
        # and an entry past half the float max survives the round trip.
        m = SymMatrix([[1.0, 1.5e-323, -0.0], [5e-324, 1e300, 2.0],
                       [-0.0, 2.0 + 1e-15, 1.5e308]])
        twin = round_trip(m)
        assert type(twin) is SymMatrix
        assert twin.data.tobytes() == m.data.tobytes()
        assert not twin.data.flags.writeable

    @pytest.mark.parametrize("kappa", [0.0, -0.0, -4.0, 0.3])
    def test_curvature_spec_keeps_kappa_sign_and_scale(self, round_trip, kappa):
        c = CurvatureSpec(kappa)
        twin = round_trip(c)
        assert type(twin) is CurvatureSpec
        assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
        assert [v.hex() for v in (twin.kappa, twin.sign, twin.scale)] == [
            v.hex() for v in (c.kappa, c.sign, c.scale)]

    def test_barycentric_point_keeps_its_bits(self, round_trip):
        p = BarycentricPoint([0.1, 0.2, 0.7 + 3e-7])  # renormalized: the sum is not 1
        twin = round_trip(p)
        assert type(twin) is BarycentricPoint
        assert twin.coords.tobytes() == p.coords.tobytes()
        assert not twin.coords.flags.writeable


class TestReprEvaluatesBack:
    """eval(repr(v)) rebuilds v bit for bit: a point prints as the ``hull`` call
    that keeps its stored coordinates, an edge set and a matrix as their constructors."""

    NAMES = {"BarycentricPoint": BarycentricPoint, "EdgeLengths": EdgeLengths,
             "SymMatrix": SymMatrix}

    def assert_point_round_trips(self, p):
        twin = eval(repr(p), self.NAMES)
        assert type(twin) is BarycentricPoint
        assert twin.coords.tobytes() == p.coords.tobytes()

    def test_a_lift(self):
        # The lift's coefficients sum to about 0.856: no barycentric point has them.
        regular = EdgeLengths(np.ones((4, 4)) - np.eye(4))
        self.assert_point_round_trips(project(regular, HYPERBOLIC, 1).foot_model)

    def test_renormalized_points(self):
        rng = np.random.default_rng(35)
        for k in rng.integers(2, 12, size=2000):
            coords = rng.dirichlet(np.ones(k)) * (1.0 + 1e-7 * rng.uniform(-1.0, 1.0))
            self.assert_point_round_trips(BarycentricPoint(coords))

    def test_a_vertex_and_a_negative_zero(self):
        self.assert_point_round_trips(BarycentricPoint.vertex(3, 5))
        p = BarycentricPoint.hull([-0.0, 0.25, 0.75])
        self.assert_point_round_trips(p)
        assert math.copysign(1.0, eval(repr(p), self.NAMES).coords[0]) == -1.0

    def test_edge_lengths_from_asymmetric_input(self):
        # The stored matrix, subnormal means included, is its own symmetrization.
        e = EdgeLengths(ASYMMETRIC_TRIANGLE)
        twin = eval(repr(e), self.NAMES)
        assert twin.gamma.tobytes() == e.gamma.tobytes()
        assert (twin.shortest, twin.longest) == (e.shortest, e.longest)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0])
    def test_edge_lengths_and_sym_matrix(self, kappa):
        rng = np.random.default_rng(36)
        for n in (1, 3, 10):
            e = random_simplex(rng, n, CurvatureSpec(kappa))
            twin = eval(repr(e), self.NAMES)
            assert type(twin) is EdgeLengths
            assert twin.gamma.tobytes() == e.gamma.tobytes()
            assert (twin.shortest, twin.longest) == (e.shortest, e.longest)
            m = SymMatrix(rng.standard_normal((n + 1, n + 1)))
            assert eval(repr(m), self.NAMES).data.tobytes() == m.data.tobytes()


def nearly_symmetric(seed: int) -> dict:
    """Seeded spherical edge sets by name, each entry moved by up to 0.4 EDGE_SYMMETRY_TOL."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in (1, 2, 3, 5, 10):
        g = random_simplex(rng, n, SPHERICAL).gamma
        g = g + rng.uniform(-0.4, 0.4, g.shape) * EDGE_SYMMETRY_TOL
        np.fill_diagonal(g, 0.0)
        out[f"nearly symmetric n={n}"] = g
    return out


ROUTE_INPUTS = {"asymmetric": ASYMMETRIC_TRIANGLE, "near right triangle": NEAR_RIGHT_TRIANGLE,
                **nearly_symmetric(36)}


ROUTES = {
    "validated": lambda e: e,
    "permuted identity": lambda e: e.permuted(range(1, e.num_vertices + 1)),
    "permuted reversal": lambda e: e.permuted(range(e.num_vertices, 0, -1)),
    "restricted all": lambda e: e.restricted(range(1, e.num_vertices + 1)),
    "scaled 1.0": lambda e: e.scaled(1.0),
    **ROUND_TRIPS,
    "repr": lambda e: eval(repr(e), {"EdgeLengths": EdgeLengths}),
}


class TestOneSetOfFactsPerMatrix:
    """Every route to an edge set stores the extremes of its own stored edges, so
    one stored matrix gets one spherical outcome (a verdict, or the GramOverflow
    that names the extremes), whatever route built it."""

    @pytest.mark.parametrize("g", ROUTE_INPUTS.values(), ids=ROUTE_INPUTS.keys())
    def test_extremes_and_verdict_follow_the_stored_edges(self, g):
        e = EdgeLengths(g)
        outcomes = set()
        for name, route in ROUTES.items():
            d = route(e)
            off = d.gamma[~np.eye(d.num_vertices, dtype=bool)]
            assert (d.shortest, d.longest) == (off.min(), off.max()), name
            try:
                r = check(d, SPHERICAL)
                outcomes.add((r.verdict, r.signature, r.detail))
            except GramOverflow as exc:
                outcomes.add(str(exc))
        assert len(outcomes) == 1

    def test_near_right_triangle_is_realizable(self):
        e = EdgeLengths(NEAR_RIGHT_TRIANGLE)
        assert e.longest < math.pi / 2
        assert check(e, SPHERICAL).verdict is Verdict.REALIZABLE


class TestModelGramMemo:
    """An edge set keeps the model Gram matrix model_gram built last, keyed by its
    curvature, and the report of the last check, keyed by curvature and tol.
    check reads its matrix through model_gram and keeps no Gram of its own."""

    KAPPAS = [0.0, -1.0, 1.0, -0.3, 0.3]
    X, Y = BarycentricPoint.vertex(1, 4), BarycentricPoint.vertex(2, 4)  # in every model

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_checked_set_returns_the_stored_gram(self, table_simplex, kappa):
        c = CurvatureSpec(kappa)
        fresh = model_gram(EdgeLengths(TABLE_3SIMPLEX), c)
        check(table_simplex, c)
        q = model_gram(table_simplex, c)
        assert q is model_gram(table_simplex, c)
        assert (q.apex, q.curvature) == (fresh.apex, fresh.curvature)
        assert q.matrix.data.tobytes() == fresh.matrix.data.tobytes()

    def test_other_curvature_builds_its_own(self, table_simplex):
        # A second curvature builds its Gram once, in place of the checked one.
        check(table_simplex, HYPERBOLIC)
        q = model_gram(table_simplex, SPHERICAL)
        assert q.curvature == SPHERICAL
        built = curved_gram(table_simplex, SPHERICAL)
        assert q.matrix.data.tobytes() == built.matrix.data.tobytes()
        assert model_gram(table_simplex, SPHERICAL) is q

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_distance_stores_the_gram_it_built(self, table_simplex, kappa):
        c = CurvatureSpec(kappa)
        d = distance(table_simplex, c, self.X, self.Y)
        q = model_gram(table_simplex, c)
        assert q is model_gram(table_simplex, c)
        fresh = EdgeLengths(TABLE_3SIMPLEX)
        built = euclidean_gram(fresh, 4) if kappa == 0 else curved_gram(fresh, c)
        assert (q.apex, q.curvature) == (built.apex, built.curvature)
        assert q.matrix.data.tobytes() == built.matrix.data.tobytes()
        assert distance(table_simplex, c, self.X, self.Y) == d

    @pytest.mark.parametrize("kappa", [0.0, -1.0, -0.3])
    def test_distance_alone_stores_no_verdict(self, table_simplex, kappa):
        c = CurvatureSpec(kappa)
        distance(table_simplex, c, self.X, self.Y)
        q = model_gram(table_simplex, c)
        for tol in (math.nan, -1.0):
            with pytest.raises(ValueError, match="tol must be finite"):
                check(table_simplex, c, tol)
        with pytest.raises(TypeError):
            check(table_simplex, c, None)
        report = check(table_simplex, c)
        fresh = check(EdgeLengths(TABLE_3SIMPLEX), c)
        assert report == fresh
        assert report.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert model_gram(table_simplex, c) is q  # check classified the stored Gram
        assert check(table_simplex, c) is report

    def test_distance_at_another_curvature_keeps_the_verdict(self, table_simplex):
        report = check(table_simplex, HYPERBOLIC)
        distance(table_simplex, SPHERICAL, self.X, self.Y)
        assert check(table_simplex, HYPERBOLIC) is report

    def test_the_last_curvature_built_keeps_the_gram(self, table_simplex):
        # One Gram at a time: switching curvature rebuilds once per switch.
        distance(table_simplex, HYPERBOLIC, self.X, self.Y)
        q = model_gram(table_simplex, HYPERBOLIC)
        distance(table_simplex, SPHERICAL, self.X, self.Y)
        s = model_gram(table_simplex, SPHERICAL)
        assert model_gram(table_simplex, SPHERICAL) is s
        assert model_gram(table_simplex, HYPERBOLIC) is not q
        report = check(table_simplex, SPHERICAL)
        assert report == check(EdgeLengths(TABLE_3SIMPLEX), SPHERICAL)
        assert model_gram(table_simplex, SPHERICAL) is model_gram(table_simplex, SPHERICAL)
        assert model_gram(table_simplex, SPHERICAL) is not s

    @pytest.mark.parametrize("derive", [
        copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e)),
        lambda e: e.scaled(1.0), lambda e: e.permuted([1, 2, 3, 4]),
        lambda e: e.restricted([1, 2, 3, 4])],
        ids=["copy", "deepcopy", "pickle", "scaled", "permuted", "restricted"])
    def test_a_derived_set_starts_with_no_entry(self, table_simplex, derive):
        check(table_simplex, HYPERBOLIC)
        twin = derive(table_simplex)
        assert table_simplex._gram is not None and table_simplex._report is not None
        assert twin._gram is None and twin._report is None
        assert model_gram(twin, HYPERBOLIC) is not model_gram(table_simplex, HYPERBOLIC)


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
    """The unit-model vertex Gram sign(kappa) - E, with E = 2 sin^2 or 2 sinh^2 of half
    the rescaled edges, before any symmetrization."""
    half = (np.sin if kappa > 0 else np.sinh)(e.gamma * math.sqrt(abs(kappa)) * 0.5)
    return math.copysign(1.0, kappa) - half * (half + half)


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

    @pytest.mark.parametrize("apex, stored", [(np.int64(2), 2), (True, 1), (3, 3)])
    def test_apex_is_stored_as_an_int(self, table_simplex, apex, stored):
        half_chords = SymMatrix(np.ones((4, 4)) - np.eye(4))
        for q in (GramMatrix(half_chords, EUCLIDEAN, apex), euclidean_gram(table_simplex, apex)):
            assert type(q.apex) is int and q.apex == stored

    def test_euclidean_gram_checks_its_apex_once(self, table_simplex, monkeypatch):
        calls = []
        monkeypatch.setattr(domain, "_vertex", lambda i, k: calls.append(i) or 2)
        euclidean_gram(table_simplex, 2)
        assert calls == [2]


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

    def test_nan_form_raises_gram_overflow(self):
        # The form's terms are +-inf and cancel to NaN: an overflow, not a side.
        q = curved_gram(EdgeLengths(700.0 * (1 - np.eye(3))), HYPERBOLIC)
        with pytest.raises(GramOverflow, match="nan"):
            lift_to_model(q, BarycentricPoint.hull([1e10, -1e10 + 0.5, 0.5]))


def classical_hull_forms(e: EdgeLengths, kappa: float, x: BarycentricPoint,
                         y: BarycentricPoint):
    """50-digit <x, y>, the sum of its terms' sizes, and <x, x> with x's lift, by the
    classical route on the float64 edges and coordinates: the cos/cosh vertex Gram Q
    of the unit model, and x^T Q y / |kappa|."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        size, q = abs(mpmath.mpf(kappa)), classical_gram(e, kappa)
        u, v = x.coords.tolist(), y.coords.tolist()
        terms = [a * qa[j] * b for a, qa in zip(u, q) for j, b in enumerate(v)]
        xx = mpmath.fsum(a * qa[j] * b for a, qa in zip(u, q) for j, b in enumerate(u))
        lift = [float(a / mpmath.sqrt(abs(xx))) for a in u]
        return (float(mpmath.fsum(terms) / size), float(mpmath.fsum(map(abs, terms)) / size),
                float(xx), lift)


class TestHullFormsHighPrecision:
    """hull_inner_product and lift_to_model, read from E, against 50-digit
    cos/cosh references on random simplices, at interior and mixed-sign hull
    points: <x, y> within 8 cond u (cond = sum |x_i Q_ij y_j| / |<x, y>|), and
    each lift within 4e-15 of its largest coordinate."""

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.3, -0.3, -4.0])
    def test_random_simplex(self, kappa, n):
        rng = np.random.default_rng([n, round(10 * kappa) + 50])
        c = CurvatureSpec(kappa)
        e = random_simplex(rng, n, c)
        q = curved_gram(e, c)
        k = n + 1
        points = [BarycentricPoint(random_interior_point(rng, k)) for _ in range(2)]
        points += [BarycentricPoint.hull(rng.uniform(-0.5, 1.0, k)) for _ in range(2)]
        u = np.finfo(float).eps / 2
        for x, y in zip(points, points[1:] + points[:1]):
            xy, size, xx, lift = classical_hull_forms(e, kappa, x, y)
            assert abs(hull_inner_product(q, x, y) - xy) <= 8 * u * size
            if math.copysign(1.0, kappa) * xx > 0:  # else x is outside the model
                err = np.abs(lift_to_model(q, x).coords - lift).max()
                assert err <= 4e-15 * np.abs(lift).max()


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
