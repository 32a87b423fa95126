"""Symmetric-matrix kernel tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvsimplex import Signature, SymMatrix
from curvsimplex.domain import EdgeLengths, curved_gram, euclidean_gram, HYPERBOLIC

from conftest import TABLE_3SIMPLEX


def table_q():
    return euclidean_gram(EdgeLengths(TABLE_3SIMPLEX), apex=1).matrix


def table_qsigma():
    return curved_gram(EdgeLengths(TABLE_3SIMPLEX), HYPERBOLIC).matrix


def symmetric_matrices(max_dim=6):
    return st.integers(2, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=d * d, max_size=d * d
        ).map(lambda vals: SymMatrix(np.array(vals).reshape(d, d)))
    )


class TestConstruction:
    def test_symmetrizes(self):
        m = SymMatrix([[1.0, 2.0], [4.0, 3.0]])
        assert m.data[0, 1] == m.data[1, 0] == 3.0

    def test_entries_past_half_the_float_max(self):
        # Halved before they are added: a_ij + a_ji would overflow to inf.
        m = SymMatrix([[1.5e308, 1.6e308], [1.7e308, 2.0]])
        assert m.data[0, 0] == 1.5e308
        assert m.data[0, 1] == m.data[1, 0] == pytest.approx(1.65e308, rel=1e-15)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("entries, message", [
        (np.zeros((0, 0)), "dimension >= 1"), ([], "square"), ([[]], "square"), (2.0, "square")])
    def test_rejects_an_empty_or_non_square_matrix(self, entries, message):
        with pytest.raises(ValueError, match=message):
            SymMatrix(entries)

    def test_immutable(self):
        m = SymMatrix([[1.0]])
        with pytest.raises(AttributeError):
            m.data = None
        with pytest.raises(ValueError):
            m.data[0, 0] = 2.0


class TestDeterminant:
    def test_face_gram(self):
        # [[16,16],[16,25]] is the face Gram of the reference simplex.
        assert SymMatrix([[16.0, 16.0], [16.0, 25.0]]).determinant() == pytest.approx(144.0)

    def test_identity(self):
        assert SymMatrix(np.eye(3)).determinant() == pytest.approx(1.0)

    def test_hand_cofactor_3x3(self):
        m = [[4.0, -1.5, -2.5], [-1.5, 9.0, 8.0], [-2.5, 8.0, 16.0]]
        # Independent oracle: cofactor expansion along the first row.
        expected = (4.0 * (9 * 16 - 8 * 8)
                    - (-1.5) * (-1.5 * 16 - 8 * -2.5)
                    + (-2.5) * (-1.5 * 8 - 9 * -2.5))
        assert expected == 287.75
        assert SymMatrix(m).determinant() == pytest.approx(expected, rel=1e-12)

    @given(symmetric_matrices())
    @settings(max_examples=50, deadline=None)
    def test_matches_eigenvalue_product(self, m):
        prod = float(np.prod(m.eigenvalues()))
        scale = max(1.0, abs(prod))
        assert m.determinant() == pytest.approx(prod, abs=1e-8 * scale)


class TestMinor:
    def test_reference_values(self):
        q = table_q()
        assert q.minor(1, 1) == pytest.approx(80.0)
        assert q.minor(1, 3) == pytest.approx(10.5)

    def test_identity(self):
        assert SymMatrix(np.eye(2)).minor(1, 1) == pytest.approx(1.0)

    def test_dim_one_is_the_empty_determinant(self):
        assert SymMatrix([[5.0]]).minor(1, 1) == 1.0

    @given(symmetric_matrices())
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, m):
        for i in range(1, m.dim + 1):
            for j in range(1, m.dim + 1):
                assert m.minor(i, j) == pytest.approx(m.minor(j, i), abs=1e-7)


class TestMinorIsDeleteAndDet:
    """``minor`` takes rows and columns, but equals the np.delete reference bit for bit."""

    @pytest.mark.parametrize("dim", [*range(2, 13), 41])
    def test_every_minor(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        m = SymMatrix(a + a.T)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                sub = np.delete(np.delete(m.data, i - 1, axis=0), j - 1, axis=1)
                assert m.minor(i, j) == float(np.linalg.det(sub))


class TestExact:
    def test_wraps_without_copy_read_only(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        m = SymMatrix._exact(a)
        assert m.data is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 1] = 0.0


class TestSignature:
    def test_identity(self):
        assert SymMatrix(np.eye(3)).signature().as_tuple() == (3, 0, 0)

    def test_indefinite_diag(self):
        assert SymMatrix(np.diag([1.0, -1.0])).signature().as_tuple() == (1, 1, 0)

    def test_reference_hyperbolic(self):
        assert table_qsigma().signature().as_tuple() == (3, 1, 0)

    def test_zero_classification_scales(self):
        m = SymMatrix(np.diag([1e9, 1e-3]))
        # 1e-3 is small relative to 1e9 under tol 1e-9 * 1e9 = 1.
        assert m.signature(1e-9).as_tuple() == (1, 0, 1)
        assert m.signature(1e-15).as_tuple() == (2, 0, 0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            Signature.of(np.array([1.0, -1.0]), tol)

    @staticmethod
    def numpy_signature(eig, tol):
        """The classification as numpy reductions over the whole array."""
        cutoff = tol * (float(np.abs(eig).max()) if eig.size else 0.0)
        return (int(np.sum(eig > cutoff)), int(np.sum(eig < -cutoff)),
                int(np.sum(np.abs(eig) <= cutoff)))

    @given(st.data(), st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_reductions(self, data, tol):
        values = data.draw(st.lists(st.one_of(
            st.floats(allow_infinity=False),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf])), max_size=12))
        if values and data.draw(st.booleans()):
            # Plant values exactly at +-cutoff (tol <= 1 keeps max|lambda|), where
            # <= and < must agree with numpy.
            top = max(map(abs, values))
            cutoff = tol * top
            if not math.isnan(cutoff):
                values += [cutoff, -cutoff]
        eig = np.array(values, dtype=float)
        assert Signature.of(eig, tol).as_tuple() == self.numpy_signature(eig, tol)

    @pytest.mark.parametrize("values", [[], [0.0], [-0.0, 0.0], [math.nan], [1.0, math.nan],
                                        [math.nan, 1.0, -1.0], [2.0, -2.0, 0.0],
                                        [1e-300, -1e-300, 1.0]])
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5, 1.0])
    def test_edge_cases_match_numpy_reductions(self, values, tol):
        eig = np.array(values, dtype=float)
        assert Signature.of(eig, tol).as_tuple() == self.numpy_signature(eig, tol)

    @given(symmetric_matrices(max_dim=5), st.permutations(range(5)))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, m, perm):
        idx = [p for p in perm if p < m.dim]
        permuted = SymMatrix(m.data[np.ix_(idx, idx)])
        assert permuted.signature(1e-7).as_tuple() == m.signature(1e-7).as_tuple()


class TestPositiveDefinite:
    def test_reference_euclidean(self):
        assert table_q().is_positive_definite()

    def test_zero_eigenvalue(self):
        assert not SymMatrix(np.diag([1.0, 0.0])).is_positive_definite(1e-9)

    def test_collinear_gram(self):
        # Edge lengths 1, 2, 3 are collinear: det [[1,1],[1,4]] == ... == 0.
        g = EdgeLengths([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        q = euclidean_gram(g, apex=3).matrix
        assert np.allclose(q.data, [[9.0, 6.0], [6.0, 4.0]])
        assert not q.is_positive_definite()
