"""Realizability verdict tests."""

import json
import math

import numpy as np
import pytest

from curvsimplex import (
    CurvatureSpec,
    EdgeLengths,
    HYPERBOLIC,
    Verdict,
    check,
    check_euclidean,
    check_hyperbolic,
    check_spherical,
    curved_gram,
    embed,
    euclidean_gram,
)
from curvsimplex.cli import main
from curvsimplex.oracle import edge_lengths_of

from conftest import (
    COLLINEAR_HYPERBOLIC_EDGES,
    random_euclidean,
    random_hyperbolic,
    random_simplex,
    random_spherical,
)


class TestEuclidean:
    def test_reference_realizable(self, table_simplex):
        assert check_euclidean(table_simplex).verdict is Verdict.REALIZABLE

    def test_collinear_degenerate(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        report = check_euclidean(e)
        assert report.verdict is Verdict.DEGENERATE
        assert report.signature.n_zero == 1

    def test_triangle_inequality_violated(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        report = check_euclidean(e)
        assert report.verdict is Verdict.NOT_REALIZABLE
        # Oracle: 2x2 gram [[9, 9/2], [9/2, 1]] has a negative eigenvalue by
        # the closed-form eigenvalue formula.
        q = euclidean_gram(e, apex=3).matrix.data
        tr, det = q.trace(), np.linalg.det(q)
        lam_min = tr / 2 - math.sqrt((tr / 2) ** 2 - det)
        assert lam_min < 0

    def test_apex_independence(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                e = random_euclidean(rng, n)
            else:
                g = rng.uniform(0.5, 3.0, size=(n + 1, n + 1))
                g = np.triu(g, 1)
                g = g + g.T
                e = EdgeLengths(g)
            verdicts = set()
            for apex in range(1, n + 2):
                sig = euclidean_gram(e, apex).matrix.signature(1e-9)
                verdicts.add(sig.as_tuple() == (n, 0, 0))
            assert len(verdicts) == 1


class TestHyperbolic:
    def test_reference_realizable(self, table_simplex):
        report = check_hyperbolic(table_simplex)
        assert report.verdict is Verdict.REALIZABLE
        assert report.signature.as_tuple() == (3, 1, 0)

    def test_collinear_triple_degenerate(self):
        e = EdgeLengths(COLLINEAR_HYPERBOLIC_EDGES)
        assert check_hyperbolic(e).verdict is Verdict.DEGENERATE

    def test_tiny_equilateral_realizable(self):
        e = EdgeLengths(0.01 * (1 - np.eye(4)))
        assert check_hyperbolic(e).verdict is Verdict.REALIZABLE

    def test_near_euclidean_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e = random_euclidean(rng, int(rng.integers(2, 5)))
            assert check_hyperbolic(e.scaled(1e-2)).verdict is Verdict.REALIZABLE


class TestSpherical:
    def test_equilateral_realizable(self):
        e = EdgeLengths((math.pi / 3) * (1 - np.eye(3)))
        report = check_spherical(e)
        assert report.verdict is Verdict.REALIZABLE
        # Eigenvalues of [[1,.5,.5],[.5,1,.5],[.5,.5,1]] are {2, 1/2, 1/2}.
        eig = sorted(curved_gram(e, CurvatureSpec(1.0)).matrix.eigenvalues())
        assert np.allclose(eig, [0.5, 0.5, 2.0])

    def test_long_edge_rejected(self):
        g = (math.pi / 3) * (1 - np.eye(3))
        g[0, 1] = g[1, 0] = math.pi / 2 + 0.1
        report = check_spherical(EdgeLengths(g))
        assert report.verdict is Verdict.NOT_REALIZABLE
        assert "pi/2" in report.detail

    def test_collinear_arc_degenerate(self):
        e = EdgeLengths([[0, 0.1, 0.2], [0.1, 0, 0.1], [0.2, 0.1, 0]])
        assert check_spherical(e).verdict is Verdict.DEGENERATE


class TestDispatch:
    def test_kappa_minus_one(self, table_simplex):
        assert check(table_simplex, HYPERBOLIC).verdict is \
            check_hyperbolic(table_simplex).verdict

    def test_kappa_zero(self, table_simplex):
        assert check(table_simplex, CurvatureSpec(0.0)).verdict is \
            check_euclidean(table_simplex).verdict

    def test_kappa_minus_four_matches_doubled_edges(self, table_simplex):
        assert check(table_simplex, CurvatureSpec(-4.0)).verdict is \
            check_hyperbolic(table_simplex.scaled(2.0)).verdict

    @pytest.mark.parametrize("kappa", [-4.0, -0.3, 0.3, 4.0])
    def test_general_kappa_is_unit_model_of_rescaled_edges(self, table_simplex, kappa,
                                                            tmp_path, capsys):
        c = CurvatureSpec(kappa)
        unit_check = check_hyperbolic if kappa < 0 else check_spherical
        rng = np.random.default_rng(int(abs(kappa) * 10))
        cases = [table_simplex] + [random_simplex(rng, n, c) for n in (2, 3, 4)]
        for e in cases:
            report = check(e, c)
            unit = unit_check(e.scaled(math.sqrt(abs(kappa))))
            assert report.verdict is unit.verdict
            assert report.signature == unit.signature
            assert report.detail == unit.detail
            assert np.array_equal(report.eigenvalues, unit.eigenvalues)

            path = tmp_path / "simplex.json"
            path.write_text(json.dumps({"edge_lengths": e.gamma.tolist()}))
            main(["check", str(path), "--geometry", f"kappa={kappa}"])
            expected = " ".join(f"{v:.12g}" for v in sorted(report.eigenvalues, reverse=True))
            assert f"eigenvalues: {expected}" in capsys.readouterr().out.splitlines()


class TestPermutationInvariance:
    def test_all_classes(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            perm = list(rng.permutation(n + 1) + 1)
            e = random_euclidean(rng, n)
            assert check_euclidean(e.permuted(perm)).verdict is check_euclidean(e).verdict
            h = random_hyperbolic(rng, n)
            assert check_hyperbolic(h.permuted(perm)).verdict is check_hyperbolic(h).verdict
            s = random_spherical(rng, n)
            assert check_spherical(s.permuted(perm)).verdict is check_spherical(s).verdict


class TestOracleAgreement:
    def test_realizable_iff_embedding_reproduces_edges(self):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(10):
            n = int(rng.integers(2, 5))
            cases.append((random_euclidean(rng, n), CurvatureSpec(0.0)))
            cases.append((random_hyperbolic(rng, n), CurvatureSpec(-1.0)))
            cases.append((random_spherical(rng, n), CurvatureSpec(1.0)))
        for e, c in cases:
            assert check(e, c).verdict is Verdict.REALIZABLE
            emb = embed(e, c)
            recovered = edge_lengths_of(emb)
            assert np.max(np.abs(recovered.gamma - e.gamma)) < 1e-8
