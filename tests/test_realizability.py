"""Realizability verdict tests."""

import json
import math

import numpy as np
import pytest

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    Embedding,
    EUCLIDEAN,
    GeometryError,
    GramMatrix,
    GramOverflow,
    HYPERBOLIC,
    ProjectionResult,
    RealizabilityReport,
    SPHERICAL,
    Verdict,
    check,
    curved_gram,
    distance,
    embed,
    euclidean_face_volume,
    euclidean_gram,
    euclidean_volume,
    model_gram,
    project,
)
from curvsimplex.cli import main
from curvsimplex.oracle import edge_lengths_of

from conftest import (
    COLLINEAR_HYPERBOLIC_EDGES,
    CORPUS_TOOL,
    exact_apex_inertia,
    random_euclidean,
    random_hyperbolic,
    random_interior_point,
    random_simplex,
    random_spherical,
)


class TestEuclidean:
    def test_reference_realizable(self, table_simplex):
        assert check(table_simplex, EUCLIDEAN).verdict is Verdict.REALIZABLE

    def test_collinear_degenerate(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        report = check(e, EUCLIDEAN)
        assert report.verdict is Verdict.DEGENERATE
        assert report.signature.n_zero == 1

    def test_triangle_inequality_violated(self):
        e = EdgeLengths([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        report = check(e, EUCLIDEAN)
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
        report = check(table_simplex, HYPERBOLIC)
        assert report.verdict is Verdict.REALIZABLE
        assert report.signature.as_tuple() == (3, 1, 0)

    def test_collinear_triple_degenerate(self):
        e = EdgeLengths(COLLINEAR_HYPERBOLIC_EDGES)
        assert check(e, HYPERBOLIC).verdict is Verdict.DEGENERATE

    def test_tiny_equilateral_realizable(self):
        e = EdgeLengths(0.01 * (1 - np.eye(4)))
        assert check(e, HYPERBOLIC).verdict is Verdict.REALIZABLE

    def test_near_euclidean_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            e = random_euclidean(rng, int(rng.integers(2, 5)))
            assert check(e.scaled(1e-2), HYPERBOLIC).verdict is Verdict.REALIZABLE


class TestBorderedMatrix:
    """The verdict classifies the bordered matrix M of k + 1 rows; less the
    border's inertia, M's inertia is the model Gram matrix's signature."""

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0, 0.3, -0.3, -4.0])
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_signature_is_the_model_gram_signature(self, n, kappa):
        rng = np.random.default_rng(round(10 * abs(kappa)) + 100 * n + (kappa < 0))
        c = CurvatureSpec(kappa)
        verdicts = set()
        for _ in range(5):
            e = random_simplex(rng, n, c)
            g = e.gamma.copy()
            g[0, 1] = g[1, 0] = 3.0 * g[0, 1]  # inflated: mostly not realizable
            for edges in (e, EdgeLengths(g)):
                report = check(edges, c)
                assert report.signature == model_gram(edges, c).matrix.signature()
                assert len(report.eigenvalues) == n + 2
                verdicts.add(report.verdict)
        assert verdicts == {Verdict.REALIZABLE, Verdict.NOT_REALIZABLE}

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -1.0])
    def test_border_read_as_zero_leaves_the_zeros(self, table_simplex, kappa):
        # At tol 1 every eigenvalue of M, the border's included, reads as zero.
        e, c = table_simplex.scaled(0.1), CurvatureSpec(kappa)
        report = check(e, c, 1.0)
        assert report.signature.as_tuple() == (0, 0, model_gram(e, c).matrix.dim)
        assert report.verdict is Verdict.DEGENERATE


class TestSpectrumOverflow:
    """The regular simplex's largest |eigenvalue| is 1 + (k - 1) cosh a on the
    vertex Gram and about (k - 1) cosh a on the bordered matrix: both leave
    float64 from edge a ~ 710.48 - ln(k - 1), below COSH_ARG_MAX."""

    @pytest.mark.parametrize("k, edge", [(4, 709.5), (6, 709.0)])
    def test_infinite_eigenvalue_raises(self, k, edge):
        e = EdgeLengths(edge * (1 - np.eye(k)))
        with pytest.raises(GramOverflow, match="eigenvalues"):
            check(e, HYPERBOLIC)
        # The Gram matrix is stored, but no verdict: a second check fails again.
        q = model_gram(e, HYPERBOLIC)
        with pytest.raises(GramOverflow, match="eigenvalues"):
            check(e, HYPERBOLIC)
        assert model_gram(e, HYPERBOLIC) is q

    def test_finite_spectrum_below(self):
        assert check(EdgeLengths(709.0 * (1 - np.eye(4))), HYPERBOLIC).verdict \
            is Verdict.REALIZABLE


class TestSmallUnitModelEdges:
    """Short unit-model edges, at kappa = +-1 or as kappa -> 0, keep their verdict.
    The zero cutoff is tol * max|lambda| of the bordered matrix, built from the
    half squared chords E with a border of the size of max E, so its eigenvalues
    all scale with E: on the regular simplex with k vertices and edge 5e-5 the
    smallest |lambda| is 1/k of the largest.  Distances are read from E too."""

    @pytest.mark.parametrize("kappa", [-1.0, 1.0])
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_small_regular_simplex_realizable(self, k, kappa):
        e = EdgeLengths(5e-5 * (1 - np.eye(k)))
        assert check(e, CurvatureSpec(kappa)).verdict is Verdict.REALIZABLE

    @pytest.mark.parametrize("kappa", [-1e-14, 1e-14])
    def test_unit_tetrahedron_at_tiny_kappa_realizable(self, kappa):
        e = EdgeLengths(1 - np.eye(4))
        assert check(e, CurvatureSpec(kappa)).verdict is Verdict.REALIZABLE

    @pytest.mark.parametrize("kappa", [-1e-14, 1e-14])
    def test_opposite_edge_midpoints_at_tiny_kappa(self, kappa):
        e = EdgeLengths(1 - np.eye(4))
        x, y = BarycentricPoint([0.5, 0.5, 0, 0]), BarycentricPoint([0, 0, 0.5, 0.5])
        assert distance(e, CurvatureSpec(kappa), x, y) == pytest.approx(
            1 / math.sqrt(2), rel=1e-9)


class TestSpherical:
    def test_equilateral_realizable(self):
        e = EdgeLengths((math.pi / 3) * (1 - np.eye(3)))
        report = check(e, SPHERICAL)
        assert report.verdict is Verdict.REALIZABLE
        # Eigenvalues of [[1,.5,.5],[.5,1,.5],[.5,.5,1]] are {2, 1/2, 1/2}.
        eig = sorted(curved_gram(e, CurvatureSpec(1.0)).matrix.eigenvalues())
        assert np.allclose(eig, [0.5, 0.5, 2.0])

    def test_long_edge_rejected(self):
        g = (math.pi / 3) * (1 - np.eye(3))
        g[0, 1] = g[1, 0] = math.pi / 2 + 0.1
        report = check(EdgeLengths(g), SPHERICAL)
        assert report.verdict is Verdict.NOT_REALIZABLE
        assert "pi/2" in report.detail

    def test_collinear_arc_degenerate(self):
        e = EdgeLengths([[0, 0.1, 0.2], [0.1, 0, 0.1], [0.2, 0.1, 0]])
        assert check(e, SPHERICAL).verdict is Verdict.DEGENERATE


class TestDispatch:
    def test_kappa_minus_four_matches_doubled_edges(self, table_simplex):
        assert check(table_simplex, CurvatureSpec(-4.0)).verdict is \
            check(table_simplex.scaled(2.0), HYPERBOLIC).verdict

    @pytest.mark.parametrize("kappa", [-4.0, -0.3, 0.3, 4.0])
    def test_general_kappa_is_unit_model_of_rescaled_edges(self, table_simplex, kappa,
                                                            tmp_path, capsys):
        c = CurvatureSpec(kappa)
        unit_c = CurvatureSpec(math.copysign(1.0, kappa))
        rng = np.random.default_rng(int(abs(kappa) * 10))
        cases = [table_simplex] + [random_simplex(rng, n, c) for n in (2, 3, 4)]
        for e in cases:
            report = check(e, c)
            unit = check(e.scaled(math.sqrt(abs(kappa))), unit_c)
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
            assert check(e.permuted(perm), EUCLIDEAN).verdict is check(e, EUCLIDEAN).verdict
            h = random_hyperbolic(rng, n)
            assert check(h.permuted(perm), HYPERBOLIC).verdict is check(h, HYPERBOLIC).verdict
            s = random_spherical(rng, n)
            assert check(s.permuted(perm), SPHERICAL).verdict is check(s, SPHERICAL).verdict


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


def corpus_euclidean_sets():
    """The corpus's kappa = 0 edge sets with n <= 10 that validate, in its order."""
    for label, kappa, g in CORPUS_TOOL.cases("full", 0):
        if kappa == 0 and g.shape[0] <= 11:
            try:
                yield label, EdgeLengths(g)
            except ValueError:
                continue


def seeded_euclidean_sets(count=200):
    """Edge sets of normal points, n in 2..10; every other one has one edge inflated."""
    rng = np.random.default_rng(36)
    for i in range(count):
        n = int(rng.integers(2, 11))
        g = CORPUS_TOOL.model_points(rng, 0.0, n)
        if i % 2:
            a, b = rng.choice(n + 1, size=2, replace=False)
            g[a, b] = g[b, a] = g[a, b] * rng.uniform(1.5, 4.0)
        yield f"seeded {i}", EdgeLengths(g)


class TestExactEuclideanVerdict:
    """At kappa = 0 the verdict has a second route: the exact inertia of the apex Gram
    of the float64 edges.  The two agree wherever M's eigenvalues are clear of zero."""

    def agreements(self, sets):
        compared = skipped = 0
        for label, e in sets:
            try:
                report = check(e, EUCLIDEAN)
            except GramOverflow:
                continue
            lam = np.abs(report.eigenvalues)
            if not lam.min() > 1e-6 * lam.max():
                skipped += 1
                continue
            exact = exact_apex_inertia(e)
            assert report.signature.as_tuple() == exact, label
            assert (report.verdict is Verdict.REALIZABLE) == (exact == (e.n, 0, 0)), label
            compared += 1
        return compared, skipped

    def test_corpus_sets(self):
        compared, skipped = self.agreements(corpus_euclidean_sets())
        assert compared >= 15 and skipped <= 4

    def test_seeded_random_and_inflated_sets(self):
        compared, _ = self.agreements(seeded_euclidean_sets())
        assert compared >= 190

    def test_the_elimination_pivots_on_a_vanishing_diagonal(self):
        # Apex Gram [[1, 2, 3], [2, 4, 2], [3, 2, 9]]: after the first pivot the
        # remaining diagonal is 0, so the last two rows pivot as one 2 x 2 block.
        e = EdgeLengths([[0, 1, 2, 1], [1, 0, 3, 2], [2, 3, 0, 3], [1, 2, 3, 0]])
        assert exact_apex_inertia(e) == (2, 1, 0)
        # Collinear points: a zero row is a zero eigenvalue.
        assert exact_apex_inertia(EdgeLengths([[0, 1, 3], [1, 0, 2], [3, 2, 0]])) == (1, 0, 1)


def _bits(value):
    """A result with every float replaced by its bytes, so == means bit-identical."""
    if isinstance(value, RealizabilityReport):
        return (value.verdict, value.signature, value.detail, value.eigenvalues.tobytes())
    if isinstance(value, ProjectionResult):
        lift = None if value.foot_model is None else value.foot_model.coords.tobytes()
        return (value.foot.coords.tobytes(), _bits(value.altitude), value.inside_face, lift)
    if isinstance(value, Embedding):
        return (value.model, value.vertices.tobytes(), value.curvature)
    if isinstance(value, GramMatrix):
        return (value.matrix.data.tobytes(), value.curvature, value.apex)
    return np.float64(value).tobytes()


def outcome(call, e):
    """call(e) as bits, or the type and message of the GeometryError it raised."""
    try:
        return _bits(call(e))
    except GeometryError as exc:
        return (type(exc), str(exc))


def public_calls(c, k):
    """Every public result of one edge set at curvature c, in a fixed order."""
    mid = BarycentricPoint([0.5, 0.5] + [0.0] * (k - 2))
    centroid = BarycentricPoint([1.0 / k] * k)
    first, last = BarycentricPoint.vertex(1, k), BarycentricPoint.vertex(k, k)
    calls = [
        lambda e: check(e, c),
        lambda e: check(e, c, 1e-3),
        lambda e: check(e, c),
        lambda e: model_gram(e, c),
        lambda e: distance(e, c, first, last),
        lambda e: distance(e, c, mid, centroid),
        lambda e: distance(e, c, centroid, centroid),
        lambda e: embed(e, c),
    ]
    calls += [lambda e, v=v: project(e, c, v) for v in range(1, k + 1)]
    if c.kappa == 0:
        calls += [euclidean_volume, lambda e: euclidean_face_volume(e, k)]
    return calls


def inflated(e):
    """The edge set with edge 1-2 longer than the path through vertex 3."""
    g = np.array(e.gamma)
    g[0, 1] = g[1, 0] = 1.5 * (g[0, 2] + g[1, 2])
    return g


class TestCheckedEdgeSetMemo:
    """A checked edge set answers every public call as an unchecked one would."""

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0, -0.3, 0.3])
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_checked_equals_fresh(self, kappa, n):
        c = CurvatureSpec(kappa)
        rng = np.random.default_rng(int(1000 * abs(kappa)) + 10 * n + (kappa < 0))
        realizable = random_simplex(rng, n, c)
        for g, verdict in ((realizable.gamma, Verdict.REALIZABLE),
                           (inflated(realizable), Verdict.NOT_REALIZABLE)):
            checked = EdgeLengths(g)
            assert check(checked, c).verdict is verdict
            for call in public_calls(c, n + 1):
                assert outcome(call, checked) == outcome(call, EdgeLengths(g))

    # A flat triangle: Realizable at tol 1e-9 but Degenerate at 1e-3 for these kappas.
    FLAT = [[0.0, 2.0, math.hypot(1, 1e-2)], [2.0, 0.0, math.hypot(1, 1e-2)],
            [math.hypot(1, 1e-2), math.hypot(1, 1e-2), 0.0]]

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 0.3, -0.3])
    def test_interleaved_calls_see_no_stale_entry(self, kappa):
        c, flipped, other = (CurvatureSpec(kappa), CurvatureSpec(-kappa),
                             CurvatureSpec(kappa - 0.5))
        x, y = BarycentricPoint([0.2, 0.3, 0.5]), BarycentricPoint.vertex(2, 3)
        steps = [
            lambda e: check(e, c),
            lambda e: check(e, flipped),
            lambda e: check(e, c, 1e-9),
            lambda e: check(e, c, 1e-3),
            lambda e: check(e, c, 1e-9),
            lambda e: distance(e, other, x, y),
            lambda e: check(e, flipped, 1e-3),
            lambda e: distance(e, c, x, y),
            lambda e: project(e, c, 3),
        ]
        e = EdgeLengths(self.FLAT)
        got = [outcome(step, e) for step in steps]
        assert got == [outcome(step, EdgeLengths(self.FLAT)) for step in steps]
        assert got[2][0] is Verdict.REALIZABLE and got[3][0] is Verdict.DEGENERATE

    TOLS = [1e-9, 1e-3, 0.0]

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("kappa, other", [(0.0, -1.0), (-1.0, 1.0), (1.0, -0.3), (-0.3, 0.0)])
    def test_random_interleavings_at_two_curvatures(self, kappa, other, n):
        # Every call on one edge set returns what the same call returns on a fresh one.
        rng = np.random.default_rng(20261020 + n)
        e = random_simplex(rng, n, CurvatureSpec(kappa))
        k = e.num_vertices
        x, y = (BarycentricPoint(random_interior_point(rng, k)) for _ in range(2))
        calls = {
            "check": lambda e, c: check(e, c, self.TOLS[rng.integers(3)]),
            "distance": lambda e, c: distance(e, c, x, y),
            "model_gram": model_gram,
            "project": lambda e, c: project(e, c, int(rng.integers(1, k + 1)),
                                            self.TOLS[rng.integers(3)]),
            "euclidean_volume": lambda e, c: euclidean_volume(e, self.TOLS[rng.integers(3)]),
        }
        names = list(calls)
        for _ in range(60):
            name = names[rng.integers(len(names))]
            c = EUCLIDEAN if name == "euclidean_volume" else CurvatureSpec(
                (kappa, other)[rng.integers(2)])
            state = rng.bit_generator.state
            kept = outcome(lambda e: calls[name](e, c), e)
            rng.bit_generator.state = state  # the fresh call draws the same arguments
            assert kept == outcome(lambda e: calls[name](e, c), EdgeLengths(e.gamma)), name

    def test_bad_tol_is_rejected_after_a_check(self, table_simplex):
        check(table_simplex, HYPERBOLIC)
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
                check(table_simplex, HYPERBOLIC, tol)

    def test_same_curvature_and_tol_returns_the_stored_report(self, table_simplex):
        report = check(table_simplex, HYPERBOLIC)
        assert check(table_simplex, CurvatureSpec(-1.0)) is report
        assert check(table_simplex, HYPERBOLIC, 1e-3) is not report
