"""Acceptance gate: seventeen numbered criteria, one pass/fail line each.

Criteria 1-10 reproduce the worked 3-simplex reference values; criteria 11-17
are property checks over random corpora plus constructed degenerate cases.
Each test prints exactly one ``[PASS]``/``[FAIL]`` line (written past pytest's
capture so it always appears) and then asserts.
"""

import math

import numpy as np
import pytest

from curvsimplex import (
    BarycentricPoint,
    CurvatureSpec,
    EUCLIDEAN,
    EdgeLengths,
    HYPERBOLIC,
    SPHERICAL,
    Verdict,
    brute_distance,
    brute_project,
    check,
    curved_gram,
    distance,
    embed,
    euclidean_gram,
    hull_inner_product,
    project,
)

from conftest import (
    COLLINEAR_HYPERBOLIC_EDGES,
    TABLE_3SIMPLEX,
    random_euclidean,
    random_hyperbolic,
    random_interior_point,
    random_simplex,
    random_spherical,
)

TABLE = EdgeLengths(TABLE_3SIMPLEX)
P = BarycentricPoint([0.25, 0.25, 0.25, 0.25])
Q = BarycentricPoint([1 / 3, 1 / 3, 1 / 3, 0.0])


@pytest.fixture
def report(capfd):
    """One pass/fail line per criterion, emitted past pytest's capture."""
    def _report(num: int, ok: bool, desc: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def close(a, b, atol):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= atol))


def test_criterion_01_euclidean_gram(report):
    q = euclidean_gram(TABLE, apex=1).matrix.data
    expected = np.array([[4.0, -1.5, -2.5], [-1.5, 9.0, 8.0], [-2.5, 8.0, 16.0]])
    report(1, np.array_equal(q, expected), "Euclidean Gram (apex v1) exact")


def test_criterion_02_euclidean_gram_eigenvalues(report):
    eig = sorted(euclidean_gram(TABLE, apex=1).matrix.eigenvalues(), reverse=True)
    report(2, close(eig, [21.7, 3.81, 3.48], 0.05),
           "Euclidean Gram eigenvalues {21.7, 3.81, 3.48} within 0.05")


def test_criterion_03_euclidean_distance(report):
    d = distance(TABLE, EUCLIDEAN, P, Q)
    report(3, abs(d - 11.0 / 12.0) <= 1e-12, "d_E(p,q) = 11/12 within 1e-12")


def test_criterion_04_hyperbolic_gram_eigenvalues(report):
    m = curved_gram(TABLE, HYPERBOLIC).matrix
    eig = sorted(m.eigenvalues())
    ok = close(eig, [-90.1, 1.4, 5.5, 79.2], 0.1)
    ok = ok and m.signature().as_tuple() == (3, 1, 0)
    report(4, ok, "hyperbolic vertex Gram eigenvalues within 0.1, signature (3,1,0)")


def test_criterion_05_hull_inner_products(report):
    q = curved_gram(TABLE, HYPERBOLIC)
    ok = (abs(hull_inner_product(q, P, Q) - (-16.40517)) <= 1e-4
          and abs(hull_inner_product(q, P, P) - (-19.34049)) <= 1e-4
          and abs(hull_inner_product(q, Q, Q) - (-9.47513)) <= 1e-4)
    report(5, ok, "<p,q>, <p,p>, <q,q> within 1e-4")


def test_criterion_06_hyperbolic_distance(report):
    d_h = distance(TABLE, HYPERBOLIC, P, Q)
    d_e = distance(TABLE, EUCLIDEAN, P, Q)
    ok = abs(d_h - 0.63997) <= 1e-4 and d_h < d_e
    report(6, ok, "d_H(p,q) = 0.63997 within 1e-4 and d_H < d_E")


def test_criterion_07_euclidean_foot_and_minors(report):
    res = project(TABLE, EUCLIDEAN, 1)
    ok = close(res.foot.coords, [0.0, 0.65625, 0.23264, 0.11111], 1e-5)
    m = euclidean_gram(TABLE, apex=1).matrix
    minors = {(i, j): m.minor(i, j) for i in range(1, 4) for j in range(i, 4)}
    expected = {(1, 1): 80.0, (1, 2): -4.0, (1, 3): 10.5,
                (2, 2): 231.0 / 4.0, (2, 3): 113.0 / 4.0, (3, 3): 135.0 / 4.0}
    ok = ok and all(abs(minors[k] - v) <= 1e-9 for k, v in expected.items())
    signed_sum = sum((-1.0) ** (i + j) * m.minor(i, j)
                     for i in range(1, 4) for j in range(1, 4))
    ok = ok and abs(signed_sum - 144.0) <= 1e-9
    report(7, ok, "Euclidean foot within 1e-5; face determinant 144 and minors within 1e-9")


def test_criterion_08_euclidean_altitude_and_lemma(report):
    res = project(TABLE, EUCLIDEAN, 1)
    ok = abs(res.altitude - 1.4136) <= 1e-3
    # |Q| = d^2 * (signed-minor sum): determinant factorizes through the
    # altitude and the squared face content.
    m = euclidean_gram(TABLE, apex=1).matrix
    signed_sum = sum((-1.0) ** (i + j) * m.minor(i, j)
                     for i in range(1, 4) for j in range(1, 4))
    lhs = m.determinant()
    rhs = res.altitude ** 2 * signed_sum
    ok = ok and abs(lhs - rhs) <= 1e-8 * abs(lhs)
    report(8, ok, "Euclidean altitude 1.4136 within 1e-3; determinant identity to 1e-8 relative")


def test_criterion_09_hyperbolic_minors_and_normalizer(report):
    m = curved_gram(TABLE, HYPERBOLIC).matrix
    minors = [m.minor(1, i) for i in range(1, 5)]
    ok = (abs(minors[1] - (-12350.57)) <= 0.5
          and abs(minors[2] - 2340.72) <= 0.5
          and abs(minors[3] - (-718.81)) <= 0.5)
    s = sum((-1.0) ** (i + j) * minors[i - 1] * minors[j - 1]
            * math.cosh(TABLE.length(i, j) if i != j else 0.0)
            for i in range(2, 5) for j in range(2, 5))
    ok = ok and abs(math.sqrt(s) - 55578.499) <= 1.0
    report(9, ok, "hyperbolic first-row minors within 0.5; normalizer 55578.499 within 1.0")


def test_criterion_10_hyperbolic_foot(report):
    res = project(TABLE, HYPERBOLIC, 1)
    ok = close(res.foot.coords, [0.0, 0.80146, 0.15190, 0.04665], 1e-4)
    ok = ok and close(res.foot_model.coords, [0.0, 0.22222, 0.04212, 0.01293], 1e-4)
    ok = ok and abs(res.altitude - 1.0575) <= 1e-3
    ok = ok and res.altitude < project(TABLE, EUCLIDEAN, 1).altitude
    report(10, ok, "hyperbolic foot/lift within 1e-4, altitude 1.0575 within 1e-3, < Euclidean")


def _corpus(rng, per_class):
    """(edge set, curvature) pairs over every curvature class, n in 2..6."""
    dims = [2, 3, 4, 5, 6]
    specs = [
        (EUCLIDEAN, random_euclidean),
        (HYPERBOLIC, random_hyperbolic),
        (SPHERICAL, random_spherical),
        (CurvatureSpec(-0.25), None),
        (CurvatureSpec(0.25), None),
    ]
    for c, gen in specs:
        for idx in range(per_class):
            n = dims[idx % len(dims)]
            if gen is None:
                yield random_simplex(rng, n, c), c
            else:
                yield gen(rng, n), c


def test_criterion_11_oracle_equivalence(report):
    rng = np.random.default_rng(1101)
    worst = 0.0
    count = 0
    for e, c in _corpus(rng, 200):
        count += 1
        emb = embed(e, c)
        k = e.num_vertices
        if c.kappa == 0:
            synthetic = lambda x, y: distance(e, EUCLIDEAN, x, y)
        else:
            unit_e, unit_c = e.scaled(c.scale), CurvatureSpec(math.copysign(1.0, c.kappa))
            synthetic = lambda x, y: distance(unit_e, unit_c, x, y) / c.scale
        pts = [BarycentricPoint(random_interior_point(rng, k)) for _ in range(20)]
        pairs = [(pts[int(a)], pts[int(b)])
                 for a, b in rng.integers(0, len(pts), size=(100, 2))]
        for x, y in pairs:
            worst = max(worst, abs(synthetic(x, y) - brute_distance(emb, x, y)))
    ok = count == 1000 and worst <= 1e-8
    report(11, ok, f"synthetic vs embedded distances within 1e-8 "
                   f"on 100 pairs x {count} simplices (worst {worst:.2e})")


def test_criterion_12_projection_optimality(report):
    rng = np.random.default_rng(1201)
    specs = [
        (EUCLIDEAN, lambda r, n: random_euclidean(r, n)),
        (HYPERBOLIC, lambda r, n: random_hyperbolic(r, n)),
        (SPHERICAL, lambda r, n: random_spherical(r, n)),
    ]
    worst_foot = worst_alt = 0.0
    for c, gen in specs:
        done = 0
        while done < 50:
            n = int(rng.integers(2, 4))
            e = gen(rng, n)
            vertex = int(rng.integers(1, e.num_vertices + 1))
            res = project(e, c, vertex)
            if not res.inside_face:
                continue
            emb = embed(e, c)
            foot = brute_project(emb, vertex)
            v = BarycentricPoint.vertex(vertex, e.num_vertices)
            alt = brute_distance(emb, v, foot)
            worst_foot = max(worst_foot, float(np.max(np.abs(res.foot.coords - foot.coords))))
            worst_alt = max(worst_alt, res.altitude - alt)
            done += 1
    ok = worst_foot <= 1e-6 and worst_alt <= 1e-8
    report(12, ok, f"closed-form feet match brute force, 50 simplices/class "
                   f"(foot {worst_foot:.2e}, altitude {worst_alt:.2e})")


def test_criterion_13_hyperbolic_orthogonality(report):
    rng = np.random.default_rng(1301)
    worst = 0.0
    done = 0
    while done < 200:
        n = int(rng.integers(2, 5))
        e = random_hyperbolic(rng, n)
        vertex = int(rng.integers(1, e.num_vertices + 1))
        res = project(e, HYPERBOLIC, vertex)
        if res.foot_model is None:
            continue
        q = curved_gram(e, HYPERBOLIC)
        v = BarycentricPoint.vertex(vertex, e.num_vertices)
        vp = hull_inner_product(q, v, res.foot_model)
        u = vp * res.foot_model.coords + v.coords
        residual = q.matrix.data @ u
        face = [i for i in range(e.num_vertices) if i != vertex - 1]
        worst = max(worst, float(np.max(np.abs(residual[face]))))
        done += 1
    ok = worst <= 1e-8
    report(13, ok, f"<<v,p~>p~ + v, v_i> = 0 within 1e-8, 200 simplices (worst {worst:.2e})")


def test_criterion_14_face_determinant_identity(report):
    rng = np.random.default_rng(1401)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        e = random_euclidean(rng, n)
        vertex = int(rng.integers(1, e.num_vertices + 1))
        m = euclidean_gram(e, apex=vertex).matrix.data
        signed_sum = float(np.sum(np.linalg.det(m) * np.linalg.inv(m)))
        face = [i for i in range(1, e.num_vertices + 1) if i != vertex]
        face_det = euclidean_gram(e.restricted(face), apex=len(face)).matrix.determinant()
        worst = max(worst, abs(signed_sum - face_det) / abs(face_det))
    ok = worst <= 1e-8
    report(14, ok, f"signed-minor sum equals face Gram determinant to 1e-8 relative, "
                   f"200 simplices (worst {worst:.2e})")


def test_criterion_15_collinear_triple_regression(report):
    e = EdgeLengths(COLLINEAR_HYPERBOLIC_EDGES)
    verdict_ok = check(e, HYPERBOLIC).verdict is Verdict.DEGENERATE
    chord = np.sqrt(np.clip(2.0 * np.cosh(e.gamma) - 2.0, 0.0, None))
    np.fill_diagonal(chord, 0.0)
    hull_gram = euclidean_gram(EdgeLengths(chord), apex=3).matrix
    ok = verdict_ok and not hull_gram.is_positive_definite()
    report(15, ok, "collinear hyperbolic triple is Degenerate and its hull Gram is not PD")


def test_criterion_16_scaling_law(report):
    rng = np.random.default_rng(1601)
    worst = 0.0
    for kappa in (-4.0, -0.25, 0.25, 4.0):
        c = CurvatureSpec(kappa)
        unit = CurvatureSpec(math.copysign(1.0, kappa))
        scale = math.sqrt(abs(kappa))
        for _ in range(10):
            n = int(rng.integers(2, 5))
            e = random_simplex(rng, n, c)
            k = e.num_vertices
            x = BarycentricPoint(random_interior_point(rng, k))
            y = BarycentricPoint(random_interior_point(rng, k))
            d = distance(e, c, x, y)
            d_unit = distance(e.scaled(scale), unit, x, y)
            worst = max(worst, abs(d - d_unit / scale))
    ok = worst <= 1e-9
    report(16, ok, f"general-curvature distances scale by 1/sqrt(|kappa|) within 1e-9 "
                   f"(worst {worst:.2e})")


def test_criterion_17_edge_recovery(report):
    rng = np.random.default_rng(1701)
    worst = 0.0
    for e, c in _corpus(rng, 20):
        k = e.num_vertices
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                d = distance(e, c, BarycentricPoint.vertex(i, k),
                             BarycentricPoint.vertex(j, k))
                worst = max(worst, abs(d - e.length(i, j)))
    ok = worst <= 1e-10
    report(17, ok, f"vertex-to-vertex distances recover the edge lengths within 1e-10 "
                   f"across all classes (worst {worst:.2e})")
