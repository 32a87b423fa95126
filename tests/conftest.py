"""Shared fixtures: the worked 3-simplex and random realizable corpora.

Corpus generators build edge sets from explicit random vertex configurations
in the target model space, so every generated simplex is realizable by
construction and the generator itself is an independent route to the edge
data.
"""

import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import curvsimplex
from curvsimplex import (
    CurvatureSpec,
    EUCLIDEAN,
    EdgeLengths,
    HYPERBOLIC,
    SPHERICAL,
    Verdict,
    check,
)

# Edge-length table of the reference 3-simplex used throughout the tests.
TABLE_3SIMPLEX = [
    [0.0, 2.0, 3.0, 4.0],
    [2.0, 0.0, 4.0, 5.0],
    [3.0, 4.0, 0.0, 3.0],
    [4.0, 5.0, 3.0, 0.0],
]


@pytest.fixture
def table_simplex() -> EdgeLengths:
    return EdgeLengths(TABLE_3SIMPLEX)


def edges_from_points(points: np.ndarray) -> EdgeLengths:
    """Euclidean edge lengths of an explicit point configuration."""
    diff = points[:, None, :] - points[None, :, :]
    g = np.sqrt((diff ** 2).sum(axis=-1))
    return EdgeLengths(g)


def random_euclidean(rng: np.random.Generator, n: int) -> EdgeLengths:
    """Random realizable Euclidean n-simplex (vertices i.i.d. normal)."""
    while True:
        pts = rng.normal(size=(n + 1, n))
        e = edges_from_points(pts)
        if check(e, EUCLIDEAN).verdict is Verdict.REALIZABLE:
            return e


def random_hyperbolic(rng: np.random.Generator, n: int, spread: float = 0.8) -> EdgeLengths:
    """Random realizable hyperbolic n-simplex from hyperboloid-sheet points."""
    while True:
        x = rng.normal(size=(n + 1, n)) * spread
        t = np.sqrt(1.0 + (x ** 2).sum(axis=1))
        gram = x @ x.T - np.outer(t, t)
        g = np.arccosh(np.clip(-gram, 1.0, None))
        np.fill_diagonal(g, 0.0)
        try:
            e = EdgeLengths(g)
        except ValueError:
            continue
        if check(e, HYPERBOLIC).verdict is Verdict.REALIZABLE:
            return e


def random_spherical(rng: np.random.Generator, n: int, spread: float = 0.25,
                     max_edge: float = math.pi / 2) -> EdgeLengths:
    """Random realizable spherical n-simplex from points in a small cap."""
    while True:
        v = rng.normal(size=(n + 1, n + 1)) * spread
        v[:, 0] += 3.0
        v /= np.linalg.norm(v, axis=1)[:, None]
        g = np.arccos(np.clip(v @ v.T, -1.0, 1.0))
        np.fill_diagonal(g, 0.0)
        if g.max() >= max_edge:
            continue
        try:
            e = EdgeLengths(g)
        except ValueError:
            continue
        if check(e, SPHERICAL).verdict is Verdict.REALIZABLE:
            return e


def random_simplex(rng: np.random.Generator, n: int, c: CurvatureSpec) -> EdgeLengths:
    """Random realizable simplex for any curvature (general kappa by rescaling)."""
    kappa = c.kappa
    if kappa == 0:
        return random_euclidean(rng, n)
    scale = math.sqrt(abs(kappa))
    if kappa < 0:
        return random_hyperbolic(rng, n).scaled(1.0 / scale)
    return random_spherical(rng, n).scaled(1.0 / scale)


def well_shaped(rng: np.random.Generator, n: int, c: CurvatureSpec) -> EdgeLengths:
    """A regular n-simplex of unit-model edge 0.6, each vertex moved by about 0.05,
    in the model of c's sign (hyperboloid sheet, or sphere around (1, 0, ..., 0)),
    with its edges rescaled to c."""
    p = np.eye(n + 1) - 1.0 / (n + 1)
    x = p @ np.linalg.svd(p)[2][:n].T * (0.6 / math.sqrt(2))
    x += rng.normal(scale=0.05 / math.sqrt(n), size=x.shape)
    if c.kappa == 0:
        g = np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=-1))
    elif c.kappa < 0:
        t = np.sqrt(1.0 + (x ** 2).sum(axis=1))
        g = np.arccosh(np.clip(np.outer(t, t) - x @ x.T, 1.0, None))
    else:
        v = np.column_stack([np.ones(n + 1), x])
        v /= np.linalg.norm(v, axis=1)[:, None]
        g = np.arccos(np.clip(v @ v.T, -1.0, 1.0))
    np.fill_diagonal(g, 0.0)
    return EdgeLengths(g / c.scale if c.kappa else g)


def classical_gram(e: EdgeLengths, kappa: float, apex: int | None = None) -> list:
    """50-digit Gram matrix of the float64 edges by the classical route, as rows of mpf:
    the cos/cosh vertex Gram Q of the unit model at kappa != 0, and at kappa = 0 the
    apex Gram (g_ia^2 + g_ja^2 - g_ij^2) / 2 at ``apex`` a over the other vertices."""
    mpmath = pytest.importorskip("mpmath")
    g = [[mpmath.mpf(v) for v in row] for row in e.gamma.tolist()]
    with mpmath.workdps(50):
        if kappa == 0:
            a, others = apex - 1, [i for i in range(len(g)) if i != apex - 1]
            return [[(g[i][a] ** 2 + g[j][a] ** 2 - g[i][j] ** 2) / 2 for j in others]
                    for i in others]
        s = mpmath.sqrt(abs(mpmath.mpf(kappa)))
        f = mpmath.cos if kappa > 0 else (lambda t: -mpmath.cosh(t))
        return [[f(s * v) for v in row] for row in g]


def exact_apex_inertia(e: EdgeLengths, apex: int | None = None) -> tuple[int, int, int]:
    """Exact inertia (n+, n-, n0) of the classical apex Gram (g_ia^2 + g_ja^2 - g_ij^2) / 2
    of the float64 edges at ``apex`` a (default the last vertex), in ``fractions.Fraction``.

    Symmetric elimination keeps the inertia (Sylvester's law): a nonzero diagonal pivot
    counts its sign; where the whole diagonal vanishes, a first-row entry b and its mirror
    pivot as the 2 x 2 block [[0, b], [b, 0]], one positive and one negative eigenvalue;
    a zero first row is one zero eigenvalue.
    """
    g = [[Fraction(v) for v in row] for row in e.gamma.tolist()]
    a = (apex or len(g)) - 1
    others = [i for i in range(len(g)) if i != a]
    m = [[(g[i][a] ** 2 + g[j][a] ** 2 - g[i][j] ** 2) / 2 for j in others] for i in others]
    plus = minus = zero = 0
    while m:
        d = next((i for i in range(len(m)) if m[i][i]), None)
        if d is not None:
            p = m[d][d]
            plus, minus = plus + (p > 0), minus + (p < 0)
            rest = [i for i in range(len(m)) if i != d]
            m = [[m[r][c] - m[r][d] * m[d][c] / p for c in rest] for r in rest]
            continue
        j = next((j for j in range(1, len(m)) if m[0][j]), None)
        if j is None:
            zero += 1
            m = [row[1:] for row in m[1:]]
            continue
        b, plus, minus = m[0][j], plus + 1, minus + 1
        rest = [i for i in range(1, len(m)) if i != j]
        m = [[m[r][c] - (m[r][0] * m[j][c] + m[r][j] * m[0][c]) / b for c in rest]
             for r in rest]
    return plus, minus, zero


def random_interior_point(rng: np.random.Generator, num_vertices: int) -> np.ndarray:
    """Dirichlet-distributed interior barycentric coordinates."""
    return rng.dirichlet(np.ones(num_vertices))


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this curvsimplex; return stdout."""
    return _fresh_run(["-c", code], check=True).stdout


def fresh_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI on ``argv`` in a new interpreter, under Python's default warning
    filters (a warning prints to stderr, as at a shell)."""
    return _fresh_run(["-m", "curvsimplex.cli", *argv], check=False)


def _fresh_run(args: list[str], check: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(curvsimplex.__file__).parent.parent))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check, timeout=120)


# The collinear hyperbolic triple from the non-positive-definite-hull remark:
# Minkowski points (0,0,1), (0,1,sqrt 2), (0,2,sqrt 5) lie on a common line.
COLLINEAR_HYPERBOLIC_EDGES = [
    [0.0, math.acosh(math.sqrt(2)), math.acosh(math.sqrt(5))],
    [math.acosh(math.sqrt(2)), 0.0, math.acosh(math.sqrt(10) - 2)],
    [math.acosh(math.sqrt(5)), math.acosh(math.sqrt(10) - 2), 0.0],
]

# Vertex 5 is at distance 1 from every vertex of the face opposite it, whose apex
# Gram matrix has signature (1, 2, 0): that face is no Euclidean tetrahedron.
NON_EUCLIDEAN_FACE_EDGES = [
    [0.0, 1.075, 2.966, 1.702, 1.0],
    [1.075, 0.0, 1.594, 0.604, 1.0],
    [2.966, 1.594, 0.0, 0.701, 1.0],
    [1.702, 0.604, 0.701, 0.0, 1.0],
    [1.0, 1.0, 1.0, 1.0, 0.0],
]

# The differential corpus tool, tools/corpus.py.  Its named cases include two
# realizable simplices whose vertex-4 signed first-row minors sum to the wrong
# sign: normalized to sum 1 they are the foot's mirror on the hyperboloid's
# lower sheet, and its antipode on the sphere (at pi minus the altitude); two
# flat Euclidean 4-simplices, given by squared edges, and a flat hyperbolic
# tetrahedron, given by the spatial coordinates of its vertices, which every
# tol > 0 here calls Degenerate.  At tol 0 rounding decides: the bordered matrix
# reads each NotRealizable in its given order, and Realizable once relabeled by
# its order in FLAT_TOL0_ORDERS (``EdgeLengths.permuted``).
_spec = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).resolve().parent.parent / "tools" / "corpus.py")
CORPUS_TOOL = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(CORPUS_TOOL)
WRONG_SHEET_TETRAHEDRON = CORPUS_TOOL.WRONG_SHEET_TETRAHEDRON
ANTIPODE_4SIMPLEX = CORPUS_TOOL.ANTIPODE_4SIMPLEX
FLAT_4SIMPLICES = {"A": CORPUS_TOOL.FLAT_4SIMPLEX_A, "B": CORPUS_TOOL.FLAT_4SIMPLEX_B}
FLAT_HYPERBOLIC_TETRAHEDRON = CORPUS_TOOL.hyperboloid_edges(CORPUS_TOOL.FLAT_HYPERBOLIC_POINTS)
FLAT_TOL0_ORDERS = {"A": (1, 2, 3, 5, 4), "B": (1, 3, 2, 5, 4), "hyperbolic": (1, 2, 4, 3)}
# Two triangles given asymmetric within EDGE_SYMMETRY_TOL: the first with a
# subnormal edge, the second a spherical one with an entry past pi/2 but every
# stored edge below it.
ASYMMETRIC_TRIANGLE = CORPUS_TOOL.ASYMMETRIC_TRIANGLE
NEAR_RIGHT_TRIANGLE = CORPUS_TOOL.NEAR_RIGHT_TRIANGLE
