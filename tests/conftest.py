"""Shared fixtures: the worked 3-simplex and random realizable corpora.

Corpus generators build edge sets from explicit random vertex configurations
in the target model space, so every generated simplex is realizable by
construction and the generator itself is an independent route to the edge
data.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from curvsimplex import (
    CurvatureSpec,
    EdgeLengths,
    Verdict,
    check_euclidean,
    check_hyperbolic,
    check_spherical,
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
        if check_euclidean(e).verdict is Verdict.REALIZABLE:
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
        if check_hyperbolic(e).verdict is Verdict.REALIZABLE:
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
        if check_spherical(e).verdict is Verdict.REALIZABLE:
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


def random_interior_point(rng: np.random.Generator, num_vertices: int) -> np.ndarray:
    """Dirichlet-distributed interior barycentric coordinates."""
    return rng.dirichlet(np.ones(num_vertices))


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
# lower sheet, and its antipode on the sphere (at pi minus the altitude).
_spec = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).resolve().parent.parent / "tools" / "corpus.py")
CORPUS_TOOL = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(CORPUS_TOOL)
WRONG_SHEET_TETRAHEDRON = CORPUS_TOOL.WRONG_SHEET_TETRAHEDRON
ANTIPODE_4SIMPLEX = CORPUS_TOOL.ANTIPODE_4SIMPLEX
