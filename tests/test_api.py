"""The public surface: one name per operation, and one tol check behind every tol."""

import math

import pytest

import curvsimplex
from curvsimplex import (
    EUCLIDEAN,
    HYPERBOLIC,
    EdgeLengths,
    check,
    embed,
    euclidean_face_volume,
    euclidean_volume,
    project,
)
from curvsimplex import projection, realizability

from conftest import TABLE_3SIMPLEX

# The per-model spellings of check and project; callers pass a CurvatureSpec instead.
MODELS = ("euclidean", "hyperbolic", "spherical")
DELETED_ALIASES = [f"check_{m}" for m in MODELS] + [f"{m}_project" for m in MODELS]

EDGE = [[0.0, 1.0], [1.0, 0.0]]
TRIANGLE = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


class TestPublicNames:
    def test_all_is_unique_and_resolves(self):
        names = curvsimplex.__all__
        assert len(set(names)) == len(names)
        for name in names:
            getattr(curvsimplex, name)

    @pytest.mark.parametrize("module", [curvsimplex, realizability, projection],
                             ids=lambda m: m.__name__)
    def test_per_model_aliases_are_gone(self, module):
        for name in DELETED_ALIASES:
            assert not hasattr(module, name)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("edges, call", [
    pytest.param(TABLE_3SIMPLEX, lambda e, tol: check(e, HYPERBOLIC, tol), id="check"),
    pytest.param(TABLE_3SIMPLEX, lambda e, tol: project(e, EUCLIDEAN, 1, tol), id="project"),
    pytest.param(TABLE_3SIMPLEX, euclidean_volume, id="euclidean_volume"),
    pytest.param(EDGE, lambda e, tol: euclidean_face_volume(e, 1, tol),
                 id="euclidean_face_volume-k2"),
    pytest.param(TRIANGLE, lambda e, tol: euclidean_face_volume(e, 1, tol),
                 id="euclidean_face_volume-k3"),
    pytest.param(TABLE_3SIMPLEX, lambda e, tol: embed(e, HYPERBOLIC, tol), id="embed"),
])
def test_bad_tol_is_rejected(edges, call, tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        call(EdgeLengths(edges), tol)
