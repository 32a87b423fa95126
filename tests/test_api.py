"""The public surface: one name per operation, and one check behind every tol
and every vertex number."""

import json
import math
import types

import numpy as np
import pytest

import curvsimplex
from curvsimplex import (
    EUCLIDEAN,
    HYPERBOLIC,
    BarycentricPoint,
    EdgeLengths,
    check,
    embed,
    euclidean_face_volume,
    euclidean_gram,
    euclidean_volume,
    project,
)
from curvsimplex import metrics, projection, realizability

from conftest import TABLE_3SIMPLEX, fresh_python

# The per-model spellings of check, project and distance; callers pass a CurvatureSpec instead.
MODELS = ("euclidean", "hyperbolic", "spherical")
DELETED_ALIASES = ([f"check_{m}" for m in MODELS] + [f"{m}_project" for m in MODELS]
                   + [f"{m}_distance" for m in MODELS])

EDGE = [[0.0, 1.0], [1.0, 0.0]]
TRIANGLE = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
SCALENE = [[0.0, 1.0, 2.0], [1.0, 0.0, 2.5], [2.0, 2.5, 0.0]]


class TestPublicNames:
    def test_all_is_unique_and_resolves(self):
        names = curvsimplex.__all__
        assert len(set(names)) == len(names)
        for name in names:
            getattr(curvsimplex, name)

    def test_all_is_derived_from_the_imports_and_the_deferred_table(self):
        names = curvsimplex.__all__
        assert names == sorted(names)
        for name in names:
            assert not name.startswith("_"), name
            assert not isinstance(getattr(curvsimplex, name), types.ModuleType), name
        operations = {name for name, module in curvsimplex._DEFERRED.items() if name != module}
        assert operations <= set(names)

    @pytest.mark.parametrize("module", [curvsimplex, realizability, projection, metrics],
                             ids=lambda m: m.__name__)
    def test_per_model_aliases_are_gone(self, module):
        for name in DELETED_ALIASES:
            assert not hasattr(module, name)

    def test_only_flat_operations_are_named_after_a_model(self):
        # Euclidean-only operations keep a model prefix; every other one takes a curvature.
        named = {name for name in dir(curvsimplex) if name.startswith(MODELS)}
        assert named == {"euclidean_gram", "euclidean_volume", "euclidean_face_volume"}


# The operations `import curvsimplex` leaves unloaded, by the module that defines them.
DEFERRED = {
    "realizability": ["RealizabilityReport", "Verdict", "check"],
    "metrics": ["distance"],
    "projection": ["ProjectionResult", "euclidean_face_volume", "euclidean_volume", "project"],
    "oracle": ["Embedding", "ModelSpace", "brute_distance", "brute_project", "edge_lengths_of",
               "embed"],
}

# Reads every public name and module of a fresh import, by getattr or by a
# from-import, and prints dir() before the first read and, per name: stored in
# the package before the read, the defining module's object, stored after.
RESOLVE = """
import importlib, json, sys
import curvsimplex
listed = dir(curvsimplex)
deferred = {DEFERRED!r}
home = {{name: mod for mod, names in deferred.items() for name in names}}
rows = {{}}
for name in curvsimplex.__all__ + list(deferred):
    before = name in vars(curvsimplex)
    if {how!r} == "getattr":
        value = getattr(curvsimplex, name)
    else:
        scope = {{}}
        exec(f"from curvsimplex import {{name}} as value", scope)
        value = scope["value"]
    if name in deferred:
        want = sys.modules["curvsimplex." + name]
    elif name in home:
        want = getattr(importlib.import_module("curvsimplex." + home[name]), name)
    else:
        want = value
    rows[name] = [before, value is want, name in vars(curvsimplex)]
print(json.dumps([listed, rows]))
"""


class TestDeferredNames:
    """Operations and their modules load on first use, and then stay in the namespace."""

    @pytest.mark.parametrize("how", ["getattr", "from"])
    def test_every_name_resolves_on_a_fresh_import(self, how):
        listed, rows = json.loads(fresh_python(RESOLVE.format(DEFERRED=DEFERRED, how=how)))
        assert set(curvsimplex.__all__) | set(DEFERRED) <= set(listed)
        assert set(rows) == set(curvsimplex.__all__) | set(DEFERRED)
        for name, (_, same, stored) in rows.items():
            assert same and stored, name
        # The first read of an operation went through the package's __getattr__.
        for names in DEFERRED.values():
            for name in names:
                assert not rows[name][0], name

    def test_resolved_name_is_stored(self, monkeypatch):
        monkeypatch.delitem(vars(curvsimplex), "distance")
        assert "distance" in dir(curvsimplex)
        assert curvsimplex.distance is metrics.distance
        # Stored, so that reads in a hot loop do not run __getattr__ each time.
        assert vars(curvsimplex)["distance"] is metrics.distance

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'curvsimplex' has no attribute 'no_such_name'"):
            curvsimplex.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            from curvsimplex import no_such_name  # noqa: F401


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf,
                                 pytest.param(10 ** 400, id="int-past-float-max"),
                                 pytest.param(10 ** 5000, id="int-past-str-limit")])
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


NOT_AN_INTEGER = (TypeError, "cannot be interpreted as an integer")


def out_of_range(i, k=3):
    return IndexError, rf"^vertex {i} out of range 1\.\.{k}$"


# An int too long for str (over 4300 digits): the message shows its type, not Python's error.
HUGE = 10 ** 5000
TOO_LONG = out_of_range("<int too long to print>")


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda e: e.length(0, 2), out_of_range(0), id="length-0"),
    pytest.param(lambda e: e.length(-1, 1), out_of_range(-1), id="length-negative"),
    pytest.param(lambda e: e.length(1.0, 2), NOT_AN_INTEGER, id="length-float"),
    pytest.param(lambda e: euclidean_face_volume(e, 1.5), NOT_AN_INTEGER,
                 id="face_volume-float"),
    pytest.param(lambda e: e.restricted([1, 1.5]), NOT_AN_INTEGER, id="restricted-float"),
    pytest.param(lambda e: e.permuted([1.5, 2, 3]), NOT_AN_INTEGER, id="permuted-float"),
    pytest.param(lambda e: e.permuted([1, 2, 4]), out_of_range(4), id="permuted-4"),
    # The first bad entry, in order, decides the error.
    pytest.param(lambda e: e.restricted([2, 1.5, 4]), NOT_AN_INTEGER, id="restricted-float-first"),
    pytest.param(lambda e: e.restricted([2, 4, 1.5]), out_of_range(4), id="restricted-4-first"),
    pytest.param(lambda e: e.permuted([1.5, 99]), NOT_AN_INTEGER, id="permuted-float-first"),
    pytest.param(lambda e: e.permuted([99, 1.5]), out_of_range(99), id="permuted-99-first"),
    pytest.param(lambda e: e.permuted([1, 2, 3, 4]), out_of_range(4), id="permuted-long"),
    pytest.param(lambda e: e.permuted(v for v in [3, 1, 4]), out_of_range(4),
                 id="permuted-generator"),
    pytest.param(lambda e: BarycentricPoint.vertex(1.5, 3), NOT_AN_INTEGER, id="vertex-float"),
    pytest.param(lambda e: euclidean_gram(e, 0), out_of_range(0), id="euclidean_gram-0"),
    pytest.param(lambda e: euclidean_gram(e, 1.5), NOT_AN_INTEGER, id="euclidean_gram-float"),
    pytest.param(lambda e: project(e, EUCLIDEAN, 1.5), NOT_AN_INTEGER, id="project-float"),
    pytest.param(lambda e: euclidean_gram(e, 3).matrix.minor(1.5, 1), NOT_AN_INTEGER,
                 id="minor-float"),
    pytest.param(lambda e: euclidean_gram(e, 3).matrix.minor(1, 3), out_of_range(3, 2),
                 id="minor-3"),
    pytest.param(lambda e: e.length(HUGE, 1), TOO_LONG, id="length-huge"),
    pytest.param(lambda e: project(e, EUCLIDEAN, HUGE), TOO_LONG, id="project-huge"),
    pytest.param(lambda e: BarycentricPoint.vertex(HUGE, 3), TOO_LONG, id="vertex-huge"),
    pytest.param(lambda e: e.permuted([HUGE, 1, 2]), TOO_LONG, id="permuted-huge"),
    pytest.param(lambda e: euclidean_gram(e, HUGE), TOO_LONG, id="euclidean_gram-huge"),
])
def test_bad_vertex_number_is_rejected(call, error):
    with pytest.raises(error[0], match=error[1]):
        call(EdgeLengths(SCALENE))


def test_numpy_integer_vertex_numbers_are_accepted():
    e = EdgeLengths(SCALENE)
    one, three = np.int64(1), np.int32(3)
    assert e.length(one, three) == 2.0
    assert e.permuted(np.array([3, 2, 1])).length(1, 2) == 2.5
    assert e.restricted(np.array([1, 3])).gamma.tolist() == [[0.0, 2.0], [2.0, 0.0]]
    assert BarycentricPoint.vertex(three, 3).coords.tolist() == [0.0, 0.0, 1.0]
    assert euclidean_face_volume(e, three) == 1.0
    foot = project(e, EUCLIDEAN, one).foot.coords
    assert foot.tolist() == project(e, EUCLIDEAN, 1).foot.coords.tolist()
    assert foot.tolist() == pytest.approx([0.0, 0.74, 0.26], abs=1e-15)
