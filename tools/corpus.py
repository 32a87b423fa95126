"""Differential corpus: every result of a seeded input set, one canonical line each.

    python tools/corpus.py run [--src DIR] [--seed N] [--size full|smoke]
    python tools/corpus.py diff CHECKOUT_A CHECKOUT_B [--seed N] [--size full|smoke]

``run`` imports ``curvsimplex`` from ``--src`` (default: the ``src/`` next to
this directory) and pushes a seeded corpus through the public API and the
in-process CLI (``cli.main``).  It covers kappa in {0, +-1, +-0.3, +-0.25, +-4}
and n in {2, 3, 5, 10}: realizable simplices from points in the model, edge
sets with one edge inflated, one realizable n = 40 simplex at kappa in {0, +-1}
(full size only: the size of the benchmark's large projections), long regular
hyperbolic simplices with 3, 4 and 6 vertices up to and past the overflow
bound, rescales that overflow or underflow, flat and invalid inputs, feet
whose minors normalize onto the wrong sheet, simplices with very short
unit-model edges, segments, subnormal edges at kappa = +-1, flat Euclidean
4-simplices and a flat hyperbolic tetrahedron whose tol-0 verdict rounding
decides, a Euclidean 6-simplex with edges near 1e-153, then (last, so no
other key moves) a Euclidean triangle given asymmetric within the symmetry
tolerance and a spherical one with an input entry past pi/2 but every stored
edge below it, and several eigenvalue cutoffs ``tol``.
Fresh edge sets are read before any check: by ``distance``, ``model_gram``
and ``project``, and by ``distance`` at two curvatures and then ``check``.
Beside each matrix of ``model_gram`` and ``curved_gram`` it records the half
squared chords E, the one matrix a Gram matrix stores and derives its matrix from.
The extremes of every route to an edge set are recorded: the validated build,
``permuted``, ``restricted``, ``scaled`` and ``eval(repr(e))``.
``length``, ``euclidean_face_volume``, ``restricted`` and ``permuted`` are
also given vertex numbers out of range or not integers.  Named barycentric
points sum to exactly 1, to 1 +- 0.9 and 1 +- 1.1 times the sum tolerance, or
to an overflowing float; others hold a -0.0 coordinate or 41 coordinates.
Each line is ``KEY<TAB>VALUE``: the key names the case, the quantity and its
arguments; a float is written with ``float.hex``, an array as its shape and
hex entries, an exception as its type and message, and any warning a call
emits is appended to its value.

``diff`` runs this file's corpus against the ``src/`` of two checkouts (made
with ``git worktree add`` or ``git archive``), each in a fresh interpreter,
and lists the differing lines by quantity.  It exits 0 when every line is
identical and 1 otherwise.  After the listing, one ``churn`` line per
quantity counts the differing lines that match once every number (hex or
decimal) is masked, gives the largest difference on such a line relative to
that line's largest finite |number| and the key of the line where it is
reached, and counts the lines that differ in other text.  This is a
development tool, not a gate: the test suite checks only that the smoke
corpus runs and is deterministic, and the churn lines on small inputs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

KAPPAS = (0.0, -1.0, 1.0, -0.3, 0.3, -0.25, 0.25, -4.0, 4.0)
# "large": the curvatures of one realizable n = LARGE_N simplex each, after every other case.
SIZES = {"full": {"kappas": KAPPAS, "ns": (2, 3, 5, 10), "per_cell": 3, "large": (0.0, -1.0, 1.0)},
         "smoke": {"kappas": (0.0, -1.0, 0.3), "ns": (2, 3), "per_cell": 1, "large": ()}}
LARGE_N = 40
CHECK_TOLS = (1e-9, 1e-3, 0.0, 1e-9)
# Realizable simplices whose foot from vertex 4 has signed first-row minors of
# the wrong sign: normalized to sum 1, they are its mirror on the hyperboloid's
# lower sheet and its antipode on the sphere.
WRONG_SHEET_TETRAHEDRON = [[0.0, 0.417812, 1.735519, 1.413867],
                           [0.417812, 0.0, 1.324168, 1.480333],
                           [1.735519, 1.324168, 0.0, 2.344553],
                           [1.413867, 1.480333, 2.344553, 0.0]]
ANTIPODE_4SIMPLEX = [[0.0, 0.335255, 0.174571, 0.218231, 0.201319],
                     [0.335255, 0.0, 0.379366, 0.192861, 0.163395],
                     [0.174571, 0.379366, 0.0, 0.269718, 0.216127],
                     [0.218231, 0.192861, 0.269718, 0.0, 0.129006],
                     [0.201319, 0.163395, 0.216127, 0.129006, 0.0]]
# Squared edges of flat Euclidean 4-simplices: Degenerate at the default tol,
# Realizable at tol 0, where their bordered matrix M can be singular in float64.
FLAT_4SIMPLEX_A = [[0, 9, 68, 116, 40], [9, 0, 65, 149, 61], [68, 65, 0, 40, 20],
                   [116, 149, 40, 0, 20], [40, 61, 20, 20, 0]]
FLAT_4SIMPLEX_B = [[0, 34, 25, 20, 32], [34, 0, 117, 106, 82], [25, 117, 0, 1, 49],
                   [20, 106, 1, 0, 36], [32, 82, 49, 36, 0]]
# Spatial coordinates of four points on a plane of the hyperboloid t^2 - |x|^2 = 1:
# Degenerate at tol 1e-15 and above, Realizable at tol 0, where the squared
# chord from vertex 1 to its foot rounds to -5.8e-9, below the distance floor.
FLAT_HYPERBOLIC_POINTS = [[0.4, 3.8], [-1.0, -0.9], [2.4, 4.2], [-1.8, -1.7]]
# Asymmetric within the symmetry tolerance: the stored 1 - 3 edge is the mean of its
# two entries, and the 2 - 3 edge is subnormal, so every Gram build raises GramOverflow.
ASYMMETRIC_TRIANGLE = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5e-323], [2.0 + 1e-9, 1.5e-323, 0.0]]
# A spherical triangle whose 2 - 3 entries straddle pi/2 within the symmetry tolerance:
# their mean, the stored edge, is below pi/2 like every other edge.
_H = math.pi / 2
NEAR_RIGHT_TRIANGLE = [[0.0, _H - 1e-6, _H - 1e-6], [_H - 1e-6, 0.0, _H + 1e-10],
                       [_H - 1e-6, _H - 3e-10, 0.0]]


def canon(value) -> str:
    """Canonical text of a result: exact for floats, arrays and nested values."""
    if isinstance(value, BaseException):
        return f"!{type(value).__name__}: {value}"
    if isinstance(value, (bool, str, int, type(None))):
        return repr(value)
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        flat = value.astype(float).ravel().tolist()
        return f"{list(value.shape)}[{','.join(map(float.hex, flat))}]"
    if isinstance(value, np.generic):
        return canon(value.item())
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(map(canon, value)) + ")"
    raise TypeError(f"no canonical form for {type(value).__name__}")


class Recorder:
    """Collects KEY<TAB>VALUE lines; ``put`` runs one call and records its result."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.case = ""

    def put(self, quantity: str, fn, *parts) -> object:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fn()
                text = canon(parts[0](result) if parts else result)
            except Exception as exc:  # the error is the recorded result
                result, text = None, canon(exc)
        text += "".join(f" ~{w.category.__name__}: {w.message}" for w in caught)
        self.lines.append(f"{self.case}|{quantity}\t{text}")
        return result


def model_points(rng: np.random.Generator, kappa: float, n: int,
                 spread: float = 1.0) -> np.ndarray:
    """Edge matrix of n + 1 random points in the model of curvature kappa.

    Their tangent coordinates are normal with a deviation of 0.3 to 0.8 times ``spread``.
    """
    x = rng.normal(size=(n + 1, n)) * rng.uniform(0.3, 0.8) * spread
    if kappa == 0:
        diff = x[:, None, :] - x[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=-1))
    r = np.linalg.norm(x, axis=1)[:, None]
    if kappa < 0:
        t = np.cosh(r)[:, 0]
        u = np.sinh(r) * x / r
        g = np.arccosh(np.clip(np.outer(t, t) - u @ u.T, 1.0, None))
    else:
        v = np.column_stack([np.cos(r), np.sin(r) * x / r])
        g = np.arccos(np.clip(v @ v.T, -1.0, 1.0))
    np.fill_diagonal(g, 0.0)
    return g / math.sqrt(abs(kappa))


def hyperboloid_edges(x) -> np.ndarray:
    """Edge matrix of points on the unit hyperboloid, given by their spatial coordinates."""
    x = np.asarray(x, dtype=float)
    t = np.sqrt(1.0 + (x ** 2).sum(axis=1))
    g = np.arccosh(np.clip(np.outer(t, t) - x @ x.T, 1.0, None))
    np.fill_diagonal(g, 0.0)
    return g


def geometry_arg(kappa: float) -> str:
    names = {0.0: "euclidean", -1.0: "hyperbolic", 1.0: "spherical"}
    return names.get(kappa, f"kappa={kappa!r}")


def cases(size: str, seed: int):
    """(label, kappa, edge matrix) of every case, in a fixed order."""
    spec = SIZES[size]
    rng = np.random.default_rng(seed)
    for kappa in spec["kappas"]:
        for n in spec["ns"]:
            for j in range(spec["per_cell"]):
                g = model_points(rng, kappa, n)
                yield f"k={kappa!r} n={n} real{j}", kappa, g
            g = model_points(rng, kappa, n)
            a, b = sorted(rng.choice(n + 1, size=2, replace=False).tolist())
            g[a, b] = g[b, a] = g[a, b] * rng.uniform(1.5, 4.0)
            yield f"k={kappa!r} n={n} inflated", kappa, g

    def regular(k, edge):
        return edge * (1.0 - np.eye(k))

    yield "flat line", 0.0, np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])
    yield "spherical near pi/2", 1.0, regular(3, math.pi / 2 - 1e-9)
    yield "spherical past pi/2", 1.0, regular(3, math.pi / 2 + 1e-3)
    for kappa, scale in ((-1.0, 1.0), (-4.0, 0.5), (-0.25, 2.0)):
        edges = (300.0, 355.0, 500.0, 709.7, 720.0) if size == "full" else (500.0, 720.0)
        for edge in edges:
            for k in (3, 4, 6):  # at k = 6 the (k-1)-square minors overflow first
                yield f"k={kappa!r} regular{k} edge={edge!r}", kappa, regular(k, edge * scale)
    yield "rescale overflow", 1e300, regular(3, 1e200)
    yield "rescale overflow neg", -1e300, regular(3, 1e200)
    yield "rescale underflow", 1e-300, regular(3, 1e-200)
    yield "tiny kappa long edge", -1e-300, regular(3, 2e151)
    yield "squares overflow", 0.0, regular(4, 1e200)
    yield "squares underflow", 0.0, regular(4, 1e-157)
    yield "asymmetric", 0.0, np.array([[0.0, 1, 1], [1.1, 0, 1], [1, 1, 0]])
    yield "negative edge", -1.0, np.array([[0.0, -1, 1], [-1, 0, 1], [1, 1, 0]])
    yield "nan edge", 1.0, np.array([[0.0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]])
    yield "wrong-sheet tetrahedron", -1.0, np.array(WRONG_SHEET_TETRAHEDRON)
    yield "antipode 4-simplex", 1.0, np.array(ANTIPODE_4SIMPLEX)
    # Unit-model edges so short that the vertex Gram's eigenvalues read them as flat.
    for kappa in (-1.0, 1.0):
        for k in (3, 4, 6):
            yield f"k={kappa!r} regular{k} edge=5e-05", kappa, regular(k, 5e-5)
    for kappa in (-1e-14, 1e-14):
        yield f"k={kappa!r} unit tetrahedron", kappa, regular(4, 1.0)
    for kappa in (0.0, -1.0):  # the Euclidean segment's apex Gram is 1 x 1
        yield f"k={kappa!r} segment", kappa, regular(2, 1.0)
    for kappa in (-1.0, 1.0):  # one subnormal edge: the unit-model rescale underflows
        g = regular(3, 1.0)
        g[0, 2] = g[2, 0] = 1e-310
        yield f"k={kappa!r} subnormal edge", kappa, g
    yield "flat 4-simplex A", 0.0, np.sqrt(np.array(FLAT_4SIMPLEX_A, dtype=float))
    yield "flat 4-simplex B", 0.0, np.sqrt(np.array(FLAT_4SIMPLEX_B, dtype=float))
    yield "flat hyperbolic tetrahedron", -1.0, hyperboloid_edges(FLAT_HYPERBOLIC_POINTS)
    # Spread 0.15 keeps every spherical edge under pi/2; appended last, so no other key moves.
    for kappa in spec["large"]:
        yield f"k={kappa!r} n={LARGE_N} real0", kappa, model_points(rng, kappa, LARGE_N, 0.15)
    # Normal points in 6 dimensions scaled by 2^-508: edges near 1e-153 and E near 1e-307,
    # where an unscaled Euclidean solve M^-1 e_v overflows.
    x = np.random.default_rng(13).normal(size=(7, 6))
    g = np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=-1))
    yield "euclidean edges near 1e-153", 0.0, np.ldexp(g, -508)
    yield "asymmetric within tol", 0.0, np.array(ASYMMETRIC_TRIANGLE)
    yield "spherical entry past pi/2", 1.0, np.array(NEAR_RIGHT_TRIANGLE)


def points(rng: np.random.Generator, k: int) -> list[list[float]]:
    """Barycentric test points: vertices, centroid, a midpoint, interior,
    outside and nearly coincident points."""
    v1, vk = [1.0] + [0.0] * (k - 1), [0.0] * (k - 1) + [1.0]
    centroid = [1.0 / k] * k
    mid = [0.5, 0.5] + [0.0] * (k - 2)
    inner = [rng.dirichlet(np.ones(k)).tolist() for _ in range(2)]
    outside = [1.5, -0.5] + [0.0] * (k - 2)
    near = [c + (1e-9 if i == 0 else -1e-9 if i == 1 else 0.0) for i, c in enumerate(centroid)]
    return [v1, vk, centroid, mid, *inner, outside, near]


PAIRS = ((0, 1), (0, 2), (3, 2), (4, 5), (2, 7), (6, 4), (0, 0))


def named_points(rng: np.random.Generator, tol: float) -> dict[str, list[float]]:
    """Barycentric points at the edges of normalization; tol is the sum tolerance."""
    pts = {"sum 1": [0.25, 0.25, 0.5], "sum 1 k=8": [0.125] * 8,
           "-0.0": [0.5, -0.0, 0.5], "-0.0 sum 1+0.5tol": [0.5, -0.0, 0.5 + 0.5 * tol],
           "overflowing sum": [1e308, 1e308, -1e308],
           "k=41": rng.dirichlet(np.ones(41)).tolist(), "k=41 centroid": [1 / 41] * 41}
    for f in (0.9, -0.9, 1.1, -1.1):
        pts[f"sum 1{f:+}tol"] = [0.25, 0.25, 0.5 + f * tol]
        pts[f"k=11 sum 1{f:+}tol"] = [(1 + f * tol) / 11] * 11
    return pts


def run_case(lib, rec: Recorder, rng, kappa: float, g: np.ndarray, cli: bool, tmp: str) -> None:
    c = rec.put("curvature", lambda: lib.CurvatureSpec(kappa), lambda s: s.kappa)
    e = rec.put("edges", lambda: lib.EdgeLengths(g), lambda e: (e.gamma, e.shortest, e.longest))
    if cli:
        run_cli(rec, g, kappa, tmp)
    if c is None or e is None:
        return
    k = e.num_vertices
    pts = [rec.put(f"point[{i}]", lambda p=p: lib.BarycentricPoint(p), lambda p: p.coords)
           for i, p in enumerate(points(rng, k))]
    # A fresh edge set: distance, model Gram and project before any check.
    fresh = lib.EdgeLengths(g)
    rec.put("fresh.distance", lambda: lib.distance(fresh, c, pts[2], pts[4]))
    rec.put("fresh.model_gram", lambda: lib.model_gram(fresh, c).matrix.data)
    rec.put("fresh.project[1]", lambda: lib.project(fresh, c, 1), project_fields)
    # Another fresh edge set: distance at c, then at the other curvature, then check at c.
    other = lib.CurvatureSpec(-kappa if kappa else -1.0)
    unused = lib.EdgeLengths(g)
    rec.put("unused.distance", lambda: lib.distance(unused, c, pts[0], pts[2]))
    rec.put("unused.other.distance", lambda: lib.distance(unused, other, pts[0], pts[2]))
    rec.put("unused.check", lambda: lib.check(unused, c), report_fields)
    for t, tol in enumerate(CHECK_TOLS):
        rec.put(f"check[{t}:{tol!r}]", lambda tol=tol: lib.check(e, c, tol), report_fields)
    q = rec.put("model_gram", lambda: lib.model_gram(e, c), lambda q: (q.matrix.data, q.apex))
    if q is not None:
        rec.put("model_gram.half_chords", lambda: q.half_chords.data)
        m = q.matrix
        rec.put("determinant", m.determinant)
        rec.put("signature", lambda: m.signature().as_tuple())
        rows = range(1, m.dim + 1) if m.dim <= 6 else (1,)
        for i in rows:
            for j in range(1, m.dim + 1):
                rec.put(f"minor[{i},{j}]", lambda i=i, j=j: m.minor(i, j))
    for apex in range(1, k + 1):
        rec.put(f"euclidean_gram[{apex}]", lambda a=apex: lib.euclidean_gram(e, a).matrix.data)
    if kappa != 0:
        qc = rec.put("curved_gram", lambda: lib.curved_gram(e, c),
                     lambda q: (q.matrix.data, q.curvature.kappa))
        if qc is not None:
            rec.put("curved_gram.half_chords", lambda: qc.half_chords.data)
            rec.put("hull_inner_product", lambda: lib.hull_inner_product(qc, pts[2], pts[4]))
            for i in (0, 2, 6):
                rec.put(f"lift_to_model[{i}]", lambda i=i: lib.lift_to_model(qc, pts[i]),
                        lambda p: p.coords)
    for a, b in PAIRS:
        rec.put(f"distance[{a},{b}]", lambda a=a, b=b: lib.distance(e, c, pts[a], pts[b]))
    for v in range(1, k + 1):
        rec.put(f"project[{v}]", lambda v=v: lib.project(e, c, v), project_fields)
        rec.put(f"project_tol0[{v}]", lambda v=v: lib.project(e, c, v, 0.0), project_fields)
    rec.put("project[0]", lambda: lib.project(e, c, 0), project_fields)
    for tol in (1e-9, 1e-3):
        rec.put(f"euclidean_volume[{tol!r}]", lambda tol=tol: lib.euclidean_volume(e, tol))
    for v in range(1, k + 1):
        rec.put(f"euclidean_face_volume[{v}]", lambda v=v: lib.euclidean_face_volume(e, v))
    emb = rec.put("embed", lambda: lib.embed(e, c), lambda m: (m.model.value, m.vertices))
    if emb is not None:
        rec.put("edge_lengths_of", lambda: lib.edge_lengths_of(emb).gamma)
        rec.put("brute_distance", lambda: lib.brute_distance(emb, pts[0], pts[2]))
        if k == 3:
            rec.put("brute_project", lambda: lib.brute_project(emb, 1).coords)
    order = list(range(k, 0, -1))
    perm = rec.put("permuted", lambda: e.permuted(order),
                   lambda p: (p.gamma, p.shortest, p.longest))
    rec.put("repr", lambda: eval(repr(e), {"EdgeLengths": lib.EdgeLengths}),
            lambda r: (r.gamma, r.shortest, r.longest))
    rec.put("restricted", lambda: e.restricted(range(1, k)),
            lambda r: (r.gamma, r.shortest, r.longest))
    rec.put("scaled", lambda: e.scaled(0.3), lambda s: (s.gamma, s.shortest, s.longest))
    # Vertex numbers out of range or not integers.
    rec.put("length[0,2]", lambda: e.length(0, 2))
    rec.put("euclidean_face_volume[1.5]", lambda: lib.euclidean_face_volume(e, 1.5))
    rec.put("restricted[1,1.5]", lambda: e.restricted([1, 1.5]),
            lambda r: (r.gamma, r.shortest, r.longest))
    rec.put("permuted[1.5,2..k]", lambda: e.permuted([1.5, *range(2, k + 1)]),
            lambda p: (p.gamma, p.shortest, p.longest))
    if perm is not None:
        rec.put("permuted.check", lambda: lib.check(perm, c), report_fields)
        rec.put("permuted.project[1]", lambda: lib.project(perm, c, 1), project_fields)
    # The same object at another curvature, then back.
    rec.put("other.check", lambda: lib.check(e, other), report_fields)
    rec.put("other.distance", lambda: lib.distance(e, other, pts[0], pts[2]))
    rec.put("other.project[1]", lambda: lib.project(e, other, 1), project_fields)
    rec.put("again.check", lambda: lib.check(e, c), report_fields)
    rec.put("again.distance", lambda: lib.distance(e, c, pts[0], pts[2]))


def report_fields(r):
    return (r.verdict.value, r.signature.as_tuple(), r.detail, r.eigenvalues)


def project_fields(r):
    lift = None if r.foot_model is None else r.foot_model.coords
    return (r.foot.coords, r.altitude, r.inside_face, lift)


def cli_call(rec: Recorder, argv: list[str], tmp: str) -> None:
    """Record exit code, stdout and stderr of one in-process ``cli.main(argv)``."""
    from curvsimplex import cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
        return (code, out.getvalue(), err.getvalue().replace(tmp, "<tmp>"))

    args = " ".join(os.path.basename(a) if a.startswith(tmp) else a for a in argv[1:])
    rec.put(f"cli.{argv[0]}[{args}]", call)


# Documents the CLI must refuse with exit 2 (a missing file is not written).
BAD_DOCUMENTS = {
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "bigint.json": b'{"edge_lengths": ' + b"1" * 5000 + b"}",
    "beyond_float.json": b'{"edge_lengths": [[0, 1e400], [1e400, 0]]}',
    "malformed.json": b'{"edge_lengths": [[0, 1], [1, 0]',
    "no_field.json": b'{"n": 1}',
    "not_utf8.json": b"\xff\xfe{}",
    "missing.json": None,
}


def run_bad_documents(rec: Recorder, tmp: str) -> None:
    for name, content in BAD_DOCUMENTS.items():
        path = os.path.join(tmp, name)
        if content is not None:
            with open(path, "wb") as fh:
                fh.write(content)
        cli_call(rec, ["check", path], tmp)


def run_cli(rec: Recorder, g: np.ndarray, kappa: float, tmp: str) -> None:
    """Every subcommand on the edge matrix g, written to a simplex document."""
    k = g.shape[0]
    simplex = os.path.join(tmp, "simplex.json")
    with open(simplex, "w") as fh:
        json.dump({"n": k - 1, "edge_lengths": g.tolist()}, fh)
    px, py = os.path.join(tmp, "x.json"), os.path.join(tmp, "y.json")
    with open(px, "w") as fh:
        json.dump({"barycentric": [1.0] + [0.0] * (k - 1)}, fh)
    with open(py, "w") as fh:
        json.dump({"barycentric": [1.0 / k] * k}, fh)
    geo = ["--geometry", geometry_arg(kappa)]
    commands = [["check", simplex, *geo], ["check", simplex, *geo, "--tol", "1e-3"],
                ["dist", simplex, px, py, *geo],
                ["project", simplex, *geo, "--vertex", "1"],
                ["project", simplex, *geo, "--vertex", str(k)],
                ["volume", simplex], ["volume", simplex, "--face-opposite", "1"],
                ["embed", simplex, *geo], ["embed", simplex, *geo, "--tol", "0"],
                ["check", simplex, *geo, "--tol", "-1"]]
    for argv in commands:
        cli_call(rec, argv, tmp)


def run(size: str, seed: int) -> list[str]:
    """The corpus lines of the ``curvsimplex`` on sys.path."""
    import curvsimplex as lib

    rec = Recorder()
    rng = np.random.default_rng(seed + 1)
    with tempfile.TemporaryDirectory() as tmp:
        for idx, (label, kappa, g) in enumerate(cases(size, seed)):
            rec.case = f"{idx:03d} {label}"
            cli = "inflated" in label or "real0" in label or "n=" not in label
            run_case(lib, rec, rng, kappa, g, cli, tmp)
        rec.case = "bad documents"
        run_bad_documents(rec, tmp)
    from curvsimplex.domain import BARYCENTRIC_SUM_TOL
    rec.case = "named points"
    for name, p in named_points(np.random.default_rng(seed + 2), BARYCENTRIC_SUM_TOL).items():
        rec.put(f"point[{name}]", lambda p=p: lib.BarycentricPoint(p), lambda p: p.coords)
    return rec.lines


def run_checkout(checkout: str, size: str, seed: int) -> list[str]:
    src = Path(checkout).resolve() / "src"
    if not (src / "curvsimplex").is_dir():
        raise SystemExit(f"{checkout}: no src/curvsimplex")
    proc = subprocess.run([sys.executable, __file__, "run", "--src", str(src),
                           "--size", size, "--seed", str(seed)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    return proc.stdout.splitlines()


def differing(a: list[str], b: list[str]):
    """Both sides' values by key, and the keys whose values differ or that only one
    side has, by quantity."""
    da = dict(line.split("\t", 1) for line in a)
    db = dict(line.split("\t", 1) for line in b)
    by_quantity = collections.defaultdict(list)
    for key in sorted(da.keys() | db.keys()):
        if da.get(key) != db.get(key):
            quantity = key.split("|", 1)[1].split("[", 1)[0]
            by_quantity[quantity].append(key)
    return da, db, by_quantity


def diff(a: list[str], b: list[str], limit: int = 3) -> list[str]:
    """Report of the keys whose values differ or that only one side has, by quantity."""
    da, db, by_quantity = differing(a, b)
    out = [f"{len(da)} and {len(db)} results, {sum(map(len, by_quantity.values()))} differ"]
    for quantity, keys in sorted(by_quantity.items()):
        out.append(f"  {quantity}: {len(keys)}")
        for key in keys[:limit]:
            out += [f"    {key}", f"      A {da.get(key, '<absent>')}",
                    f"      B {db.get(key, '<absent>')}"]
    return out


# A hex float, inf, nan or decimal number in a value.
NUMBER = re.compile(r"[-+]?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]?\d+|\binf\b|\bnan\b"
                    r"|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)", re.IGNORECASE)


def _masked(value: str) -> tuple[str, list[str]]:
    """The value with every number replaced by #, and the numbers' text."""
    return NUMBER.sub("#", value), NUMBER.findall(value)


def _number(token: str) -> float:
    return float.fromhex(token) if "x" in token.lower() else float(token)


def churn(a: list[str], b: list[str]) -> list[str]:
    """One line per quantity of differing results: how many match once every
    number is masked, the largest difference on such a line relative to that
    line's largest finite |number| and the key of the first line that reaches
    it, and how many differ in other text."""
    da, db, by_quantity = differing(a, b)
    out = []
    for quantity, keys in sorted(by_quantity.items()):
        numeric, worst, worst_key = 0, 0.0, None
        for key in keys:
            if key not in da or key not in db:
                continue
            (text_a, ta), (text_b, tb) = _masked(da[key]), _masked(db[key])
            if text_a != text_b:
                continue
            numeric += 1
            scale = max((abs(x) for x in map(_number, ta + tb) if math.isfinite(x)), default=0.0)
            for x, y in zip(ta, tb):
                gap = abs(_number(x) - _number(y)) if x != y else 0.0
                if gap:  # an inf or nan that moved leaves gap inf or nan
                    rel = gap / scale if math.isfinite(gap) else math.inf
                    if rel > worst:
                        worst, worst_key = rel, key
        at = f" at {worst_key}" if worst_key else ""
        out.append(f"churn {quantity}: {numeric} differ only in numbers "
                   f"(worst {worst:.2g} relative{at}), {len(keys) - numeric} in other text")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run", help="write the corpus lines of one library")
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding curvsimplex")
    p = sub.add_parser("diff", help="compare the corpus of two checkouts")
    p.add_argument("checkout_a")
    p.add_argument("checkout_b")
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.mode == "run":
        sys.path.insert(0, args.src)
        sys.stdout.write("".join(line + "\n" for line in run(args.size, args.seed)))
        return 0
    a = run_checkout(args.checkout_a, args.size, args.seed)
    b = run_checkout(args.checkout_b, args.size, args.seed)
    report = diff(a, b)
    print("\n".join(report), flush=True)
    print("\n".join(churn(a, b)))
    return 0 if report[0].endswith(" 0 differ") else 1


if __name__ == "__main__":
    sys.exit(main())
