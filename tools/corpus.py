"""Differential corpus: every result of a seeded input set, one canonical line each.

    python tools/corpus.py run [--src DIR] [--seed N] [--size full|smoke]
    python tools/corpus.py diff CHECKOUT_A CHECKOUT_B [--seed N] [--size full|smoke]

``run`` imports ``curvsimplex`` from ``--src`` (default: the ``src/`` next to
this directory) and pushes a seeded corpus through the public API and the
in-process CLI (``cli.main``).  It covers kappa in {0, +-1, +-0.3, +-0.25, +-4}
and n in {2, 3, 5, 10}: realizable simplices from points in the model, edge
sets with one edge inflated, long hyperbolic edges up to and past the
overflow bound, rescales that overflow or underflow, flat and invalid
inputs, feet whose minors normalize onto the wrong sheet, and several
``tol`` values.  Each line is ``KEY<TAB>VALUE``: the key
names the case, the quantity and its arguments; a float is written with
``float.hex``, an array as its shape and hex entries, an exception as its type
and message, and any warning a call emits is appended to its value.

``diff`` runs this file's corpus against the ``src/`` of two checkouts (made
with ``git worktree add`` or ``git archive``), each in a fresh interpreter,
and lists the differing lines by quantity.  It exits 0 when every line is
identical and 1 otherwise.  This is a development tool, not a gate: the test
suite only checks that the smoke corpus runs and is deterministic.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

KAPPAS = (0.0, -1.0, 1.0, -0.3, 0.3, -0.25, 0.25, -4.0, 4.0)
SIZES = {"full": {"kappas": KAPPAS, "ns": (2, 3, 5, 10), "per_cell": 3},
         "smoke": {"kappas": (0.0, -1.0, 0.3), "ns": (2, 3), "per_cell": 1}}
CHECK_TOLS = (1e-9, 1e-3, 0.0, 1e-9)
DIST_TOLS = (1e-9, 1e-3)
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


def model_points(rng: np.random.Generator, kappa: float, n: int) -> np.ndarray:
    """Edge matrix of n + 1 random points in the model of curvature kappa."""
    x = rng.normal(size=(n + 1, n)) * rng.uniform(0.3, 0.8)
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
            for k in (3, 4):
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
    for t, tol in enumerate(CHECK_TOLS):
        rec.put(f"check[{t}:{tol!r}]", lambda tol=tol: lib.check(e, c, tol), report_fields)
    q = rec.put("model_gram", lambda: lib.model_gram(e, c), lambda q: (q.matrix.data, q.apex))
    if q is not None:
        m = q.matrix
        rec.put("determinant", m.determinant)
        rec.put("signature", lambda: m.signature().as_tuple())
        rec.put("solve_first_complement", m.solve_first_complement)
        rows = range(1, m.dim + 1) if m.dim <= 6 else (1,)
        for i in rows:
            for j in range(1, m.dim + 1):
                rec.put(f"minor[{i},{j}]", lambda i=i, j=j: m.minor(i, j))
    for apex in range(1, k + 1):
        rec.put(f"euclidean_gram[{apex}]", lambda a=apex: lib.euclidean_gram(e, a).matrix.data)
    if kappa != 0:
        qc = rec.put("curved_gram", lambda: lib.curved_gram(e, c),
                     lambda q: (q.matrix.data, q.curvature.kappa))
        rec.put("unit_model", lambda: lib.unit_model(e, c),
                lambda u: (u[0].gamma, u[1].kappa))
        if qc is not None:
            rec.put("hull_inner_product", lambda: lib.hull_inner_product(qc, pts[2], pts[4]))
            for i in (0, 2, 6):
                rec.put(f"lift_to_model[{i}]", lambda i=i: lib.lift_to_model(qc, pts[i]),
                        lambda p: p.coords)
            per_model = lib.hyperbolic_distance if kappa < 0 else lib.spherical_distance
            rec.put("per_model_distance", lambda: per_model(qc, pts[0], pts[3]))
    else:
        for apex in (1, k):
            rec.put(f"per_model_distance[{apex}]", lambda a=apex: lib.euclidean_distance(
                lib.euclidean_gram(e, a), pts[0], pts[3]))
    for a, b in PAIRS:
        for tol in DIST_TOLS:
            rec.put(f"distance[{a},{b},{tol!r}]",
                    lambda a=a, b=b, tol=tol: lib.distance(e, c, pts[a], pts[b], tol))
    for v in range(1, k + 1):
        rec.put(f"project[{v}]", lambda v=v: lib.project(e, c, v), project_fields)
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
    perm = rec.put("permuted", lambda: e.permuted(order), lambda p: (p.gamma, p.shortest))
    rec.put("restricted", lambda: e.restricted(range(1, k)),
            lambda r: (r.gamma, r.shortest, r.longest))
    rec.put("scaled", lambda: e.scaled(0.3), lambda s: (s.gamma, s.shortest, s.longest))
    if perm is not None:
        rec.put("permuted.check", lambda: lib.check(perm, c), report_fields)
        rec.put("permuted.project[1]", lambda: lib.project(perm, c, 1), project_fields)
    # The same object at another curvature, then back.
    other = lib.CurvatureSpec(-kappa if kappa else -1.0)
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
                ["dist", simplex, px, py, *geo], ["dist", simplex, px, py, *geo, "--tol", "0"],
                ["project", simplex, *geo, "--vertex", "1"],
                ["project", simplex, *geo, "--vertex", str(k)],
                ["volume", simplex], ["volume", simplex, "--face-opposite", "1"],
                ["embed", simplex, *geo], ["check", simplex, *geo, "--tol", "-1"]]
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


def diff(a: list[str], b: list[str], limit: int = 3) -> list[str]:
    """Report of the keys whose values differ or that only one side has, by quantity."""
    da = dict(line.split("\t", 1) for line in a)
    db = dict(line.split("\t", 1) for line in b)
    by_quantity = collections.defaultdict(list)
    for key in sorted(da.keys() | db.keys()):
        if da.get(key) != db.get(key):
            quantity = key.split("|", 1)[1].split("[", 1)[0]
            by_quantity[quantity].append(key)
    out = [f"{len(da)} and {len(db)} results, {sum(map(len, by_quantity.values()))} differ"]
    for quantity, keys in sorted(by_quantity.items()):
        out.append(f"  {quantity}: {len(keys)}")
        for key in keys[:limit]:
            out += [f"    {key}", f"      A {da.get(key, '<absent>')}",
                    f"      B {db.get(key, '<absent>')}"]
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
    report = diff(run_checkout(args.checkout_a, args.size, args.seed),
                  run_checkout(args.checkout_b, args.size, args.seed))
    print("\n".join(report))
    return 0 if report[0].endswith(" 0 differ") else 1


if __name__ == "__main__":
    sys.exit(main())
