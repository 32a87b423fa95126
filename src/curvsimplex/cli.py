"""Command-line front end.

Subcommands operate on JSON simplex documents::

    {"n": 3, "edge_lengths": [[0, 2, 3, 4], ...]}

and JSON point documents ``{"barycentric": [0.25, 0.25, 0.25, 0.25]}``.

Exit codes: 0 success, 2 invalid input (non-finite numbers included),
3 geometric verdict failure (degenerate / not realizable), 4 numerical
failure (inconsistent embedding, overflowing hyperbolic Gram).  All numeric
logic lives in the library modules; this module only parses, dispatches, and
formats.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .domain import BarycentricPoint, CurvatureSpec, EdgeLengths
from .errors import EmbeddingInconsistency, GeometryError, GramOverflow
from .metrics import distance
from .oracle import embed
from .projection import euclidean_face_volume, euclidean_volume, project
from .realizability import Verdict, check
from .symmat import DEFAULT_TOL

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERDICT = 3
EXIT_NUMERIC = 4

GEOMETRY_KAPPA = {"euclidean": 0.0, "hyperbolic": -1.0, "spherical": 1.0}


class InputError(Exception):
    pass


def _parse_geometry(text: str) -> CurvatureSpec:
    if text in GEOMETRY_KAPPA:
        return CurvatureSpec(GEOMETRY_KAPPA[text])
    if text.startswith("kappa="):
        try:
            return CurvatureSpec(float(text[len("kappa="):]))
        except ValueError as exc:
            raise InputError(f"invalid curvature value in {text!r}") from exc
    raise InputError(
        f"unknown geometry {text!r}; expected euclidean, hyperbolic, spherical, or kappa=<v>")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc


def _load_simplex(path: str) -> EdgeLengths:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "edge_lengths" not in doc:
        raise InputError(f"{path}: missing required field 'edge_lengths'")
    rows = doc["edge_lengths"]
    try:
        e = EdgeLengths(rows)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: field 'edge_lengths': {exc}") from exc
    if "n" in doc and doc["n"] != e.n:
        raise InputError(f"{path}: field 'n' is {doc['n']} but the matrix implies n={e.n}")
    return e


def _load_point(path: str, num_vertices: int) -> BarycentricPoint:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "barycentric" not in doc:
        raise InputError(f"{path}: missing required field 'barycentric'")
    try:
        p = BarycentricPoint(doc["barycentric"])
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: field 'barycentric': {exc}") from exc
    if p.coords.size != num_vertices:
        raise InputError(
            f"{path}: point has {p.coords.size} coordinates, simplex has {num_vertices} vertices")
    return p


def _sig(value: float) -> str:
    return f"{value:.12g}"


def cmd_check(args) -> int:
    e = _load_simplex(args.simplex)
    c = _parse_geometry(args.geometry)
    report = check(e, c, args.tol)
    sig = report.signature
    print(f"verdict: {report.verdict.value}")
    print(f"signature: ({sig.n_plus},{sig.n_minus},{sig.n_zero})")
    print("eigenvalues: " + " ".join(_sig(v) for v in sorted(report.eigenvalues, reverse=True)))
    print(f"detail: {report.detail}")
    return EXIT_OK if report.verdict is Verdict.REALIZABLE else EXIT_VERDICT


def cmd_dist(args) -> int:
    e = _load_simplex(args.simplex)
    c = _parse_geometry(args.geometry)
    x = _load_point(args.point_x, e.num_vertices)
    y = _load_point(args.point_y, e.num_vertices)
    print(_sig(distance(e, c, x, y, args.tol)))
    return EXIT_OK


def cmd_project(args) -> int:
    e = _load_simplex(args.simplex)
    c = _parse_geometry(args.geometry)
    if not 1 <= args.vertex <= e.num_vertices:
        raise InputError(f"--vertex {args.vertex} out of range 1..{e.num_vertices}")
    res = project(e, c, args.vertex, args.tol)
    out = {
        "foot": res.foot.coords.tolist(),
        "altitude": res.altitude,
        "inside_face": res.inside_face,
    }
    if res.foot_model is not None:
        out["foot_model"] = res.foot_model.coords.tolist()
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_volume(args) -> int:
    e = _load_simplex(args.simplex)
    if args.face_opposite is not None:
        if not 1 <= args.face_opposite <= e.num_vertices:
            raise InputError(
                f"--face-opposite {args.face_opposite} out of range 1..{e.num_vertices}")
        vol = euclidean_face_volume(e, args.face_opposite, args.tol)
    else:
        vol = euclidean_volume(e, args.tol)
    print(_sig(vol))
    return EXIT_OK


def _format_embedding_json(model: str, kappa: float, vertices: np.ndarray) -> str:
    rows = ",\n".join(
        "    [" + ", ".join(f"{v:.17g}" for v in row) + "]" for row in vertices)
    return (
        "{\n"
        f'  "model": "{model}",\n'
        f'  "curvature": {kappa:.17g},\n'
        '  "vertices": [\n' + rows + "\n  ]\n}"
    )


def cmd_embed(args) -> int:
    e = _load_simplex(args.simplex)
    c = _parse_geometry(args.geometry)
    emb = embed(e, c, args.tol)
    text = _format_embedding_json(emb.model.value, c.kappa, emb.vertices)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvsimplex",
        description="Geometry of constant-curvature simplices from edge lengths.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("simplex", help="JSON simplex document")
        p.add_argument("--geometry", default="euclidean",
                       help="euclidean | hyperbolic | spherical | kappa=<v>")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="relative zero tolerance for eigenvalue classification")

    p = sub.add_parser("check", help="realizability verdict and signature")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dist", help="distance between two barycentric points")
    common(p)
    p.add_argument("point_x", help="JSON point document")
    p.add_argument("point_y", help="JSON point document")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("project", help="orthogonal projection of a vertex onto its opposite face")
    common(p)
    p.add_argument("--vertex", type=int, required=True, help="vertex to project (1-based)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("volume", help="Euclidean simplex or face volume")
    p.add_argument("simplex", help="JSON simplex document")
    p.add_argument("--face-opposite", type=int, default=None,
                   help="compute the volume of the face opposite this vertex")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("embed", help="explicit model-space vertex coordinates")
    common(p)
    p.add_argument("--out", default=None, help="write the embedding JSON to this file")
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EmbeddingInconsistency, GramOverflow) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
