"""Command-line front end.

Subcommands operate on JSON simplex documents::

    {"n": 3, "edge_lengths": [[0, 2, 3, 4], ...]}

and JSON point documents ``{"barycentric": [0.25, 0.25, 0.25, 0.25]}``.

Exit codes: 0 success, 2 invalid input (non-finite numbers included),
3 geometric verdict failure (degenerate / not realizable), 4 numerical
failure (inconsistent embedding; edges, a Gram matrix or a volume outside
float64).  All numeric logic lives in the library modules; this module only
parses, dispatches, and formats: ``main`` reads every document and option,
and each ``cmd_*`` runs its operation on them and formats the result.  Each
subcommand reads its operation from the package when it runs, so a call loads
no library module it does not use.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .domain import _MODEL, BarycentricPoint, CurvatureSpec, EdgeLengths
from .errors import EmbeddingInconsistency, GeometryError, GramOverflow
from .symmat import DEFAULT_TOL

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERDICT = 3
EXIT_NUMERIC = 4

GEOMETRY_KAPPA = {name: kappa for kappa, (name, _) in _MODEL.items()}


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
        f"unknown geometry {text!r}; expected {', '.join(GEOMETRY_KAPPA)}, or kappa=<v>")


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InputError(f"{path}: unreadable JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc


# What json.load returns for a value that is not a number (lists are walked into).
_NOT_A_NUMBER = {str: "a string", bool: "a boolean", type(None): "null", dict: "an object"}


def _first_non_number(value) -> str | None:
    """What the first entry of ``value``, walked into nested lists, is when not a JSON number."""
    stack = [value]
    while stack:  # no recursion: a document may nest lists as deep as json.load allows
        v = stack.pop()
        if type(v) is list:
            stack.extend(reversed(v))
        elif type(v) in _NOT_A_NUMBER:
            return _NOT_A_NUMBER[type(v)]
    return None


def _read_field(path: str, name: str, build):
    """The document at ``path`` and ``build`` applied to its required field ``name``,
    whose entries must all be JSON numbers."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or name not in doc:
        raise InputError(f"{path}: missing required field '{name}'")
    bad = _first_non_number(doc[name])
    if bad is not None:
        raise InputError(f"{path}: field '{name}': entries must be JSON numbers, got {bad}")
    try:
        return doc, build(doc[name])
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: field '{name}': {exc}") from exc


def _load_simplex(path: str) -> EdgeLengths:
    doc, e = _read_field(path, "edge_lengths", EdgeLengths)
    if "n" in doc and doc["n"] != e.n:
        raise InputError(f"{path}: field 'n' is {doc['n']} but the matrix implies n={e.n}")
    return e


def _load_point(path: str, num_vertices: int) -> BarycentricPoint:
    _, p = _read_field(path, "barycentric", BarycentricPoint)
    if p.coords.size != num_vertices:
        raise InputError(
            f"{path}: point has {p.coords.size} coordinates, simplex has {num_vertices} vertices")
    return p


def _sig(value: float) -> str:
    return f"{value:.12g}"


def cmd_check(args, e, c) -> int:
    from . import Verdict, check

    report = check(e, c, args.tol)
    sig = report.signature
    print(f"verdict: {report.verdict.value}")
    print(f"signature: ({sig.n_plus},{sig.n_minus},{sig.n_zero})")
    print("eigenvalues: " + " ".join(_sig(v) for v in sorted(report.eigenvalues, reverse=True)))
    print(f"detail: {report.detail}")
    return EXIT_OK if report.verdict is Verdict.REALIZABLE else EXIT_VERDICT


def cmd_dist(args, e, c, x, y) -> int:
    from . import distance

    print(_sig(distance(e, c, x, y)))
    return EXIT_OK


def cmd_project(args, e, c) -> int:
    from . import project

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


def cmd_volume(args, e, c) -> int:
    from . import euclidean_face_volume, euclidean_volume

    if args.face_opposite is not None:
        vol = euclidean_face_volume(e, args.face_opposite, args.tol)
    else:
        vol = euclidean_volume(e, args.tol)
    print(_sig(vol))
    return EXIT_OK


def cmd_embed(args, e, c) -> int:
    from . import embed

    emb = embed(e, c, args.tol)
    print(json.dumps({"model": emb.model.value, "curvature": c.kappa,
                      "vertices": emb.vertices.tolist()}, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvsimplex",
        description="Geometry of constant-curvature simplices from edge lengths.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("simplex", help="JSON simplex document")
        p.add_argument("--geometry", default=_MODEL[0.0][0],
                       help=" | ".join([*GEOMETRY_KAPPA, "kappa=<v>"]))

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
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("embed", help="explicit model-space vertex coordinates")
    common(p)
    p.set_defaults(func=cmd_embed)

    for name in ("check", "project", "volume", "embed"):
        sub.choices[name].add_argument(
            "--tol", type=float, default=DEFAULT_TOL,
            help="an eigenvalue counts as zero when |lambda| <= tol * max|lambda|")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args and not 0 <= args.tol < math.inf:
            raise InputError(f"--tol must be finite and nonnegative, got {args.tol}")
        e = _load_simplex(args.simplex)
        c = _parse_geometry(args.geometry) if "geometry" in args else None
        k = e.num_vertices
        points = [_load_point(getattr(args, p), k) for p in ("point_x", "point_y") if p in args]
        for name in ("vertex", "face_opposite"):
            v = getattr(args, name, None)
            if v is not None and not 1 <= v <= k:
                raise InputError(f"--{name.replace('_', '-')} {v} out of range 1..{k}")
        return args.func(args, e, c, *points)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        numeric = isinstance(exc, (GramOverflow, EmbeddingInconsistency))
        return EXIT_NUMERIC if numeric else EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
