"""Realizability checks: do the edge lengths define a non-degenerate simplex?

One matrix serves every curvature: with E the unit-model half squared chords of k
vertices, sigma = sign(kappa) and s = max E / sqrt(1 + |sigma| max E), the bordered matrix
M = [[-E, s 1], [s 1^T, -sigma s^2]] (``_bordered``) must have inertia (k, 1, 0).  Less the
border's, (1, 0), (0, 1) or (1, 1) at kappa <, > or = 0 (from the zeros where tol reads it as
zero), M's inertia is the model Gram signature (Haynsworth, Linear Algebra Appl. 1 (1968) 73-81;
Schoenberg's Cayley-Menger form at 0).  Spherical edges must be below pi / (2 sqrt(kappa)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import CurvatureSpec, EdgeLengths, GramMatrix, model_gram
from .errors import GramOverflow
from .symmat import DEFAULT_TOL, Signature


class Verdict(enum.Enum):
    REALIZABLE = "Realizable"
    DEGENERATE = "Degenerate"
    NOT_REALIZABLE = "NotRealizable"


@dataclass(frozen=True)
class RealizabilityReport:
    """Verdict, the model Gram signature it rests on, and the k + 1 ascending eigenvalues of M."""

    verdict: Verdict
    signature: Signature
    detail: str
    eigenvalues: np.ndarray = field(compare=False)


def _bordered(q: GramMatrix) -> np.ndarray:
    """M of q's E and kappa, a new (k+1)-square array, border last; curved feet read it too."""
    e = q.half_chords.data
    k, largest, sigma = e.shape[0], float(e.max()), q.curvature.sign
    s = largest / math.sqrt(1.0 + abs(sigma) * largest)
    m = np.full((k + 1, k + 1), s)
    np.negative(e, out=m[:k, :k])
    m[k, k] = -sigma * s * s
    return m


def check(e: EdgeLengths, c: CurvatureSpec, tol: float = DEFAULT_TOL) -> RealizabilityReport:
    """Compare the inertia of the bordered matrix M with (k, 1, 0), then gate long spherical edges.

    The report is kept on ``e`` in place of the last one: a later call at the same
    curvature and ``tol`` returns it; any other call reads the Gram matrix through
    ``model_gram`` (the kept one at the same curvature) and classifies anew.
    """
    kept = e._report
    if kept is not None and kept[0] == c.kappa and kept[1] == tol:
        return kept[2]
    q, k, sigma = model_gram(e, c), e.num_vertices, c.sign
    eig = np.linalg.eigvalsh(_bordered(q))
    if not (math.isfinite(eig[0]) and math.isfinite(eig[-1])):
        raise GramOverflow(f"Gram eigenvalues [{eig[0]}, {eig[-1]}] leave float64")
    eig.setflags(write=False)
    inertia, bp, bm = Signature.of(eig, tol), int(sigma <= 0), int(sigma >= 0)
    p, n = max(inertia.n_plus - bp, 0), max(inertia.n_minus - bm, 0)
    sig = Signature(p, n, k + 1 - bp - bm - p - n)
    plus, minus = k - bp, 1 - bm
    if sig.as_tuple() == (plus, minus, 0):
        gram = "vertex" if sigma else "apex"
        form = f"has signature ({plus},1)" if minus else "is positive definite"
        verdict, detail = Verdict.REALIZABLE, f"{gram} Gram matrix {form}"
    elif sig.n_zero > 0 and sig.n_plus <= plus and sig.n_minus <= minus:
        verdict = Verdict.DEGENERATE
        detail = f"flat configuration: signature {sig.as_tuple()} has zero eigenvalues"
    else:
        verdict = Verdict.NOT_REALIZABLE
        detail = f"signature {sig.as_tuple()} incompatible with target ({plus},{minus},0)"
    # Edge lengths on the unit sphere are the edges times sqrt(kappa).
    if c.kappa > 0 and e.longest * c.scale >= math.pi / 2:
        verdict, detail = Verdict.NOT_REALIZABLE, "edge >= pi/2"
    report = RealizabilityReport(verdict, sig, detail, eig)
    object.__setattr__(e, "_report", (c.kappa, tol, report))
    return report
