"""Realizability checks: do the edge lengths define a non-degenerate simplex?

One body serves every curvature.  ``model_gram`` supplies the Gram matrix:
the apex Gram matrix for kappa = 0, otherwise the full vertex Gram matrix of
the edges rescaled onto the unit model.  Its signature must be (n, 0) for
kappa = 0, (n, 1) for kappa < 0 and (n+1, 0) for kappa > 0; for kappa > 0
every edge must also be shorter than pi / (2 sqrt(kappa)).  The per-model
``check_*`` functions are the unit-curvature cases of ``check``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import EUCLIDEAN, HYPERBOLIC, SPHERICAL, CurvatureSpec, EdgeLengths, model_gram
from .symmat import DEFAULT_TOL, Signature


class Verdict(enum.Enum):
    REALIZABLE = "Realizable"
    DEGENERATE = "Degenerate"
    NOT_REALIZABLE = "NotRealizable"


@dataclass(frozen=True)
class RealizabilityReport:
    """Verdict, the signature it rests on, and the ascending Gram eigenvalues."""

    verdict: Verdict
    signature: Signature
    detail: str
    eigenvalues: np.ndarray = field(compare=False)

    def __bool__(self) -> bool:
        return self.verdict is Verdict.REALIZABLE


def check(e: EdgeLengths, c: CurvatureSpec, tol: float = DEFAULT_TOL) -> RealizabilityReport:
    """Compare the model Gram signature with the target, then gate long spherical edges."""
    q = model_gram(e, c)
    eig = q.matrix.eigenvalues()
    eig.setflags(write=False)
    sig = Signature.of(eig, tol)
    minus = 1 if c.kappa < 0 else 0
    plus = q.matrix.dim - minus
    if sig.as_tuple() == (plus, minus, 0):
        gram = "apex" if q.apex is not None else "vertex"
        form = f"has signature ({plus},1)" if minus else "is positive definite"
        verdict, detail = Verdict.REALIZABLE, f"{gram} Gram matrix {form}"
    elif sig.n_zero > 0 and sig.n_plus <= plus and sig.n_minus <= minus:
        verdict = Verdict.DEGENERATE
        detail = f"flat configuration: signature {sig.as_tuple()} has zero eigenvalues"
    else:
        verdict = Verdict.NOT_REALIZABLE
        detail = f"signature {sig.as_tuple()} incompatible with target ({plus},{minus},0)"
    # Edge lengths on the unit sphere are the edges times sqrt(kappa).
    if c.kappa > 0 and float(e.gamma.max()) * c.scale >= math.pi / 2:
        verdict, detail = Verdict.NOT_REALIZABLE, "edge >= pi/2"
    return RealizabilityReport(verdict, sig, detail, eig)


def check_euclidean(e: EdgeLengths, tol: float = DEFAULT_TOL) -> RealizabilityReport:
    """Realizable iff the apex Gram matrix is positive definite (any apex)."""
    return check(e, EUCLIDEAN, tol)


def check_hyperbolic(e: EdgeLengths, tol: float = DEFAULT_TOL) -> RealizabilityReport:
    """Realizable iff the -cosh vertex Gram matrix has signature (n, 1)."""
    return check(e, HYPERBOLIC, tol)


def check_spherical(e: EdgeLengths, tol: float = DEFAULT_TOL) -> RealizabilityReport:
    """Realizable iff every edge is < pi/2 and the cos Gram matrix is PD."""
    return check(e, SPHERICAL, tol)
