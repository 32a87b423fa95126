"""Exception hierarchy shared across the library."""


class GeometryError(Exception):
    """Base class for all geometric and numerical-input errors."""


class WrongModel(GeometryError):
    """A Gram matrix of the wrong model: an apex that does not match its curvature,
    ``curved_gram`` at curvature 0, or a Euclidean one passed to
    ``hull_inner_product`` or ``lift_to_model``."""


class OutsideLightCone(GeometryError):
    """Hull point is not timelike; it has no projection onto the hyperboloid."""


class DegenerateDirection(GeometryError):
    """Hull point has non-positive norm; it has no projection onto the sphere."""


class NotRealizableInput(GeometryError):
    """Edge lengths do not define a simplex of the requested curvature."""


class ProjectionDegenerate(GeometryError):
    """Projection denominator vanished; the foot is not determined."""


class GramOverflow(GeometryError):
    """A half chord or vertex Gram entry (past COSH_ARG_MAX), squared edge, unit-model
    rescale or volume leaves float64's range."""


class EmbeddingInconsistency(GeometryError):
    """Internal failure: a factorization or spectrum inconsistent with a Realizable verdict
    (``embed``'s, or a Euclidean volume's apex Gram with no Cholesky factor)."""
