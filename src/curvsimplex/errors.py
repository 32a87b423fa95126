"""Exception hierarchy shared across the library."""


class GeometryError(Exception):
    """Base class for all geometric and numerical-input errors."""


class DegenerateMinor(GeometryError):
    """Minor requested of a 1x1 matrix."""


class SingularFace(GeometryError):
    """The trailing principal submatrix is singular; complement solve impossible."""


class WrongModel(GeometryError):
    """Operation invoked with a curvature class it does not support."""


class OutsideLightCone(GeometryError):
    """Hull point is not timelike; it has no projection onto the hyperboloid."""


class DegenerateDirection(GeometryError):
    """Hull point has non-positive norm; it has no projection onto the sphere."""


class NotRealizableInput(GeometryError):
    """Edge lengths do not define a simplex of the requested curvature."""


class ProjectionDegenerate(GeometryError):
    """Projection denominator vanished; the foot is not determined."""


class GramOverflow(GeometryError):
    """Hyperbolic edges too long for a finite cosh Gram matrix in float64."""


class EmbeddingInconsistency(GeometryError):
    """Internal failure: factorization inconsistent with a Realizable verdict."""
