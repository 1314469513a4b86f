"""Exception and warning types shared across the package."""


class QpRelaxError(Exception):
    """Base class for all package-specific errors."""


class ParseError(QpRelaxError):
    """Instance file is not valid JSON or misses required fields."""


class DimensionMismatch(QpRelaxError):
    """Array shapes are inconsistent with the declared dimensions."""


class AsymmetricQ(QpRelaxError):
    """Objective matrix is not exactly symmetric as stored."""


class NonFinite(QpRelaxError):
    """Input contains NaN or infinite entries."""


class NegativeComponent(QpRelaxError):
    """A vector required to be nonnegative has a negative entry."""


class InfeasibleMixturePoint(QpRelaxError):
    """A mixture point violates the instance constraints."""


class RayNotInRecessionCone(QpRelaxError):
    """A mixture ray is not a recession direction of the feasible set."""


class WeightsNotSimplex(QpRelaxError):
    """Mixture weights are negative or do not sum to one."""


class PointInfeasible(QpRelaxError):
    """An anchor point is not feasible for the instance."""


class DeskScaleLimit(QpRelaxError):
    """An enumeration of column subsets or faces would exceed ``2^enum_cap()``."""


class InvalidDimension(QpRelaxError):
    """Requested dimension is outside the supported range."""


class GenerationFailed(QpRelaxError):
    """A random generator exhausted its retry budget."""


class DegenerateConstraints(UserWarning):
    """Affine constraint system is numerically singular; a least-norm
    correction is used instead of a direct factorization."""
