"""Exception types shared across the package."""


class CgMarginError(Exception):
    """Base class for all errors raised by this package."""


class RepresentationError(CgMarginError):
    """A transfer function cannot be represented as requested."""


class DimensionError(CgMarginError):
    """Matrix dimensions are inconsistent for the requested operation."""


class SingularMassMatrixError(CgMarginError):
    """The longitudinal mass matrix is singular (m - Zwdot <= 0)."""


class UnsupportedRankError(CgMarginError):
    """The perturbation matrix has effective rank greater than one."""


class UnstableFixedPartError(CgMarginError):
    """The fixed part of the feedback structure is not asymptotically stable."""


class ModelFileError(CgMarginError, ValueError):
    """A model-definition file is missing, malformed, incomplete or out of range."""
