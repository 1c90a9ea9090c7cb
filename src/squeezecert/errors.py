"""Exception types shared across the package."""


class SqueezeCertError(Exception):
    """Base class for all package errors."""


class ArgumentError(SqueezeCertError, ValueError):
    """Raised when an argument is out of range, mis-shaped, or mis-flagged."""


class RankDeficiencyError(SqueezeCertError):
    """Raised when supposedly independent vectors are dependent within tolerance."""


class DomainFormatError(SqueezeCertError, ValueError):
    """Raised when a domain description cannot be parsed or is inconsistent."""


class NonsmoothBoundaryError(SqueezeCertError):
    """Raised when a tangent functional is requested at a nonsmooth boundary point."""


class ValidationFailureError(SqueezeCertError):
    """Raised when sampled validation of a computed object detects violations."""


class RayCapError(SqueezeCertError):
    """Raised when a ray never leaves the domain below the search cap."""


class FrameDegenerateError(SqueezeCertError):
    """Raised when a stage of the contact frame collapses below tolerance."""


class TriangularityError(SqueezeCertError):
    """Raised when transported hyperplane coefficients fail to be triangular."""


class AlphaBoundError(SqueezeCertError):
    """Raised when a normalizer row exceeds the unit bound on its entries."""


class UnsupportedShapeError(SqueezeCertError):
    """Raised when a planar domain has no closed-form disc map in the catalog."""


class MapDomainError(SqueezeCertError, ValueError):
    """Raised when a point lies outside the domain of a planar map."""


class ClassMismatchError(SqueezeCertError):
    """Raised when a domain is certified under a convexity class it fails."""
