"""Exception types shared across the package."""


class GhzmetroError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GhzmetroError, ValueError):
    """Parameters lie outside the documented domain of an operation."""


class SizeLimitError(GhzmetroError, ValueError):
    """A dense or enumerative computation would exceed its fixed cap."""


class CrossCheckError(GhzmetroError, RuntimeError):
    """A fast closed-form path disagreed with its independent oracle."""


class LikelihoodDegeneracyError(GhzmetroError, RuntimeError):
    """The likelihood has multiple maxima inside the estimation bracket."""


class FisherSingularityError(GhzmetroError, RuntimeError):
    """An outcome probability vanishes while its derivative does not."""
