"""Exception types shared across the package."""


class OscillabError(Exception):
    """Base class for all package errors."""


class OrderUnavailable(OscillabError):
    """A derivative order beyond what the phase can supply was requested."""


class ValidationFailed(OscillabError):
    """A finite-type hypothesis was violated; the message is the first failing condition."""


class DegenerateSupport(OscillabError):
    """The support interval contains too few grid points to be meaningful."""


class GridMismatch(OscillabError):
    """Two sampled functions live on different grids."""


class UnderResolved(OscillabError):
    """The grid step is too coarse for the requested oscillation or radius.

    ``min_step`` carries the largest admissible step.
    """

    def __init__(self, message: str, min_step: float):
        super().__init__(f"{message} (largest admissible step: {min_step:.3e})")
        self.min_step = min_step


class CoverageGap(OscillabError):
    """Material input energy lies outside the bands a decomposition covers."""


class BadBand(OscillabError):
    """A band index is outside the admissible range."""


class SupportViolation(OscillabError):
    """Declared frequency support does not hold to the required accuracy."""


class InsufficientPoints(OscillabError):
    """Too few sweep points for a power-law fit."""


class NonpositiveValue(OscillabError):
    """A log-log fit was asked to process a nonpositive value."""
