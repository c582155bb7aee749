"""Exception types shared across the package."""


class OscillabError(Exception):
    """A failed hypothesis or a refused input; the message names which."""


class UnderResolved(OscillabError):
    """The grid step is too coarse for the requested oscillation or radius.

    ``min_step`` carries the largest admissible step.
    """

    def __init__(self, message: str, min_step: float):
        super().__init__(f"{message} (largest admissible step: {min_step:.3e})")
        self.min_step = min_step
