"""Exception hierarchy shared by all solver and evaluation modules."""


class MagpolaronError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(MagpolaronError):
    """Field samples are non-finite or otherwise unusable."""


class DomainTooSmallError(MagpolaronError):
    """The grid does not contain the field: boundary decay is violated."""


class ResolutionError(MagpolaronError):
    """The grid does not resolve the density: the real-space and Fourier-side
    Coulomb paths disagree by more than their relative tolerance."""


class ParameterError(MagpolaronError):
    """A physical or cutoff parameter is outside its admissible range."""


class ConvergenceError(MagpolaronError):
    """Iterative minimization failed to reach the requested tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class FitError(MagpolaronError):
    """Least-squares fit is ill-posed (too few points or collinear design)."""
