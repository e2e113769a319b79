"""Exception types shared across the package."""


class ConeVacError(Exception):
    """Base class for errors raised by this package."""


class DomainError(ConeVacError, ValueError):
    """A quantity was requested outside the region where it is defined.

    Examples: a field point behind a wedge boundary, a kernel evaluated
    at coincident points with no cutoff, the conservation residual of a
    geometry that is not azimuthally symmetric (a wedge).
    """


class SingularPointError(DomainError):
    """The requested point sits exactly on a singularity of the kernel."""


class ConvergenceError(ConeVacError, RuntimeError):
    """An iterative or extrapolated computation failed to converge."""
