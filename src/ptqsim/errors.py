"""Exception hierarchy.

``ValidationError`` covers bad inputs / violated preconditions (CLI exit
code 2); ``NumericalError`` covers failures of the numerics themselves
(CLI exit code 3).
"""


class PtqsimError(Exception):
    """Base class for all package errors."""


class ValidationError(PtqsimError):
    """Invalid input or violated precondition."""


class NumericalError(PtqsimError):
    """A numerical procedure failed or refused to produce a result."""


class NotNormalizedError(ValidationError):
    """State vector is not unit-normalized."""


class InvalidDensityError(ValidationError):
    """Density matrix violates hermiticity / trace / positivity."""


class StepTooLargeError(ValidationError):
    """Integrator step too large for the requested Hamiltonian."""


class OmegaSingularError(ValidationError):
    """Closed-form eigenvector coefficients are undefined at omega ~ 0."""


class NotAtEpError(ValidationError):
    """Supplied point is not at an exact sign change of z (the EP certificate)."""


class DegenerateCubicError(NumericalError):
    """Formerly raised where the cube-root radical vanished; the closed form now
    holds at every finite point, so nothing raises it.  Kept for importers."""


class NearDefectiveError(NumericalError):
    """Eigenvector residual exceeds tolerance (near-defective matrix)."""


class NoConvergenceError(NumericalError):
    """Iterative solve did not converge within its budget."""


class NoSignChangeError(NumericalError):
    """The bracket ends lie in the same phase, or the critical point lies outside it."""


class EmptyCurveError(NumericalError):
    """No exceptional point found anywhere in the requested range."""


class NonFiniteError(NumericalError):
    """Values left the finite float range (propagated amplitudes, rate-valued outputs)."""


class EpTooCloseError(NumericalError):
    """Requested derivative is ill-defined this close to an EP."""


class ZeroSlopeError(NumericalError):
    """Error-propagation sensitivity undefined: response slope is zero."""


class DiscrepancyError(NumericalError):
    """Closed-form eigenstate concurrence disagrees with the Wootters value."""

    def __init__(self, message, closed=None, wootters=None):
        super().__init__(message)
        self.closed = closed
        self.wootters = wootters
