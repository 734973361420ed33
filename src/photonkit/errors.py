"""Exception types shared across the package."""


class PhotonKitError(Exception):
    """Base class for every package-specific error."""


class DomainError(PhotonKitError, ValueError):
    """An argument or parameter lies outside its mathematical domain."""


class OrderRangeError(PhotonKitError, ValueError):
    """A derivative or correlation order exceeds the supported range."""


class TruncationError(PhotonKitError, RuntimeError):
    """Fock-space truncation cannot reach the required tail mass."""


class UnsupportedModelError(PhotonKitError, TypeError):
    """The operation is not defined for this model kind."""


class ImpossibleSubtractionError(PhotonKitError, ValueError):
    """More photons would be subtracted than the state can provide."""


class SubVacuumVarianceError(PhotonKitError, ValueError):
    """Sample variance does not exceed the vacuum level of 1/2."""


class ConvergenceError(PhotonKitError, RuntimeError):
    """An iterative fit failed to converge.

    The ``best`` attribute carries the best point found so far as a plain
    dict (parameter values plus the log-likelihood reached there).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class BinningError(PhotonKitError, ValueError):
    """A goodness-of-fit binning became degenerate."""


class SamplingError(PhotonKitError, RuntimeError):
    """A sampler's internal guarantee failed, so its output would be biased."""


class PoolExhaustedError(PhotonKitError, RuntimeError):
    """A Monte-Carlo photon pool cannot supply the requested survivors."""


class CampaignError(PhotonKitError, RuntimeError):
    """A campaign stage failed.

    The ``partial`` attribute holds the results of the stages that did
    complete, so callers can persist them before aborting.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
