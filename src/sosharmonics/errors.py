"""Exception types raised by the SOS coordinate and harmonics routines."""


class SosError(Exception):
    """Base class for all domain errors of this package."""


class NonConvergentError(SosError):
    """Series truncation rule not met within the term cap."""


class NearBorderError(SosError):
    """W falls inside the guard band around the convergence border.

    Callers should switch to the series-free robust evaluation path.
    """


class PoleLimitError(SosError):
    """Quantity diverges on the rotation axis (W -> infinity there)."""


class PoleDivergenceError(SosError):
    """Second-kind function evaluated at its logarithmic axis singularity."""


class DegenerateOriginError(SosError):
    """The coordinate origin has no SOS image."""


class RankDeficientError(SosError):
    """Fit sample set cannot distinguish the requested degrees."""
