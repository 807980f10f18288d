"""Exception types raised by the calibration engine."""


class TiltcalError(Exception):
    """Base class for all engine errors."""


class SingularBlock(TiltcalError):
    """The X-block of the prior covariance is not invertible at tolerance."""


class SingularMap(TiltcalError):
    """A change-of-variables matrix is singular (or numerically so)."""


class SingularConditionalCovariance(TiltcalError):
    """The conditional covariance block needed to solve for multipliers is singular."""


class SingularV(TiltcalError):
    """The view-covariance matrix V is singular (linearly dependent views)."""


class NonIntegrableTilt(TiltcalError):
    """The tilted conditional normalizer diverges for the requested multipliers."""


class NonIntegrablePayoff(TiltcalError):
    """A payoff expectation is not finite under the posterior."""


class DivergentEntropy(TiltcalError):
    """Relative entropy is infinite: numerator has mass where denominator vanishes."""


class QuadratureFailure(TiltcalError):
    """A quadrature error estimate exceeded the requested accuracy."""


class ZeroCorrelation(TiltcalError):
    """Tail-ratio analysis requires nonzero prior covariance with the viewed block."""


class NonSampleableConditional(TiltcalError):
    """The tilted conditional cannot be sampled (no sampler or no valid envelope)."""


class InsufficientSamples(TiltcalError):
    """Too few samples beyond the requested quantile for a stable estimate."""


class InsufficientData(TiltcalError):
    """Too few observations to estimate a prior model."""


class InconclusiveSample(TiltcalError):
    """A Monte Carlo membership test cannot classify the target at tolerance."""


class SpecValidationError(TiltcalError):
    """A calibration spec file failed schema or consistency validation."""
