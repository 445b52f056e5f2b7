"""Exception types shared across the package."""


class UBenfordError(Exception):
    """Base class for all package-specific failures."""


class DomainError(UBenfordError):
    """Input lies outside the mathematical domain of an operation."""


class InvalidParameter(UBenfordError):
    """Distribution or transform constructed with impossible parameters."""


class InsufficientPrecision(UBenfordError):
    """A value's certified bits cannot cover the requested fractional bits.

    BigReal.frac refuses with it; the certifier (_Certifier.certify in
    transforms.py) raises it for an inexact input once doubling the
    working precision gains no certified bits.
    Callers are expected to regenerate the input at more bits and retry
    (frac_sample doubles them); this is a control-flow signal, not a
    fatal condition.
    """


class PrecisionCapExceeded(UBenfordError):
    """Escalation hit the policy cap without resolving the value."""


class NotUnimodal(UBenfordError):
    """The auxiliary function is not unimodal (or is unbounded), so the
    supremum-based bound does not apply."""


class HypothesisViolated(UBenfordError):
    """A theorem's hypothesis fails numerically for the given inputs."""


class CertificateViolation(UBenfordError):
    """A measured quantity exceeded its certified bound. Build-failing."""


class TruncationFailure(UBenfordError):
    """Series tails did not decay within the configured index budget."""


class EmptySample(UBenfordError):
    """No values remain after exclusions."""


class FileError(UBenfordError):
    """Dataset file missing or unreadable."""


class NoNumericColumn(UBenfordError):
    """The selected column never yields a numeric value."""


class EmptyDataset(UBenfordError):
    """Ingestion produced no positive numeric values."""
