"""Exception types shared across the package.

Each class carries the CLI's exit code and the prefix of its one-line
message: a UBenfordError is an input refusal (exit 1, "error"), and a
NumericalFailure is a computation that could not be trusted (exit 2,
"numerical failure").
"""


class UBenfordError(Exception):
    """Base class for all package-specific failures."""

    exit_code = 1
    prefix = "error"


class NumericalFailure(UBenfordError):
    """The computation itself could not be trusted; never bad input."""

    exit_code = 2
    prefix = "numerical failure"


class DomainError(UBenfordError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class InvalidParameter(UBenfordError, ValueError):
    """Distribution or transform constructed with impossible parameters."""


class InsufficientPrecision(NumericalFailure):
    """A value's certified bits cannot cover the requested fractional bits.

    BigReal.frac refuses with it; the certifier (_Certifier.certify in
    transforms.py) raises it for an inexact input once doubling the
    working precision gains no certified bits.
    Callers are expected to regenerate the input at more bits and retry
    (frac_sample doubles them); this is a control-flow signal, not a
    fatal condition.
    """


class PrecisionCapExceeded(NumericalFailure):
    """Escalation hit the policy cap without resolving the value."""


class NotUnimodal(UBenfordError):
    """The auxiliary function is not unimodal (or is unbounded), so the
    supremum-based bound does not apply."""


class HypothesisViolated(UBenfordError):
    """A theorem's hypothesis fails numerically for the given inputs."""


class CertificateViolation(NumericalFailure):
    """A measured quantity exceeded its certified bound. Build-failing."""


class TruncationFailure(NumericalFailure):
    """Series tails did not decay within the configured index budget."""


class EmptySample(UBenfordError):
    """No values remain after exclusions."""


class FileError(UBenfordError):
    """Dataset file missing or unreadable."""


class NoNumericColumn(UBenfordError):
    """The selected column never yields a numeric value."""


class EmptyDataset(UBenfordError):
    """Ingestion produced no positive numeric values."""
