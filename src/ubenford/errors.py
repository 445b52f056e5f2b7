"""Exception types shared across the package, and the one check of each
kind of parameter: `count` for an integer, `real` for a real number and
`string` for a name or a spec.

Each class carries the CLI's exit code and the prefix of its one-line
message: a UBenfordError is an input refusal (exit 1, "error"), and a
NumericalFailure is a computation that could not be trusted (exit 2,
"numerical failure").
"""

import math
import operator


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


def count(name, value, least):
    """value as an int; InvalidParameter naming it unless it is an integer
    (Python or numpy, not a float or a bool) of at least `least`."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise InvalidParameter(
            f"{name} must be an integer >= {least}, got {value!r}")
    return n


def real(name, value, low=0.0, high=math.inf):
    """float(value); InvalidParameter naming it unless float() reads it
    and it lies strictly inside (low, high), so it is never inf or nan."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not low < x < high:
        need = {(0.0, math.inf): "finite and positive",
                (-math.inf, math.inf): "finite"}.get(
                    (low, high), f"strictly inside ({low:g}, {high:g})")
        raise InvalidParameter(f"{name} must be {need}, got {value!r}")
    return x


def string(name, value):
    """value; InvalidParameter naming it unless it is a str."""
    if not isinstance(value, str):
        raise InvalidParameter(f"{name} must be text, got {value!r}")
    return value


class InsufficientPrecision(NumericalFailure):
    """A value's certified bits cannot cover the requested fractional bits.

    BigReal.frac refuses with it; the certifier (_Certifier.certify in
    transforms.py) raises it for an inexact input once doubling the
    working precision gains no certified bits.
    Callers are expected to regenerate the input at more bits and retry:
    the per-term route of a sequence (_Certifier._term_frac) doubles them
    until they pass the precision cap, where it raises
    PrecisionCapExceeded instead. This is a control-flow signal,
    not a fatal condition.
    """


class PrecisionCapExceeded(NumericalFailure):
    """Escalation hit the precision cap without resolving the value."""


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
