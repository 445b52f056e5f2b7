"""Arbitrary-precision binary reals with explicit certified precision.

A BigReal stores value = mantissa * 2**exponent together with the count of
significant bits that are actually trustworthy. Exact values (integers,
binary doubles) are flagged and never lose bits; inexact values carry the
bits their producer certified, so that frac() can refuse to hand out
fractional bits it cannot vouch for. Fractional parts are masks and shifts.
"""

import math
from dataclasses import dataclass

from .errors import InsufficientPrecision, count

_FRAC_OUT_BITS = 80  # bits materialized when converting a frac to double
_FRAC_MIN_BITS = 40  # the fewest certified fractional bits frac hands out
_ONE_MINUS = math.nextafter(1.0, 0.0)
_EXACT_BITS = 10 ** 9  # significant bits reported for exact values


def _frac_double(f):
    """floor(frac * 2**80) as a double in [0, 1).

    int/int true division rounds the 80 bits once, so binary fractions of
    up to 80 bits come back exactly.
    """
    d = f / (1 << _FRAC_OUT_BITS)
    return _ONE_MINUS if d >= 1.0 else d


@dataclass(frozen=True)
class PrecisionPolicy:
    """The knob for certified evaluation, in decimal digits.

    Everything downstream works in bits: each certifier
    (transforms._Certifier) converts it once, and transforms.start_bits
    sizes each term and its first working precision from it. The working
    precision evaluated is capped at a fixed 30,000 digits
    (transforms._CAP_DIGITS).

    agreement: fractional digits the accepted evaluation must certify;
        certification rests on the bits each evaluator claims
    """

    agreement: int = 12

    def __post_init__(self):
        # a Python int, so the bit sizes derived from it are Python ints
        object.__setattr__(self, "agreement",
                           count("agreement", self.agreement, 12))


DEFAULT_POLICY = PrecisionPolicy()


class BigReal:
    __slots__ = ("mantissa", "exponent", "precision", "exact")

    def __init__(self, mantissa, exponent, precision, exact):
        # the slots' own setters, since __setattr__ refuses every write
        _set_mantissa(self, mantissa)
        _set_exponent(self, exponent)
        _set_precision(self, precision)
        _set_exact(self, exact)

    def __setattr__(self, *_):
        raise AttributeError("BigReal is immutable")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def from_int(cls, n):
        return cls(n, 0, max(53, n.bit_length()), True)

    @classmethod
    def from_float(cls, x):
        # a double is exactly m2 * 2**-k
        if not math.isfinite(x):
            raise ValueError("BigReal requires a finite value")
        m2, d = x.as_integer_ratio()  # d is a power of two
        return cls(m2, 1 - d.bit_length(), max(53, m2.bit_length()), True)

    # ---- structure --------------------------------------------------------

    def integer_bits(self):
        """Binary digit count of the integer part (0 when |value| < 1)."""
        return max(0, self.mantissa.bit_length() + self.exponent)

    def significant_bits(self):
        """Certified significant bits (relative-error view of precision).

        For |value| >= 1 this is `precision - 1`; below 1 the leading zero
        bits after the binary point do not count.
        """
        if self.exact:
            return _EXACT_BITS
        if self.mantissa == 0:
            return 0
        # worst case over the octave: |value| as low as 2**(mag-1)
        mag = self.mantissa.bit_length() + self.exponent
        return self.precision - 1 + min(0, mag)

    def sign(self):
        return (self.mantissa > 0) - (self.mantissa < 0)

    # ---- fractional part --------------------------------------------------

    def _check_frac_precision(self, bits):
        if self.exact:
            return
        avail = self.precision - self.integer_bits()
        if avail < bits:
            raise InsufficientPrecision(
                f"{avail} certified fractional bits available, "
                f"{bits} requested")

    def _frac_bits(self, bits):
        if self.exponent >= 0:
            return 0
        point = -self.exponent
        r = self.mantissa & ((1 << point) - 1)  # floor semantics for negatives
        if bits <= point:
            return r >> (point - bits)
        return r << (bits - point)

    def frac_scaled(self, bits):
        """floor(frac(value) * 2**bits), certified or refused.

        Raises InsufficientPrecision when the stored precision cannot vouch
        for `bits` fractional bits.
        """
        self._check_frac_precision(bits)
        return self._frac_bits(bits)

    def frac(self):
        """Fractional part in [0, 1) as a double.

        The result is certified to at least _FRAC_MIN_BITS bits;
        InsufficientPrecision is raised otherwise so the caller can
        regenerate the input at higher precision.
        """
        self._check_frac_precision(_FRAC_MIN_BITS)
        return _frac_double(self._frac_bits(_FRAC_OUT_BITS))

    def __repr__(self):
        tag = "exact" if self.exact else f"p={self.precision}"
        return f"BigReal({self.mantissa}*2**{self.exponent}, {tag})"


_set_mantissa = BigReal.mantissa.__set__
_set_exponent = BigReal.exponent.__set__
_set_precision = BigReal.precision.__set__
_set_exact = BigReal.exact.__set__
