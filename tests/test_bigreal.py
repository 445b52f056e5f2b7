"""BigReal construction, certified fractional parts, and precision policy.

A BigReal is mantissa * 2**exponent with its precision counted in bits.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ubenford.bigreal import DEFAULT_POLICY, BigReal, PrecisionPolicy
from ubenford.errors import InsufficientPrecision, InvalidParameter
from ubenford.transforms import LOG10, eval_transform


def exact(x):
    """The rational a BigReal stores, mantissa * 2**exponent."""
    return Fraction(x.mantissa) * Fraction(2) ** x.exponent


class TestConstruction:
    def test_from_int(self):
        x = BigReal.from_int(1234)
        assert (x.mantissa, x.exponent, x.exact) == (1234, 0, True)
        assert x.precision >= 53

    def test_from_float_is_exact_binary(self):
        x = BigReal.from_float(0.1)
        # 0.1 as a double is 3602879701896397 / 2**55
        assert (x.mantissa, x.exponent) == (3602879701896397, -55)
        assert x.exact
        y = BigReal.from_float(-2.5)
        assert (y.mantissa, y.exponent) == (-5, -1)
        z = BigReal.from_float(5e-324)  # smallest subnormal
        assert (z.mantissa, z.exponent) == (1, -1074)
        assert BigReal.from_float(0.0).mantissa == 0

    def test_from_float_integers(self):
        assert exact(BigReal.from_float(8.0)) == 8

    def test_from_float_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BigReal.from_float(math.inf)
        with pytest.raises(ValueError):
            BigReal.from_float(math.nan)

    def test_immutable(self):
        x = BigReal.from_int(1)
        with pytest.raises(AttributeError):
            x.mantissa = 2


class TestStructure:
    def test_integer_bits(self):
        # binary digits of the integer part
        assert BigReal.from_float(0.5).integer_bits() == 0
        assert BigReal.from_int(1).integer_bits() == 1
        assert BigReal.from_int(255).integer_bits() == 8
        assert BigReal.from_int(256).integer_bits() == 9
        assert BigReal(1023, -8, 53, True).integer_bits() == 2  # 3.99...
        assert BigReal.from_int(0).integer_bits() == 0
        assert BigReal.from_int(10 ** 100).integer_bits() == 333

    def test_significant_bits(self):
        # 0b1100000.111 (96.875) certified to 10 bits: relative error can
        # reach 2**-9
        assert BigReal(775, -3, 10, False).significant_bits() == 9
        # 775 * 2**-13 (~0.0946): the leading zero bits do not count
        assert BigReal(775, -13, 10, False).significant_bits() == 6
        assert BigReal.from_int(5).significant_bits() > 10 ** 8

    def test_sign(self):
        assert BigReal.from_int(-3).sign() == -1
        assert BigReal.from_int(0).sign() == 0
        assert BigReal.from_float(0.001).sign() == 1


class TestFrac:
    def test_short_decimals_round_trip(self):
        # the frac of a double is a double, and comes back exactly
        assert BigReal.from_float(3.7).frac() == 3.7 - 3.0
        assert BigReal.from_float(0.25).frac() == 0.25
        assert BigReal.from_int(42).frac() == 0.0

    def test_negative_values_wrap_up(self):
        assert BigReal.from_float(-0.25).frac() == 0.75
        assert BigReal.from_float(-2.5).frac() == 0.5

    def test_frac_scaled(self):
        x = BigReal(0b101_110101, -6, 53, True)  # 5 + 53/64
        assert x.frac_scaled(3) == 0b110
        assert x.frac_scaled(8) == 0b11010100
        assert BigReal.from_float(-2.75).frac_scaled(2) == 1

    def test_huge_exact_int(self):
        assert BigReal.from_int(10 ** 5000 + 7).frac() == 0.0

    def test_insufficient_precision(self):
        # 40 integer bits certified to 60 leaves 20 fractional bits
        x = BigReal(0xABCDEF0123_456789AB, -32, 60, False)
        assert x.frac_scaled(20) == 0x45678
        with pytest.raises(InsufficientPrecision):
            x.frac_scaled(21)
        with pytest.raises(InsufficientPrecision):
            x.frac()

    def test_exact_values_never_refuse(self):
        x = BigReal.from_float(123456789012345.625)
        assert x.frac() == 0.625

    @given(st.floats(min_value=1e-6, max_value=0.999999))
    def test_from_float_frac_identity(self, v):
        # 80 materialized fractional bits hold any double here exactly
        assert BigReal.from_float(v).frac() == v

    @given(st.floats(min_value=0.0, max_value=1e6, exclude_max=True))
    def test_frac_range(self, v):
        f = BigReal.from_float(v).frac()
        assert 0.0 <= f < 1.0


class TestPrecisionPolicy:
    def test_defaults(self):
        p = DEFAULT_POLICY
        assert [f.name for f in dataclasses.fields(p)] == ["agreement"]
        assert p.agreement == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(agreement=11)
        PrecisionPolicy(agreement=16)
        with pytest.raises(InvalidParameter, match="agreement .* got 12.5"):
            PrecisionPolicy(agreement=12.5)
        with pytest.raises(InvalidParameter, match="agreement .* got '20'"):
            PrecisionPolicy(agreement="20")
        # a numpy integer is stored as the int it equals, and certifies so
        p = PrecisionPolicy(agreement=np.int64(14))
        assert type(p.agreement) is int
        assert p == PrecisionPolicy(agreement=14)
        x = BigReal.from_int(7)
        assert repr(eval_transform(x, LOG10, p)) == \
            repr(eval_transform(x, LOG10, PrecisionPolicy(14)))
