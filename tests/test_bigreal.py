"""BigReal construction, certified fractional parts, and precision policy.

A BigReal is mantissa * 2**exponent with its precision counted in bits.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ubenford.bigreal import DEFAULT_POLICY, BigReal, PrecisionPolicy
from ubenford.errors import InsufficientPrecision


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
        assert BigReal.from_float(0.0).is_zero()

    def test_from_float_integers(self):
        assert BigReal.from_float(8.0).compare_int(8) == 0

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
    def test_integer_digits(self):
        # binary digits of the integer part
        assert BigReal.from_float(0.5).integer_digits() == 0
        assert BigReal.from_int(1).integer_digits() == 1
        assert BigReal.from_int(255).integer_digits() == 8
        assert BigReal.from_int(256).integer_digits() == 9
        assert BigReal(1023, -8, 53, True).integer_digits() == 2  # 3.99...
        assert BigReal.from_int(0).integer_digits() == 0
        assert BigReal.from_int(10 ** 100).integer_digits() == 333

    def test_significant_digits(self):
        # 0b1100000.111 (96.875) certified to 10 bits: relative error can
        # reach 2**-9
        assert BigReal(775, -3, 10, False).significant_digits() == 9
        # 775 * 2**-13 (~0.0946): the leading zero bits do not count
        assert BigReal(775, -13, 10, False).significant_digits() == 6
        assert BigReal.from_int(5).significant_digits() > 10 ** 8

    def test_compare(self):
        a = BigReal.from_float(2.5)
        b = BigReal.from_int(3)
        assert a.compare(b) == -1
        assert b.compare(a) == 1
        assert a.compare(BigReal(5, -1, 53, True)) == 0
        assert a.compare(BigReal(20, -3, 53, True)) == 0
        assert BigReal.from_int(10 ** 40).compare_int(10 ** 40) == 0
        assert BigReal.from_float(-1.5).compare_int(0) == -1

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
            x.frac(40)

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


class TestArithmetic:
    def test_mul_exact(self):
        a = BigReal.from_float(0.25)
        b = BigReal.from_int(4)
        c = a.mul(b)
        assert c.exact and c.compare_int(1) == 0

    def test_mul_truncates_to_min_precision(self):
        a = BigReal(0x3243F6A8885A308D31, -68, 66, False)  # pi
        b = BigReal(0x2B7E151628AED2A6AB, -68, 40, False)  # e
        c = a.mul(b)
        assert not c.exact
        assert c.precision == 40
        assert c.mantissa.bit_length() == 40
        assert abs(c.to_float() - math.pi * math.e) < 1e-10

    def test_add_int(self):
        x = BigReal.from_float(0.75).add_int(2)
        assert x.compare(BigReal.from_float(2.75)) == 0
        y = BigReal(3, -2, 60, False).add_int(2)  # 0.75 + 2
        assert not y.exact
        assert y.precision == 62  # grew by the two new leading bits
        assert y.frac() == 0.75

    def test_add_int_exact_negative(self):
        x = BigReal.from_float(0.25).add_int(-1)
        assert x.frac() == 0.25
        assert x.sign() == -1


class TestConversion:
    def test_to_float(self):
        assert BigReal.from_float(2.5).to_float() == 2.5
        assert BigReal.from_int(0).to_float() == 0.0
        assert BigReal.from_int(10 ** 400).to_float() == math.inf
        assert BigReal.from_int(-10 ** 400).to_float() == -math.inf
        assert BigReal(1, -1400, 53, True).to_float() == 0.0
        big = BigReal.from_int(123456789123456789123456789)
        assert abs(big.to_float() - 1.23456789123456789e26) < 1e11
        assert BigReal.from_int(-(3 << 200)).to_float() == -3.0 * 2.0 ** 200


class TestPrecisionPolicy:
    def test_defaults(self):
        p = DEFAULT_POLICY
        assert p.initial == 32 and p.guard == 15
        assert p.agreement == 12 and p.cap == 30000

    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(guard=14)
        with pytest.raises(ValueError):
            PrecisionPolicy(agreement=11)
        with pytest.raises(ValueError):
            PrecisionPolicy(initial=100, cap=150)
        PrecisionPolicy(initial=64, guard=20, agreement=16, cap=200)
