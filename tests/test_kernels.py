"""Fixed-point kernel tests against an independent multiprecision oracle.

Fixed-point values are floor(v * 2**prec); the frozen constants are the
published hexadecimal expansions. Parametrized precisions are given in
decimal digits and run at digits_to_bits(digits) bits.
"""

import math

import pytest
from mpmath import mp, mpf

from ubenford.kernels import (BACKEND, dec_digits, digits_to_bits, e_fixed,
                              exp_fixed, ln2_fixed, ln10_fixed, ln_fixed,
                              pi_fixed, pow_fixed)

# floor(pi * 2**128): pi = 3.243F6A8885A308D3...
PI_128 = 0x3243F6A8885A308D313198A2E03707344
# floor(ln(2) * 2**128)
LN2_128 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF
# floor(ln(10) * 2**128)
LN10_128 = 0x24D763776AAA2B05BA95B58AE0B4C28A3
# floor(e * 2**128)
E_128 = 0x2B7E151628AED2A6ABF7158809CF4F3C7

# the first 1000 fractional digits of pi, independent of mpmath
PI_DIGITS_1000 = (
    "14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
    "82148086513282306647093844609550582231725359408128"
    "48111745028410270193852110555964462294895493038196"
    "44288109756659334461284756482337867831652712019091"
    "45648566923460348610454326648213393607260249141273"
    "72458700660631558817488152092096282925409171536436"
    "78925903600113305305488204665213841469519415116094"
    "33057270365759591953092186117381932611793105118548"
    "07446237996274956735188575272489122793818301194912"
    "98336733624406566430860213949463952247371907021798"
    "60943702770539217176293176752384674818467669405132"
    "00056812714526356082778577134275778960917363717872"
    "14684409012249534301465495853710507922796892589235"
    "42019956112129021960864034418159813629774771309960"
    "51870721134999999837297804995105973173281609631859"
    "50244594553469083026425223082533446850352619311881"
    "71010003137838752886587533208381420617177669147303"
    "59825349042875546873115956286388235378759375195778"
    "18577805321712268066130019278766111959092164201989"
)


def oracle_fixed(expr_fn, prec):
    """floor(value * 2**prec) via mpmath at generous guard precision."""
    with mp.workprec(prec + 100):
        return int(mp.floor(expr_fn() * mpf(2) ** prec))


def oracle_normalized(value_fn, prec):
    """(floor(v * 2**(prec - e)), e) with e = floor(log2 v), via mpmath."""
    with mp.workprec(prec + 200):
        v = value_fn()
        e = int(mp.floor(mp.log(v, 2)))
        return int(mp.floor(v * mpf(2) ** (prec - e))), e


class TestDecDigits:
    def test_boundaries(self):
        assert dec_digits(1) == 1
        assert dec_digits(9) == 1
        assert dec_digits(10) == 2
        assert dec_digits(99) == 2
        assert dec_digits(100) == 3
        assert dec_digits(10 ** 100) == 101
        assert dec_digits(10 ** 100 - 1) == 100

    def test_matches_string_length(self):
        for n in (7, 123, 4096, 10 ** 17 + 3, 3 ** 300, 7 ** 500):
            assert dec_digits(n) == len(str(n))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dec_digits(0)
        with pytest.raises(ValueError):
            dec_digits(-5)


class TestDigitsToBits:
    def test_agreement_default(self):
        assert digits_to_bits(12) == 40

    def test_is_the_exact_ceiling(self):
        # smallest b with 2**b >= 10**d
        for d in range(1, 3000):
            assert digits_to_bits(d) == (10 ** d - 1).bit_length(), d


class TestConstants:
    def test_pi_frozen(self):
        assert pi_fixed(128) == PI_128

    @pytest.mark.parametrize("digits", [16, 30, 100, 1000, 5000])
    def test_pi_oracle(self, digits):
        prec = digits_to_bits(digits)
        assert pi_fixed(prec) == oracle_fixed(lambda: mp.pi, prec)

    @pytest.mark.parametrize("bits", [4096, 8192, digits_to_bits(7000)])
    def test_pi_reference_digits(self, bits):
        # floor(pi * 10**d) for the d digits the bits resolve begins with
        # the 1000 reference digits
        d = bits * 30103 // 100000 - 1
        head = (pi_fixed(bits) * 10 ** d >> bits) // 10 ** (d - 1000)
        assert head == int("3" + PI_DIGITS_1000)

    def test_ln2_frozen(self):
        assert ln2_fixed(128) == LN2_128

    def test_ln10_frozen(self):
        assert ln10_fixed(128) == LN10_128

    def test_e_frozen(self):
        assert e_fixed(128) == E_128

    @pytest.mark.parametrize("digits", [16, 50, 200, 1000])
    def test_log_constants_oracle(self, digits):
        prec = digits_to_bits(digits)
        assert ln2_fixed(prec) == oracle_fixed(lambda: mp.log(2), prec)
        assert ln10_fixed(prec) == oracle_fixed(lambda: mp.log(10), prec)
        assert e_fixed(prec) == oracle_fixed(lambda: mp.e, prec)

    def test_cache_slices_are_consistent(self):
        # narrow results are slices of wider ones regardless of call order
        wide = pi_fixed(2425)
        assert pi_fixed(333) == wide >> (2425 - 333)
        assert ln10_fixed(213) == ln10_fixed(1701) >> (1701 - 213)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            pi_fixed(0)


class TestLn:
    @pytest.mark.parametrize("text", ["1.5", "2.5", "3.141592653589793",
                                      "9.999999999", "1.000000001"])
    @pytest.mark.parametrize("digits", [30, 100, 500])
    def test_oracle(self, text, digits):
        # the binary mantissa of the value, v / 2**floor(log2 v) in [1, 2)
        prec = digits_to_bits(digits)
        with mp.workprec(prec + 100):
            v = mpf(text)
            v /= mpf(2) ** int(mp.floor(mp.log(v, 2)))
            m = int(mp.floor(v * mpf(2) ** prec))
        got = ln_fixed(m, prec)
        # oracle on exactly the fixed-point argument the kernel saw
        want = oracle_fixed(lambda: mp.log(mpf(m) / mpf(2) ** prec), prec)
        assert abs(got - want) <= 2

    def test_ln_one_is_zero(self):
        assert ln_fixed(1 << 100, 100) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ln_fixed(1 << 99, 100)  # below 1
        with pytest.raises(ValueError):
            ln_fixed(1 << 101, 100)  # 2 and above


class TestExp:
    @pytest.mark.parametrize("x_text,digits", [
        ("0", 30), ("1", 30), ("2.302585092994045684", 30),
        ("10", 50), ("100", 100), ("0.000001", 40),
    ])
    def test_oracle(self, x_text, digits):
        prec = digits_to_bits(digits)
        with mp.workprec(prec + 100):
            x_fixed = int(mp.floor(mpf(x_text) * mpf(2) ** prec))
        mant, e2 = exp_fixed(x_fixed, prec)
        # oracle on exactly the fixed-point argument the kernel saw
        want_mant, want_e2 = oracle_normalized(
            lambda: mp.e ** (mpf(x_fixed) / mpf(2) ** prec), prec)
        assert e2 == want_e2
        assert abs(mant - want_mant) <= 2
        assert 1 << prec <= mant < 2 << prec

    def test_exp_zero(self):
        mant, e2 = exp_fixed(0, 100)
        assert (mant, e2) == (1 << 100, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exp_fixed(-1, 100)


class TestPow:
    def test_exact_power_of_two(self):
        # 1.5**100 = 3**100 / 2**100 is exact in binary
        prec = 200
        mant, e2 = pow_fixed(3 << (prec - 1), prec, 100)
        v = 3 ** 100  # 159 bits
        assert e2 == 158 - 100
        assert abs(mant - (v << (prec - 158))) <= 4

    def test_e_powers_oracle(self):
        # floor(e * 2**(prec-1)) read at scale 2**prec is e/2, in [1, 2)
        prec = 166
        em = e_fixed(prec - 1)
        for n in (1, 7, 100, 1000):
            mant, e2 = pow_fixed(em, prec, n)
            want_mant, want_e2 = oracle_normalized(
                lambda: (mpf(em) / mpf(2) ** prec) ** n, prec)
            assert e2 == want_e2
            assert abs(mant - want_mant) <= n + 2

    def test_identity_power(self):
        prec = 100
        mant, e2 = pow_fixed(3 << (prec - 1), prec, 1)
        assert (mant, e2) == (3 << (prec - 1), 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pow_fixed(1 << 100, 100, 0)
        with pytest.raises(ValueError):
            pow_fixed(5, 100, 2)  # mantissa below scale


def test_backend_reports_flavor():
    assert BACKEND == "python"


def test_float_agreement():
    # spot check against doubles at double precision
    assert abs(pi_fixed(53) / 2 ** 53 - math.pi) < 1e-15
    assert abs(ln2_fixed(53) / 2 ** 53 - math.log(2)) < 1e-15
