"""Fixed-point kernel tests against an independent multiprecision oracle.

Fixed-point values are floor(v * 2**prec); the frozen constants are the
published hexadecimal expansions. Parametrized precisions are given in
decimal digits and run at digits_to_bits(digits) bits.
"""

import ast
import math
import random
from pathlib import Path

import pytest
from mpmath import mp, mpf

from ubenford import kernels
from ubenford.kernels import (BACKEND, dec_digits, digits_to_bits, e_fixed,
                              exp_fixed, ln2_fixed, ln10_fixed, ln_fixed,
                              ln_int_fixed, pi_fixed, pow_fixed)

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


# precisions in bits for the one-ulp oracles: the small-argument
# regime, both sides of where ln_fixed switches from its table to square
# roots (4,064 | 4,065) and exp_fixed's halvings start to grow (120 |
# 121), and the giant terms of the sequence tables
KERNEL_PRECS = [64, 65, 117, 120, 121, 200, 999, 1200, 2500, 4064, 4065,
                5000, 12000, 34000]


def ln_oracle(m, prec):
    """floor(ln(m / 2**prec) * 2**prec) via mpmath."""
    return oracle_fixed(lambda: mp.log(mpf(m) / mpf(2) ** prec), prec)


def assert_exp_within_one_ulp(x, prec):
    """exp_fixed(x, prec) within one ulp of e**(x / 2**prec).

    Near a power of two the kernel and the oracle may normalize to
    neighbouring exponents; the value must still agree to one ulp at the
    larger exponent, i.e. two at the smaller.
    """
    mant, e2 = exp_fixed(x, prec)
    assert 1 << prec <= mant < 2 << prec
    want, want_e2 = oracle_normalized(
        lambda: mp.e ** (mpf(x) / mpf(2) ** prec), prec)
    if e2 == want_e2:
        assert abs(mant - want) <= 1, (x, prec)
    else:
        assert abs(e2 - want_e2) == 1, (x, prec)
        lo, hi = (mant, want) if e2 < want_e2 else (want, mant)
        assert abs(2 * hi - lo) <= 2, (x, prec)


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

    @pytest.mark.parametrize("fn,value", [
        (pi_fixed, lambda: mp.pi), (ln2_fixed, lambda: mp.ln2),
        (ln10_fixed, lambda: mp.ln10), (e_fixed, lambda: mp.e)],
        ids=["pi", "ln2", "ln10", "e"])
    def test_every_bucket_is_the_floor(self, fn, value):
        # a request at a bucket's own precision returns the cached value
        # itself, so this checks every cache entry up to 2**17 bits
        for k in range(6, 18):
            assert fn(1 << k) == oracle_fixed(value, 1 << k), 1 << k


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
        # oracle on exactly the fixed-point argument the kernel saw
        assert abs(ln_fixed(m, prec) - ln_oracle(m, prec)) <= 1

    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    def test_within_one_ulp(self, prec):
        # both ends of [1, 2) and seeded mantissas; two above 5,000 bits
        rng = random.Random(prec)
        count = 2 if prec > 5000 else 8
        ms = [1 << prec, (2 << prec) - 1] + [
            rng.randrange(1 << prec, 2 << prec) for _ in range(count)]
        for m in ms:
            assert abs(ln_fixed(m, prec) - ln_oracle(m, prec)) <= 1, m

    @pytest.mark.parametrize("prec", [64, 117, 160, 1200, 3000])
    def test_table_edges(self, prec):
        # one ulp either side of floor(2**(j/256) * 2**prec), where the
        # reduction switches from the table entry j - 1 to j
        for j in (1, 2, 37, 128, 200, 255, 256):
            with mp.workprec(prec + 64):
                edge = int(mp.floor(mpf(2) ** (mpf(j) / 256 + prec)))
            for m in (edge - 1, edge, edge + 1, edge + 2):
                if m < 2 << prec:
                    got = ln_fixed(m, prec)
                    assert abs(got - ln_oracle(m, prec)) <= 1, (j, m)

    def test_ln_one_is_zero(self):
        assert ln_fixed(1 << 100, 100) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ln_fixed(1 << 99, 100)  # below 1
        with pytest.raises(ValueError):
            ln_fixed(1 << 101, 100)  # 2 and above


class TestLnInt:
    # both sides of ln_fixed's switch to square roots (4,064 | 4,065) and
    # well past it; integers up to 2**20000, cut to prec + 1 bits or not
    @pytest.mark.parametrize("prec", [64, 65, 200, 1200, 4064, 4065, 8192])
    def test_within_stated_bound(self, prec):
        rng = random.Random(prec)
        ns = [1, 2, 3, 10, 255, (1 << prec) + 1, (2 << prec) - 1,
              (1 << 20000) - 1, 1 << 20000, 3 ** 12618] + [
            rng.getrandbits(rng.randrange(2, 20001)) | 1 for _ in range(6)]
        ln2 = ln2_fixed(prec)
        for n in ns:
            got = ln_int_fixed(n, prec, ln2)
            with mp.workprec(prec + 100):
                want = mp.log(mpf(n)) * mpf(2) ** prec
                assert abs(got - want) <= n.bit_length() + 2, n

    def test_only_kernels_reads_ln_fixed(self):
        # ln of an integer has one home: every module but kernels goes
        # through ln_int_fixed
        readers = set()
        for path in Path(kernels.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if "ln_fixed" in (getattr(node, "id", None),
                                  getattr(node, "attr", None),
                                  getattr(node, "name", None)):
                    readers.add(path.name)
        assert readers == {"kernels.py"}


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

    @pytest.mark.parametrize("prec", KERNEL_PRECS)
    def test_within_one_ulp(self, prec):
        rng = random.Random(prec)
        count = 2 if prec > 5000 else 8
        xs = [0, 1, (1 << prec) - 1] + [
            rng.randrange(0, 50 << prec) for _ in range(count)]
        for x in xs:
            assert_exp_within_one_ulp(x, prec)

    @pytest.mark.parametrize("prec", [64, 117, 160, 1200, 3000])
    def test_next_to_multiples_of_ln2_over_256(self, prec):
        # k = 256 n are whole octaves, where e**x sits next to a power of
        # two and the normalization may carry
        for k in (1, 5, 128, 255, 256, 257, 512, 3 * 256, 7 * 256 + 9):
            with mp.workprec(prec + 64):
                x0 = int(mp.floor(k * mp.ln2 / 256 * mpf(2) ** prec))
            for x in (x0 - 1, x0, x0 + 1):
                assert_exp_within_one_ulp(x, prec)

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
