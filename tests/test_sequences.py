"""Sequence terms, prime generation and sampling."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ubenford.errors import InsufficientPrecision, InvalidParameter
from ubenford.sequences import (ExpN, Factorial, FracSample, NPowN, PiN,
                                PowerLaw, Primes, SqrtN, frac_sample,
                                nth_prime, odd_nonsquare, parse_sequence)
from ubenford.transforms import (IDENTITY, LOG10, LOGLOG, PI_SQUARE, SQRT,
                                 eval_transform)


def exact(x):
    """The rational a BigReal stores, mantissa * 2**exponent."""
    return Fraction(x.mantissa) * Fraction(2) ** x.exponent


def trial_division_primes(count):
    """Independent oracle for the sieve."""
    found = []
    c = 2
    while len(found) < count:
        if all(c % p for p in found if p * p <= c):
            found.append(c)
        c += 1
    return found


class TestPrimes:
    def test_frozen_milestones(self):
        assert nth_prime(1) == 2
        assert nth_prime(100) == 541
        assert nth_prime(1000) == 7919
        assert nth_prime(10000) == 104729

    def test_against_trial_division(self):
        want = trial_division_primes(200)
        assert [nth_prime(i) for i in range(1, 201)] == want

    def test_rejects_zero_index(self):
        with pytest.raises(InvalidParameter):
            nth_prime(0)


class TestTerms:
    def test_sqrt_n_exactness(self):
        assert SqrtN().nth_term(49).exact
        assert exact(SqrtN().nth_term(49)) == 7
        x = SqrtN().nth_term(2, bits=100)
        assert not x.exact
        assert abs(float(exact(x)) - math.sqrt(2)) < 1e-15

    def test_pi_n(self):
        x = PiN().nth_term(7, bits=100)
        assert abs(float(exact(x)) - 7 * math.pi) < 1e-13

    def test_exp_n(self):
        x = ExpN().nth_term(100, bits=100)
        assert x.integer_digits() == 145  # 2**144 < e**100 < 2**145
        assert ExpN().int_digits_estimate(100) == 44
        assert abs(float(exact(x)) / math.exp(100) - 1) < 1e-13
        assert ExpN().int_digits_estimate(1000) == 435

    def test_exp_n_single_constant_consistency(self):
        a = float(exact(ExpN().nth_term(9, bits=100)))
        b = float(exact(ExpN().nth_term(10, bits=100)))
        assert abs(b / a - math.e) < 1e-12

    @pytest.mark.parametrize("seq", [SqrtN(), PiN(), ExpN(), PowerLaw(0.37),
                                     PowerLaw("1/pi")], ids=repr)
    def test_inexact_terms_carry_the_bits_asked_for(self, seq):
        for bits in (100, 217, 1000):
            x = seq.nth_term(7, bits)
            assert not x.exact and x.precision == bits

    def test_exact_integer_sequences(self):
        assert exact(Factorial().nth_term(10)) == 3628800
        assert Factorial().nth_term(10).exact
        assert exact(NPowN().nth_term(5)) == 3125
        assert exact(Primes().nth_term(4)) == 7

    def test_int_digit_estimates_match(self):
        # estimates are decimal digit counts of the integer part
        for seq in (SqrtN(), PiN(), Primes(), Factorial(), NPowN()):
            for n in (1, 2, 17, 300, 1000):
                est = seq.int_digits_estimate(n)
                x = seq.nth_term(n, bits=100)
                whole = x.mantissa >> -x.exponent if x.exponent < 0 \
                    else x.mantissa << x.exponent
                real = len(str(whole)) if whole else 0
                assert est >= real, (seq.name, n)
                assert est <= real + 2, (seq.name, n)


class TestPowerLaw:
    def test_inv_pi_token(self):
        pl = PowerLaw("1/pi")
        assert pl.name == "power_law(1/pi)"
        got = float(exact(pl.nth_term(10, bits=133)))
        mp.dps = 40
        want = float(mp.power(10, 1 / mp.pi))
        mp.dps = 15
        assert abs(got - want) < 1e-14

    def test_integer_exponent_exact(self):
        x = PowerLaw(3.0).nth_term(7)
        assert x.exact and exact(x) == 343

    def test_half_integer_exact_on_squares(self):
        x = PowerLaw(0.5).nth_term(16)
        assert x.exact and exact(x) == 4
        y = PowerLaw(0.5).nth_term(2, bits=100)
        assert not y.exact
        assert abs(float(exact(y)) - math.sqrt(2)) < 1e-14

    def test_float_exponent(self):
        got = float(exact(PowerLaw(0.37).nth_term(123, bits=133)))
        assert abs(got / 123.0 ** 0.37 - 1) < 1e-13

    @pytest.mark.parametrize("alpha", [1e-70, 0.37, 3.0, "1/pi"])
    def test_first_term_is_the_exact_one(self, alpha):
        x = PowerLaw(alpha).nth_term(1, bits=133)
        assert x.exact and exact(x) == 1

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidParameter):
            PowerLaw(0.0)
        with pytest.raises(InvalidParameter):
            PowerLaw(-1.5)
        with pytest.raises(InvalidParameter):
            PowerLaw(math.inf)
        with pytest.raises(InvalidParameter, match="got 'abc'"):
            parse_sequence("power_law:abc")


class TestParse:
    def test_names(self):
        assert isinstance(parse_sequence("sqrt_n"), SqrtN)
        assert isinstance(parse_sequence("primes"), Primes)
        assert isinstance(parse_sequence("n_pow_n"), NPowN)

    def test_power_law(self):
        assert parse_sequence("power_law").name == "power_law(1/pi)"
        assert parse_sequence("power_law:1/pi").name == "power_law(1/pi)"
        assert parse_sequence("power_law:0.5").name == "power_law(0.5)"

    def test_unknown(self):
        with pytest.raises(InvalidParameter):
            parse_sequence("fibonacci")
        with pytest.raises(InvalidParameter, match="got 5"):
            parse_sequence(5)


class TestFracSample:
    def test_loglog_excludes_unit_terms(self):
        fs = frac_sample(SqrtN(), LOGLOG, 100)
        assert fs.size == 99 and fs.excluded == 1 and fs.n_requested == 100
        fs = frac_sample(Factorial(), LOGLOG, 50)
        assert fs.size == 49 and fs.excluded == 1

    def test_loglog_keeps_terms_that_round_onto_one(self):
        # n**1e-70 = 1 + 7e-71 * ln n floors to exactly 1 at start_bits;
        # the term is regenerated at more bits instead of being excluded
        fs = frac_sample(PowerLaw(1e-70), LOGLOG, 3)
        assert fs.size == 2 and fs.excluded == 1
        mp.dps = 150
        try:
            for n, got in zip((2, 3), fs.values):
                u = mp.log10(mp.log10(mp.mpf(n) ** mp.mpf(1e-70)))
                assert abs(got - float(u - mp.floor(u))) < 2.0 ** -40
        finally:
            mp.dps = 15

    def test_no_exclusions_on_log(self):
        fs = frac_sample(Primes(), LOG10, 60)
        assert fs.size == 60 and fs.excluded == 0

    def test_values_match_float_oracle(self):
        fs = frac_sample(SqrtN(), LOG10, 200)
        ref = np.array([math.log10(math.sqrt(n)) % 1.0
                        for n in range(1, 201)])
        d = np.abs(fs.values - ref)
        assert np.minimum(d, 1.0 - d).max() < 1e-9

    def test_filtered_subsequence(self):
        fs = frac_sample(SqrtN(), LOG10, 1000, index_filter=odd_nonsquare)
        assert fs.n_requested == 484
        assert fs.size == 484 and fs.excluded == 0

    def test_range_and_dtype(self):
        fs = frac_sample(NPowN(), PI_SQUARE, 40)
        assert fs.values.dtype == np.float64
        assert ((fs.values >= 0) & (fs.values < 1)).all()

    def test_rejects_empty_request(self):
        with pytest.raises(InvalidParameter):
            frac_sample(SqrtN(), LOG10, 0)
        with pytest.raises(InvalidParameter, match="n_max .* got 2.5"):
            frac_sample(SqrtN(), LOG10, 2.5)

    def test_two_routes_for_n_pow_n_log(self):
        # direct certified evaluation vs n*log10(n) in multiprecision
        fs = frac_sample(NPowN(), LOG10, 300)
        mp.dps = 45
        ref = np.array([float(mp.frac(n * mp.log10(n)))
                        for n in range(1, 301)])
        mp.dps = 15
        d = np.abs(fs.values - ref)
        assert np.minimum(d, 1.0 - d).max() < 1e-10

    def test_sqrt_of_n_pow_n_exact_iff_even_or_square(self):
        for n in range(1, 61):
            r = eval_transform(NPowN().nth_term(n), SQRT)
            expect = (n % 2 == 0) or (math.isqrt(n) ** 2 == n)
            assert r.exact == expect, n


# sha256 of frac_sample's values, the excluded count and the sample size,
# recorded before the certified path evaluated a whole cell with one
# certifier; each cell takes a different route through it
PINNED_CELLS = [
    ("sqrt_n", LOG10, 10000, False,
     "c9151831ee48e37df20ea86d276f09f18b91b49c65cd6597ce0d23e9bc4e7ec7",
     0, 10000),
    ("pi_n", LOGLOG, 10000, False,
     "88919341833659438e8fca70fa21d3c3dd8711f873be99997ea3f65b3e79fa1d",
     0, 10000),
    ("primes", SQRT, 10000, False,
     "c2430b2f6d0530da8634390a6c0bf4528176643be7d4cd63c5704e5cb2b8dc52",
     0, 10000),
    ("sqrt_n", PI_SQUARE, 10000, False,
     "3522455a91c6253ba2ded665bd77183c92e453a5b16fdd9fb943f06c3bebfb3e",
     0, 10000),
    ("power_law:0.367427", LOG10, 10000, False,
     "f4ed70760e50d277be49fe23ee1bc8ea56d5ed6b24130c08b0ca7d9f5fb81d31",
     0, 10000),
    # the exact q = 2 route of n**(1/2) on perfect squares
    ("power_law:0.5", IDENTITY, 10000, False,
     "2c2a4a85cb4817e943ca0f5a97b919654e6b0a4633a9cbb28e95dd1d31cbbb6e",
     0, 10000),
    # terms that round onto 1 and are regenerated at more bits
    ("power_law:1e-70", LOGLOG, 1000, False,
     "0259291b5803088dd0226313169dda3427e0a698c44a1507d9613d631363bd5a",
     1, 999),
    ("n_pow_n", SQRT, 1000, True,
     "9d46de415d81871cb1ffb85b781d6ac603111a3a1af8cedce9125b612325b063",
     0, 484),
]


@pytest.mark.parametrize(
    "name, transform, n_max, filtered, digest, excluded, size",
    PINNED_CELLS, ids=[f"{c[0]}-{c[1].label()}{'-filtered' * c[3]}"
                       for c in PINNED_CELLS])
def test_cell_fractions_are_pinned(name, transform, n_max, filtered, digest,
                                   excluded, size):
    fs = frac_sample(parse_sequence(name), transform, n_max,
                     index_filter=odd_nonsquare if filtered else None)
    assert (fs.excluded, fs.size) == (excluded, size)
    assert hashlib.sha256(fs.values.tobytes()).hexdigest() == digest


# cells without exclusions, so term n sits at index n - 1
ALONE_CELLS = (("sqrt_n", LOG10), ("pi_n", LOGLOG), ("primes", SQRT),
               ("power_law:0.367427", PI_SQUARE), ("power_law:1/pi", LOG10),
               ("exp_n", LOG10), ("n_pow_n", SQRT))
ALONE_N = 300
_FULL_CELLS = {}


@given(which=st.integers(min_value=0, max_value=len(ALONE_CELLS) - 1),
       n=st.integers(min_value=1, max_value=ALONE_N))
@settings(max_examples=60, deadline=None)
def test_term_alone_equals_term_in_its_cell(which, n):
    # a fresh sequence and certifier for the one term, against the term
    # after every earlier one has passed through the cell's caches
    name, transform = ALONE_CELLS[which]
    full = _FULL_CELLS.get(which)
    if full is None:
        full = _FULL_CELLS[which] = frac_sample(parse_sequence(name),
                                                transform, ALONE_N)
    assert full.excluded == 0
    alone = frac_sample(parse_sequence(name), transform, ALONE_N,
                        index_filter=lambda k: k == n)
    assert alone.size == 1
    assert alone.values[0] == full.values[n - 1]


class TestOddNonsquare:
    def test_count_matches(self):
        assert sum(odd_nonsquare(n) for n in range(1, 1001)) == 484

    def test_examples(self):
        assert odd_nonsquare(3) and odd_nonsquare(5)
        assert not odd_nonsquare(9)  # odd square
        assert not odd_nonsquare(4)  # even


@given(st.integers(min_value=5, max_value=40))
@settings(max_examples=20, deadline=None)
def test_sample_values_stay_in_unit_interval(n_max):
    for seq in (SqrtN(), PiN(), ExpN()):
        for t in (LOG10, SQRT, IDENTITY):
            fs = frac_sample(seq, t, n_max)
            assert ((fs.values >= 0) & (fs.values < 1)).all()
            assert fs.size + fs.excluded == fs.n_requested
