"""Sequence terms, prime generation and sampling."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from ubenford import sequences, transforms
from ubenford.bigreal import BigReal, PrecisionPolicy
from ubenford.errors import InvalidParameter, PrecisionCapExceeded
from ubenford.sequences import (ExpN, Factorial, FracSample, NPowN, PiN,
                                PowerLaw, Primes, Sequence, SqrtN,
                                frac_sample, nth_prime, odd_nonsquare,
                                parse_sequence)
from ubenford.transforms import (IDENTITY, LOG10, LOGLOG, PI_SQUARE, SQRT,
                                 Power, _Certifier, _QUICK_BLOCK,
                                 eval_transform, start_bits)


def exact(x):
    """The rational a BigReal stores, mantissa * 2**exponent."""
    return Fraction(x.mantissa) * Fraction(2) ** x.exponent


def trial_division_primes(count):
    """Independent oracle for the sieve."""
    found = []
    c = 2
    while len(found) < count:
        if all(c % p for p in
               itertools.takewhile(lambda p: p * p <= c, found)):
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

    def test_bucket_edges_against_trial_division(self):
        # each power-of-two count from 16 on is a sieve of its own: the
        # last prime of a count and the first past it, the large counts
        # sieved first so that no smaller one was there before
        sequences._primes.cache_clear()
        want = trial_division_primes(2 ** 14 + 1)
        for k in range(14, 3, -1):
            for n in (2 ** k + 1, 2 ** k):
                assert nth_prime(n) == want[n - 1], n

    @pytest.mark.parametrize("n", [
        np.arange(1000, 1101), np.arange(1, 18), np.arange(1024, 1026),
        np.array([3, 16, 17, 33, 64, 65]), np.array([16])],
        ids=["1000-1100", "1-17", "1024-1025", "sparse", "16"])
    def test_doubles_across_bucket_edges(self, n):
        sequences._primes.cache_clear()
        got = Primes()._doubles(n)
        assert got.tolist() == [float(nth_prime(i)) for i in n.tolist()]


SIZED = [SqrtN(), PiN(), ExpN(), PowerLaw(0.37), PowerLaw(0.5),
         PowerLaw("1/pi"), PowerLaw(33.3)]


def check_int_bits_estimate(seq, n):
    """int_bits_estimate(n) bounds the integer bits of term n from above,
    by at most 2 bits too many."""
    est = seq.int_bits_estimate(n)
    got = seq.nth_term(n, bits=107).integer_bits()
    assert got <= est <= got + 2, (seq.name, n, est, got)


class TestTerms:
    def test_sqrt_n_exactness(self):
        assert SqrtN().nth_term(49, bits=100).exact
        assert exact(SqrtN().nth_term(49, bits=100)) == 7
        x = SqrtN().nth_term(2, bits=100)
        assert not x.exact
        assert abs(float(exact(x)) - math.sqrt(2)) < 1e-15

    def test_pi_n(self):
        x = PiN().nth_term(7, bits=100)
        assert abs(float(exact(x)) - 7 * math.pi) < 1e-13

    def test_exp_n(self):
        x = ExpN().nth_term(100, bits=100)
        assert x.integer_bits() == 145  # 2**144 < e**100 < 2**145
        assert ExpN().int_bits_estimate(100) == 145
        assert abs(float(exact(x)) / math.exp(100) - 1) < 1e-13
        assert ExpN().int_bits_estimate(1000) == 1443  # 1000 log2(e) = 1442.7

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
        assert exact(Factorial().nth_term(10, bits=100)) == 3628800
        assert Factorial().nth_term(10, bits=100).exact
        assert exact(NPowN().nth_term(5, bits=100)) == 3125
        assert exact(Primes().nth_term(4, bits=100)) == 7

    @pytest.mark.parametrize("seq", [Primes(), Factorial(), NPowN()],
                             ids=repr)
    def test_exact_sequences_state_no_size(self, seq):
        # an exact term ignores its bits, so only the base's 0 sizes it
        assert "int_bits_estimate" not in type(seq).__dict__
        assert seq.int_bits_estimate(1000) == 0

    @pytest.mark.parametrize("seq", [Primes(), Factorial(), NPowN(), SqrtN(),
                                     PowerLaw(3.0)], ids=repr)
    def test_exact_terms_ignore_their_bits(self, seq):
        # every n for the exact sequences, the squares for sqrt n
        root = isinstance(seq, SqrtN)
        for n in (k * k if root else k for k in range(1, 61)):
            terms = {(x.mantissa, x.exponent, x.precision, x.exact)
                     for x in (seq.nth_term(n, b) for b in (1, 107, 4096))}
            assert len(terms) == 1 and terms.pop()[3], (seq.name, n)

    def test_int_bits_estimates_match(self):
        for seq in SIZED:
            for n in range(1, 10 ** 4 + 1):
                check_int_bits_estimate(seq, n)


class TestIntBitsEstimate:
    @given(which=st.integers(min_value=0, max_value=len(SIZED) - 1),
           n=st.integers(min_value=1, max_value=10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_sampled_terms(self, which, n):
        seq = SIZED[which]
        check_int_bits_estimate(seq, n % 5000 + 1 if seq.name == "exp_n"
                                else n)

    @given(n=st.integers(min_value=1, max_value=2 ** 100))
    @settings(max_examples=200, deadline=None)
    def test_exp_n_bound_holds_past_the_generated_terms(self, n):
        # e**n has floor(n log2 e) + 1 integer bits; far past 2**64 the
        # rounding of log2 e decides the bound, whatever is generated
        with mp.workprec(n.bit_length() + 128):
            want = int(mp.floor(n / mp.log(2))) + 1
        assert ExpN().int_bits_estimate(n) >= want


class InputLimited(Sequence):
    """Terms whose certified bits never grow with the bits asked for."""

    name = "input_limited"

    def __init__(self):
        self.asked = []

    def nth_term(self, n, bits):
        self.asked.append(bits)
        return BigReal(3 << 28, -28, 30, False)


def test_regeneration_stops_at_the_cap():
    # the term's own 30 bits never grow, so each regeneration evaluates at
    # the same 117 bits, and ten of them reach the 99,658-bit cap
    certifier = _Certifier(LOG10, PrecisionPolicy())
    cap_bits = certifier.cap
    first = start_bits(LOG10, 0, certifier.a)
    seq = InputLimited()
    with pytest.raises(PrecisionCapExceeded) as refusal:
        frac_sample(seq, LOG10, 5)
    asked = seq.asked
    assert len(asked) <= math.ceil(math.log2(cap_bits / first)) + 1
    assert asked == [first << k for k in range(len(asked))]
    assert asked[-1] <= cap_bits < 2 * asked[-1]
    assert str(refusal.value).startswith(
        f"term 1 of input_limited under log10 needs {2 * asked[-1]} bits")


class OneHugeTerm(Sequence):
    """Exact terms n, but term 3 claims more integer bits than the cap."""

    name = "one_huge_term"

    def __init__(self):
        self.asked = []

    def int_bits_estimate(self, n):
        return 10 ** 6 if n == 3 else 1

    def nth_term(self, n, bits):
        self.asked.append(n)
        return BigReal.from_int(n)


def test_a_term_past_the_cap_is_never_generated():
    seq = OneHugeTerm()
    with pytest.raises(PrecisionCapExceeded) as refusal:
        frac_sample(seq, IDENTITY, 5)
    assert seq.asked == [1, 2]
    assert str(refusal.value).startswith(
        f"term 3 of one_huge_term under identity needs "
        f"{start_bits(IDENTITY, 10 ** 6, 40)} bits")
    # the largest term 1..31 of n**20000.3 fits the cap, term 32's bits
    # do not
    with pytest.raises(PrecisionCapExceeded,
                       match=r"^term 32 of power_law\(20000.3\) under "
                             r"identity needs 100093 bits"):
        frac_sample(PowerLaw(20000.3), IDENTITY, 32,
                    index_filter=lambda n: n == 32)


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
        x = PowerLaw(3.0).nth_term(7, bits=100)
        assert x.exact and exact(x) == 343

    def test_half_integer_exact_on_squares(self):
        x = PowerLaw(0.5).nth_term(16, bits=100)
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

    def test_integer_exponent_past_the_cap_takes_the_exp_route(self):
        # n**1e20 is never built: under a 1.5 GB address space the exact
        # route would raise MemoryError, and without one exhaust memory
        code = (
            "import json, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
            "from ubenford.sequences import PowerLaw, frac_sample\n"
            "from ubenford.transforms import LOG10\n"
            "print(json.dumps(frac_sample(PowerLaw(1e20), LOG10, 5)"
            ".values.tolist()))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        got = json.loads(proc.stdout)
        with mp.workprec(300):
            want = [float(mp.frac(mp.mpf(10) ** 20 * mp.log10(n)))
                    for n in range(1, 6)]
        assert max(abs(a - b) for a, b in zip(got, want)) < 2.0 ** -40

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

    @pytest.mark.parametrize("text", ["fibonacci", "power_lawx:2",
                                      "power_lawyer", "power_law_2",
                                      "sqrt_n:2"])
    def test_unknown_names(self, text):
        with pytest.raises(InvalidParameter,
                           match=f"unknown sequence {text!r}"):
            parse_sequence(text)

    def test_unknown(self):
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

    @pytest.mark.parametrize("alpha", [1e-30, 3e-31, 7e-31, 1e-63, 3e-63,
                                       7e-63])
    def test_loglog_of_terms_input_limited_near_one(self, alpha):
        # log10 of n**alpha is about alpha log10 n, so the generated term's
        # own bits, not the working precision, leave the claim short (-5
        # fractional bits on |u| near 31 at n = 2 for 1e-30): the certifier
        # refuses the term for regeneration, where it doubled w to the cap
        fs = frac_sample(PowerLaw(alpha), LOGLOG, 40)
        assert fs.size == 39 and fs.excluded == 1
        with mp.workprec(400):
            for n, got in zip(range(2, 41), fs.values):
                u = mp.log10(mp.log10(mp.mpf(n) ** mp.mpf(alpha)))
                assert abs(got - float(u - mp.floor(u))) < 2.0 ** -40, n

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
            r = eval_transform(NPowN().nth_term(n, bits=100), SQRT)
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
    # recorded while these cells took the per-term route only: the power
    # maps on terms pi**c m**s with no power map of m to compose into
    ("sqrt_n", SQRT, 10000, False,
     "7d8c4c387580a4889821ac60c9090a5e6747f4ad058e3e4b53c13187278022d9",
     0, 10000),
    ("pi_n", SQRT, 10000, False,
     "dd15af03999332cb23deba9f598a7e624240b39cffc045aa756830b3c3822136",
     0, 10000),
    ("pi_n", PI_SQUARE, 10000, False,
     "5424ab590d8969bfdaa7be0534a03a97e2194b93a45b7eed4f477db8bbe24552",
     0, 10000),
    ("power_law:0.613197", SQRT, 10000, False,
     "22d3ce0a5c045f0d14db45a508e7896d6018309c825aef0c836a5b38f8c3c41e",
     0, 10000),
    ("power_law:0.613197", IDENTITY, 10000, False,
     "84e4e6c9aa7eb559ea1c830251e3735d65d0129d30e42370e2537adbe0e132f4",
     0, 10000),
    # recorded while the steep power laws under pi*x**2 took the per-term
    # route only and the sub-linear ones the exp2 route alone
    ("power_law:55.6231", PI_SQUARE, 1000, False,
     "bd3beab7ab597e07e84b0fee4e6a8e19ec3755de6f2a3a265256de02f98ff732",
     0, 1000),
    ("power_law:23.1317", PI_SQUARE, 1000, False,
     "78564701049d14e5eaa93f58329c644048d09a9029d2d2ace23b3317ba9db840",
     0, 1000),
    ("power_law:0.367427", PI_SQUARE, 10000, False,
     "d3944626ec425911485d23a081f6fda74c20dbb6b5bbf3ef0d8f25586f5eca1c",
     0, 10000),
    # recorded while a power map composed with the form pi**c m**s into a
    # power map of m, and the primes' terms took the routes on terms
    ("sqrt_n", IDENTITY, 2000, False,
     "e85e61ca68826a524adb7e374d2e200710ef98e9ce2c68bd467d66c23e42297d",
     0, 2000),
    ("pi_n", IDENTITY, 2000, False,
     "1efb5be555c48858f25ca1488c94bf234f9d834987a127c0cb64230f86ddfa13",
     0, 2000),
    ("primes", IDENTITY, 2000, False,
     "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
     0, 2000),
    ("power_law:1.5", IDENTITY, 2000, False,
     "ed31bad180dd9fa3ec960dd3ab6ecdf3578c98fc6a364da7eec320d8122bd736",
     0, 2000),
    ("power_law:3", SQRT, 2000, False,
     "ed31bad180dd9fa3ec960dd3ab6ecdf3578c98fc6a364da7eec320d8122bd736",
     0, 2000),
    ("power_law:0.5", PI_SQUARE, 2000, False,
     "1efb5be555c48858f25ca1488c94bf234f9d834987a127c0cb64230f86ddfa13",
     0, 2000),
    ("primes", Power(3, pi=True), 2000, False,
     "50911701139577e431aa5f7d9891ff345b0473684d4ecc3a027a785494b4f5ef",
     0, 2000),
    # recorded while a power law whose p alpha is an integer took the
    # exp2 phase and the prime-factor floors under pi*x**p
    ("power_law:1.5", PI_SQUARE, 2000, False,
     "8b83156aba303d44eae4add5aa493c4dd894b256426e29f3ec6fa502a9979266",
     0, 2000),
    # recorded while the roots of the slow rows took the per-term route
    # past their first few terms, and the slow rows took it under x**(3/2)
    # and past the running products under pi*x**3
    ("exp_n", SQRT, 2000, False,
     "e9b34f0c02c70d4b9836ca495f461588ed7522d59bef2c7afc80e20dfb54ea9a",
     0, 2000),
    ("factorial", SQRT, 2000, False,
     "db655c8a53ec38ea7272f5f04527184732d6d4b3b9470e31596ca96ad8153f56",
     0, 2000),
    ("n_pow_n", SQRT, 2000, False,
     "e15d15adfa38d5a767e1c1293e5af21f57cb20987893877343b450bedd3a6680",
     0, 2000),
    ("n_pow_n", SQRT, 2000, True,
     "99719bd2b54ca7df8ec98c880a0b50b49ca5eb62a72dd58e6095f02832411599",
     0, 978),
    ("exp_n", Power(3, 2), 300, False,
     "8dbaa4825e75684dc924571c396df949277c9e21ba6e6e69a11cf7c3151978c0",
     0, 300),
    ("exp_n", Power(3, pi=True), 300, False,
     "40e95b300f2d116c1a62d7e9a192c487add4a78169eb9db75195dc8a34451cdd",
     0, 300),
    ("factorial", Power(3, 2), 300, False,
     "809355d5d40fcb0b7578a05abba81cebbede281c917ff1a37dc895c399bb5444",
     0, 300),
    ("factorial", Power(3, pi=True), 300, False,
     "c14a5846ad95be7162f19288084b0180de65eeaf5b2c301dd2a5fcaf1bbd0c8b",
     0, 300),
    ("n_pow_n", Power(3, 2), 300, False,
     "b6fcadedc07b506d1dd471d00aa24c85f8cbe7695845693c3f9f1615b526187d",
     0, 300),
    ("n_pow_n", Power(3, pi=True), 300, False,
     "c1c3cbe2abc3a214c7bc1d49807345defbdbb7b1cd004023fa3c28292425de0a",
     0, 300),
]


def _pinned_ids(cells):
    """sequence-transform, -filtered for a filtered cell, and -n<n_max>
    where that id is already taken by an earlier cell."""
    ids = []
    for name, transform, n_max, filtered, *_ in cells:
        i = f"{name}-{transform.label()}{'-filtered' * filtered}"
        ids.append(f"{i}-n{n_max}" if i in ids else i)
    return ids


@pytest.mark.parametrize(
    "name, transform, n_max, filtered, digest, excluded, size",
    PINNED_CELLS, ids=_pinned_ids(PINNED_CELLS))
def test_cell_fractions_are_pinned(name, transform, n_max, filtered, digest,
                                   excluded, size):
    fs = frac_sample(parse_sequence(name), transform, n_max,
                     index_filter=odd_nonsquare if filtered else None)
    assert (fs.excluded, fs.size) == (excluded, size)
    assert hashlib.sha256(fs.values.tobytes()).hexdigest() == digest


# the same digest at 40 and 80 agreement bits, recorded while the width
# generated the end terms of each run of terms at the same bits, and e**n
# took the per-term route under pi*x**2 past its first few terms
PINNED_POLICY_CELLS = [
    ("power_law:55.6231",
     "54ed12df9f1ebb3deb38d661093256e417a1f1ee08b23672613265d370f98511"),
    ("power_law:23.1317",
     "e01e4b803333ac72b264752d94ad0b8baed01151d30bce60ff51a318b2c89bb9"),
    ("exp_n",
     "a5cdf558eef278b7600a7141c12cefdf653e9fab7237f3a367c86181cefc496f"),
]


@pytest.mark.parametrize("agreement", [12, 24], ids=["a40", "a80"])
@pytest.mark.parametrize("name, digest", PINNED_POLICY_CELLS,
                         ids=[c[0] for c in PINNED_POLICY_CELLS])
def test_pi_square_cells_are_pinned_at_both_widths(name, digest, agreement):
    fs = frac_sample(parse_sequence(name), PI_SQUARE, 2000,
                     PrecisionPolicy(agreement=agreement))
    assert (fs.excluded, fs.size) == (0, 2000)
    assert hashlib.sha256(fs.values.tobytes()).hexdigest() == digest


# the 24 table1 cells and the seeded power laws of the sequence
# benchmark's seeds 1-3: the dense ones under log10, sqrt and the
# identity, the steep ones under pi*x**2 and log10
_FAST = ("sqrt_n", "pi_n", "primes")
TABLE1_CELLS = [(s, t, 10000 if s in _FAST else 1000)
                for s in _FAST + ("exp_n", "factorial", "n_pow_n")
                for t in (LOGLOG, LOG10, SQRT, PI_SQUARE)]
SEEDED_CELLS = [
    (f"power_law:{c}", t, 10000)
    for c in (0.367427, 0.613197, 0.316098, 0.897527, 0.309838, 0.6281)
    for t in (LOG10, SQRT, IDENTITY)] + [
    (f"power_law:{c}", t, 1000)
    for c in (23.1317, 39.2621, 55.6231, 25.0508, 41.635, 48.5529, 27.8995,
              46.3059, 47.4929)
    for t in (PI_SQUARE, LOG10)]

# pinned cells off the benchmark whose terms once took a power map of m
# that u composed into on the form pi**c m**s, or the prime-factor floors
# where p alpha is an integer; the primes take the doubles' routes; and
# the slow rows under x**(3/2), whose integer phase is sqrt's
REROUTED_CELLS = [
    ("sqrt_n", IDENTITY, 2000), ("pi_n", IDENTITY, 2000),
    ("primes", IDENTITY, 2000), ("power_law:1.5", IDENTITY, 2000),
    ("power_law:3", SQRT, 2000), ("power_law:0.5", PI_SQUARE, 2000),
    ("primes", Power(3, pi=True), 2000), ("power_law:1.5", PI_SQUARE, 2000),
    ("exp_n", Power(3, 2), 300), ("factorial", Power(3, 2), 300),
    ("n_pow_n", Power(3, 2), 300)]
# the benchmark's odd non-square rerun of n**n under sqrt
FILTERED_CELLS = [("n_pow_n", SQRT, 1000, odd_nonsquare)]
HANDED_OUT_CELLS = [(*c, None) for c in
                    TABLE1_CELLS + SEEDED_CELLS + REROUTED_CELLS] \
    + FILTERED_CELLS


# the fewest terms each cell's quick routes hand out: the primes, exact
# doubles, through the doubles' routes (none under the identity); every
# log of every other sequence, which states ln x_n (n! from n = 16 on;
# n**n under log10 all but the terms 1, 10**10, 100**100 and 1000**1000,
# whose logs are integers, and one near a cell edge); the one route on
# the indices for the power-map cells: its exp2 phase up to u = 2**23.2
# (sqrt_n, pi_n and the power laws below the cut), its integer phase for
# sqrt_n (pi n), pi_n, e**n and n! under pi*x**2, for e**n, n! and n**n
# under sqrt and x**(3/2) (all but n! = 1 and n**n at an odd square n,
# exact roots the phase does not mark), and for the power laws under
# pi*x**2, past the cut (the steep ones from their second term on), the
# floors on every term it leaves. n**n under pi*x**2 takes the per-term
# route but for its first terms. The width is a floor on the per-term
# route's first claims from what the sequence states, taken on each run
# of terms generated at the same bits.
ROUTED = {
    "sqrt_n-loglog": 9998, "sqrt_n-log10": 9995, "sqrt_n-sqrt": 9990,
    "sqrt_n-pi_square": 9970, "pi_n-loglog": 10000, "pi_n-log10": 10000,
    "pi_n-sqrt": 10000, "pi_n-pi_square": 9929, "primes-loglog": 10000,
    "primes-log10": 10000, "primes-sqrt": 10000, "primes-pi_square": 9984,
    "exp_n-loglog": 1000, "exp_n-log10": 1000, "exp_n-sqrt": 987,
    "exp_n-pi_square": 981, "factorial-loglog": 985, "factorial-log10": 985,
    "factorial-sqrt": 998, "factorial-pi_square": 998, "n_pow_n-loglog": 998,
    "n_pow_n-log10": 995, "n_pow_n-sqrt": 981, "n_pow_n-pi_square": 2,
    "power_law:0.367427-log10": 9995, "power_law:0.367427-sqrt": 9998,
    "power_law:0.367427-identity": 9999, "power_law:0.613197-log10": 9995,
    "power_law:0.613197-sqrt": 9998, "power_law:0.613197-identity": 9995,
    "power_law:0.316098-log10": 9995, "power_law:0.316098-sqrt": 9999,
    "power_law:0.316098-identity": 9999, "power_law:0.897527-log10": 9995,
    "power_law:0.897527-sqrt": 9999, "power_law:0.897527-identity": 9959,
    "power_law:0.309838-log10": 9995, "power_law:0.309838-sqrt": 9999,
    "power_law:0.309838-identity": 9998, "power_law:0.6281-log10": 9995,
    "power_law:0.6281-sqrt": 9999, "power_law:0.6281-identity": 9997,
    "power_law:23.1317-pi_square": 996, "power_law:23.1317-log10": 996,
    "power_law:39.2621-pi_square": 994, "power_law:39.2621-log10": 996,
    "power_law:55.6231-pi_square": 996, "power_law:55.6231-log10": 996,
    "power_law:25.0508-pi_square": 997, "power_law:25.0508-log10": 996,
    "power_law:41.635-pi_square": 996, "power_law:41.635-log10": 996,
    "power_law:48.5529-pi_square": 1000, "power_law:48.5529-log10": 996,
    "power_law:27.8995-pi_square": 998, "power_law:27.8995-log10": 996,
    "power_law:46.3059-pi_square": 996, "power_law:46.3059-log10": 996,
    "power_law:47.4929-pi_square": 997, "power_law:47.4929-log10": 996,
    "sqrt_n-identity": 1956, "pi_n-identity": 1991, "primes-identity": 0,
    "power_law:1.5-identity": 1818, "power_law:3-sqrt": 1813,
    "power_law:0.5-pi_square": 1988, "primes-pi*x**3": 1999,
    "power_law:1.5-pi_square": 1992, "exp_n-x**(3/2)": 288,
    "factorial-x**(3/2)": 299, "n_pow_n-x**(3/2)": 291,
    "n_pow_n-sqrt-filtered": 481}


def _cell_id(name, transform, keep=None):
    return f"{name}-{transform.label()}{'-filtered' * (keep is not None)}"


@pytest.mark.parametrize("name, transform, n_max, keep", HANDED_OUT_CELLS,
                         ids=[_cell_id(c[0], c[1], c[3])
                              for c in HANDED_OUT_CELLS])
def test_handed_out_terms_are_the_per_term_routes(name, transform, n_max,
                                                  keep):
    # each block's quick phase against the per-term route, term by term,
    # on the indices the cell's filter keeps; every cell hands out at
    # least its count in ROUTED
    seq = parse_sequence(name)
    certifier = _Certifier(transform, PrecisionPolicy())
    handed = 0
    for lo in range(1, n_max + 1, _QUICK_BLOCK):
        n = np.array([k for k in range(lo, min(lo + _QUICK_BLOCK, n_max + 1))
                      if keep is None or keep(k)], dtype=np.int64)
        got = np.zeros(n.size)
        mask = certifier._hand_out_terms(seq, n, got)
        want = [certifier._term_frac(seq, k) for k in n[mask].tolist()]
        assert got[mask].tobytes() == np.array(want).tobytes()
        handed += int(mask.sum())
    assert handed >= ROUTED[_cell_id(name, transform, keep)]


@pytest.mark.parametrize("transform", [IDENTITY, SQRT, PI_SQUARE, LOG10,
                                       LOGLOG], ids=lambda t: t.label())
def test_inv_pi_terms_are_the_per_term_routes(transform):
    # n**(1/pi), which states ln n / pi and no form: the exp2 route under
    # the power maps, ln x_n over ln b under the logs; all but the term 1
    seq, n = parse_sequence("power_law:1/pi"), np.arange(1, 1001)
    certifier = _Certifier(transform, PrecisionPolicy())
    got = np.zeros(n.size)
    mask = certifier._hand_out_terms(seq, n, got)
    want = [certifier._term_frac(seq, k) for k in n[mask].tolist()]
    assert got[mask].tobytes() == np.array(want).tobytes()
    assert mask.sum() >= 990 and not mask[0]


def _hand_outs(seq, transform, n_max):
    """The mask of the terms n = 1..n_max that the quick routes hand out,
    block by block."""
    certifier = _Certifier(transform, PrecisionPolicy())
    masks = []
    for lo in range(1, n_max + 1, _QUICK_BLOCK):
        n = np.arange(lo, min(lo + _QUICK_BLOCK, n_max + 1))
        masks.append(certifier._hand_out_terms(seq, n, np.zeros(n.size)))
    return np.concatenate(masks)


def test_integer_p_alpha_takes_the_forms_floors_alone():
    # power_law:0.5 under pi*x**2 is pi n, as sqrt_n's terms are: the
    # form's integer phase takes every term alone, with no exp2 phase and
    # no prime-factor floors, and A_n is the same on every block
    law, root = PowerLaw(0.5), SqrtN()
    assert not law._dear_floors(2) and law._dear_floors(3)
    assert PowerLaw(23.1317)._dear_floors(2)
    assert not PowerLaw("1/pi")._dear_floors(2)
    for seq in (law, root):
        route = transforms._OnTerms(PI_SQUARE, seq)
        assert route._quick_range is None and route._integer_route
    n = np.arange(1, 10001)
    assert law._power_floors(2, 1, True)(n)[0].tolist() == \
        root._power_floors(2, 1, True)(n)[0].tolist()
    fs_law = frac_sample(law, PI_SQUARE, 10000)
    fs_root = frac_sample(root, PI_SQUARE, 10000)
    assert fs_law.values.tobytes() == fs_root.values.tobytes()
    # the hand-outs differ only through the width, which each sequence's
    # own per-term terms set: sqrt_n's claim one bit fewer past n = 4,096
    handed_law = _hand_outs(law, PI_SQUARE, 10000)
    handed_root = _hand_outs(root, PI_SQUARE, 10000)
    assert (handed_law.sum(), handed_root.sum()) == (9980, 9970)
    assert np.all(handed_law[:4096] == handed_root[:4096])
    assert np.all(handed_law >= handed_root)


@pytest.mark.parametrize("alpha", ["23.1317", "55.6231"])
def test_steep_power_laws_generate_fewer_terms_than_the_per_term_route(
        alpha, monkeypatch):
    # pi n**(2 alpha) lies past the exp2 route's cut from n = 2 on; the
    # integer phase's floors take every term it leaves, and the width
    # generates none
    calls = []
    nth_term = PowerLaw.nth_term
    monkeypatch.setattr(PowerLaw, "nth_term", lambda self, n, bits: (
        calls.append(n), nth_term(self, n, bits))[1])
    seq = parse_sequence(f"power_law:{alpha}")
    frac_sample(seq, PI_SQUARE, 1000)
    cell = len(calls)
    calls.clear()
    certifier = _Certifier(PI_SQUARE, PrecisionPolicy())
    for k in range(1, 1001):
        certifier._term_frac(seq, k)
    assert cell < len(calls) == 1000


def _exp_precisions(monkeypatch):
    """The list that records the precision of every exp_fixed call a
    power law makes, its terms' and its floors'."""
    asked = []
    exp_fixed = sequences.exp_fixed
    monkeypatch.setattr(sequences, "exp_fixed", lambda x, prec: (
        asked.append(prec), exp_fixed(x, prec))[1])
    return asked


def test_floors_stop_at_the_cap(monkeypatch):
    # n**20000.3 under pi*x**2: term 2 lies past the exp2 route's cut and
    # within half the cap, and the floors take it, one exp for the prime
    # 2; term 3 on is past half the cap, terms 3 to 5 take the per-term
    # route, one exp each at its own bits, and term 6 is refused as before
    asked = _exp_precisions(monkeypatch)
    with pytest.raises(PrecisionCapExceeded,
                       match=r"^term 6 of power_law\(20000.3\) under "
                             r"pi_square needs 103496 bits, past the cap"):
        frac_sample(PowerLaw(20000.3), PI_SQUARE, 32)
    assert len(asked) == 4
    assert max(asked) <= _Certifier(PI_SQUARE, PrecisionPolicy()).cap


def test_floors_take_every_term_the_exp2_phase_leaves(monkeypatch):
    # n**3000.3 under pi*x**2: every term past the first lies past the
    # exp2 route's cut, each at bits of its own, and within half the cap;
    # the floors take them all, one exp per prime at the block's bits
    # where the per-term route takes one per term, and the width on each
    # term's own bits leaves none to the per-term route
    asked = _exp_precisions(monkeypatch)
    seq, n = PowerLaw(3000.3), np.arange(1, 13)
    certifier = _Certifier(PI_SQUARE, PrecisionPolicy())
    got = np.zeros(n.size)
    mask = certifier._hand_out_terms(seq, n, got)
    assert len(asked) == 5 and len(set(asked)) == 1  # 2, 3, 5, 7 and 11
    assert mask.all()
    want = [certifier._term_frac(seq, k) for k in n.tolist()]
    assert got.tobytes() == np.array(want).tobytes()


def _omega(n):
    """The prime factors of n counted with multiplicity."""
    count, q = 0, 2
    while q * q <= n:
        while n % q == 0:
            n, count = n // q, count + 1
        q += 1
    return count + (n > 1)


_PRIMES_2000 = [n for n in range(2, 2001) if _omega(n) == 1]
_PRIME_POWERS_2000 = sorted(q ** k for q in _PRIMES_2000
                            for k in range(2, 11) if q ** k <= 2000)
_MANY_FACTORS_2000 = [n for n in range(2, 2001) if _omega(n) >= 9]


@given(alpha=st.one_of(st.floats(0.2, 60.0),
                       st.integers(2, 480).map(lambda k: k / 8)),
       p=st.sampled_from([1, 2, 3]),
       top=st.one_of(st.sampled_from(_MANY_FACTORS_2000),
                     st.one_of(st.sampled_from(_PRIMES_2000),
                               st.sampled_from(_PRIME_POWERS_2000),
                               st.integers(1, 2000))),
       rest=st.lists(st.one_of(st.sampled_from(_PRIMES_2000),
                               st.sampled_from(_PRIME_POWERS_2000),
                               st.sampled_from(_MANY_FACTORS_2000),
                               st.integers(1, 2000)), max_size=12))
@example(alpha=13.25, p=1, top=768, rest=[])
@settings(max_examples=300, deadline=None)
def test_power_law_floors_against_mpmath(alpha, p, top, rest):
    # pi n**(p alpha) 2**120 lies in (A_n - 1, A_n + 2), so its floor is
    # A_n - 1, A_n or A_n + 1; the block's largest n sets the bits, so
    # half the time it is drawn among the n with nine prime factors or
    # more (768 = 2**8 3 at alpha = 13.25 misses by 2 units when the
    # count of factors is left out of the bits)
    n = sorted({top, *(k for k in rest if k < top)})
    floors, exact = PowerLaw(alpha)._power_floors(p, 1, True)(
        np.array(n, dtype=np.int64))
    assert exact is None
    for k, a in zip(n, floors):
        with mp.workprec(int(p * alpha * math.log2(k)) + 200):
            v = mp.pi * mp.power(k, p * mp.mpf(alpha)) * mp.mpf(2) ** 120
            assert int(mp.floor(v)) - a in (-1, 0, 1), k


# (sequence, p): the forms' integer phases, sqrt_n at even p and pi_n at
# p up to 3; and none, sqrt_n at odd p and the sequences with neither a
# form nor floors of their own
FORM_FLOOR_CASES = [("sqrt_n", 2), ("sqrt_n", 4), ("sqrt_n", 6),
                    ("pi_n", 1), ("pi_n", 2), ("pi_n", 3)]
NO_FLOOR_CASES = [("sqrt_n", 1), ("sqrt_n", 3), ("sqrt_n", 5)] + [
    (name, p) for name in ("primes", "n_pow_n", "power_law:1/pi")
    for p in (1, 2, 3)]


@given(case=st.one_of(st.sampled_from(FORM_FLOOR_CASES),
                      st.sampled_from(NO_FLOOR_CASES)),
       top=st.one_of(st.integers(1, 10 ** 5),
                     st.integers(2 ** 31 - 2 ** 10, 2 ** 31 + 2 ** 10)),
       rest=st.lists(st.integers(1, 2 ** 12), max_size=12))
@settings(max_examples=300, deadline=None)
def test_form_floors_against_mpmath(case, top, rest):
    # the integer phase a form pi**c n**s states where e = s p is an
    # integer, pi**(c p + 1) n**e: pi**(c p + 1) n**e 2**120 lies in (A_n
    # - 1, A_n + 2) on a block of n up to top, whose largest n sets the
    # bits; none for sqrt_n at an odd p, nor for a sequence without a form
    name, p = case
    seq = parse_sequence(name)
    floors = seq._power_floors(p, 1, True)
    if case in NO_FLOOR_CASES:
        assert floors is None
        return
    s, c = seq.form
    e = int(s * p)
    n = sorted({top, *(top - d for d in rest if d < top)})
    a_n, exact = floors(np.array(n, dtype=np.int64))
    assert exact is None
    for k, a in zip(n, a_n):
        with mp.workprec(32 * e + 300):
            v = mp.pi ** (c * p + 1) * mp.mpf(k) ** e * mp.mpf(2) ** 120
            assert int(mp.floor(v)) - a in (-1, 0, 1), k


@given(p=st.sampled_from([2, 3]), top=st.integers(2, 5000),
       rest=st.lists(st.integers(2, 5000), max_size=8))
@example(p=3, top=5000, rest=[2, 4999])
@settings(max_examples=40, deadline=None)
def test_exp_n_floors_against_mpmath(p, top, rest):
    # the running product's pi e**(p n) 2**120 lies in (A_n - 1, A_n + 2)
    # on a block of n past 1 up to top, whose largest n sets the bits
    n = sorted({top, *(k for k in rest if k < top)})
    floors, exact = ExpN()._power_floors(p, 1, True)(
        np.array(n, dtype=np.int64))
    assert exact is None
    with mp.workprec(int(p * top * 1.45) + 300):
        for k, a in zip(n, floors):
            v = mp.pi * mp.exp(p * k) * mp.mpf(2) ** 120
            assert int(mp.floor(v)) - a in (-1, 0, 1), k


def _true_root(name, p, k):
    """x_k**(p/2) for e**n, n! and n**n, in mpmath (the caller sets the
    precision)."""
    if name == "exp_n":
        return mp.exp(mp.mpf(p * k) / 2)
    x = math.factorial(k) if name == "factorial" else k ** k
    return mp.sqrt(mp.mpf(x) ** p)


@given(name=st.sampled_from(["exp_n", "factorial", "n_pow_n"]),
       p=st.sampled_from([1, 3]), top=st.integers(1, 3000),
       rest=st.lists(st.integers(1, 3000), max_size=8))
@example(name="exp_n", p=3, top=3000, rest=[1, 2, 2999])
@example(name="n_pow_n", p=1, top=9, rest=[1, 2, 3, 4])
@settings(max_examples=60, deadline=None)
def test_root_floors_against_mpmath(name, p, top, rest):
    # the integer phase under x**(p/2) on a block of n up to top, whose
    # largest n sets e**n's bits: x_n**(p/2) 2**120 lies in (A_n - 1, A_n +
    # 2), and is A_n itself where the phase marks it exact
    n = sorted({top, *(k for k in rest if k < top)})
    floors, exact = parse_sequence(name)._power_floors(p, 2, False)(
        np.array(n, dtype=np.int64))
    if exact is None:
        exact = [False] * len(n)
    bits = max(p * top * 2, p * int(math.lgamma(top + 1) * 1.45),
               p * top * top.bit_length())
    with mp.workprec(bits + 300):
        for k, a, is_exact in zip(n, floors, exact):
            v = _true_root(name, p, k) * mp.mpf(2) ** 120
            if is_exact:
                assert v == a, k
            else:
                assert a - 1 < v < a + 2, k


@pytest.mark.parametrize("agreement, cap", [(24, 30000), (25, 30000),
                                           (12, 64)],
                         ids=["a80", "a84", "cap64"])
@pytest.mark.parametrize("name, transform", [
    ("primes", SQRT), ("primes", PI_SQUARE), ("sqrt_n", PI_SQUARE),
    ("pi_n", LOG10), ("power_law:0.5", LOGLOG), ("sqrt_n", SQRT),
    ("pi_n", PI_SQUARE), ("power_law:0.613197", SQRT),
    ("power_law:0.613197", IDENTITY), ("exp_n", PI_SQUARE),
    ("power_law:55.6231", PI_SQUARE)])
def test_handed_out_terms_under_other_policies(agreement, cap, name,
                                               transform, monkeypatch):
    # 80 agreement bits hand out against the widest width; 84 and a cap
    # one doubling would pass hand nothing out
    monkeypatch.setattr(transforms, "_CAP_DIGITS", cap)
    seq = parse_sequence(name)
    certifier = _Certifier(transform, PrecisionPolicy(agreement))
    n = np.arange(1, 1500)
    got = np.zeros(n.size)
    mask = certifier._hand_out_terms(seq, n, got)
    want = [certifier._term_frac(seq, k) for k in n[mask].tolist()]
    assert got[mask].tobytes() == np.array(want).tobytes()
    assert mask.mean() > 0.9 if agreement == 24 else not mask.any()


def _first_claim(certifier, seq, n):
    """The bits the per-term route's first evaluation of term n claims,
    -1 for none."""
    t, a = certifier.transform, certifier.a
    x = seq.nth_term(n, start_bits(t, seq.int_bits_estimate(n), a))
    r = t._eval_at(x, start_bits(t, x.integer_bits(), a))
    return -1 if r is None else r.precision - r.integer_bits()


@pytest.mark.parametrize("name", [
    "sqrt_n", "pi_n", "exp_n", "factorial", "n_pow_n", "power_law:0.367427",
    "power_law:55.6231", "power_law:3", "power_law:1/pi"])
def test_log2_term_and_exactness_are_what_the_terms_are(name):
    # the certifier's width reads these in place of the terms: log2 x_n
    # within 2**-45 of it relatively, and a term stated exact is exact
    seq = parse_sequence(name)
    for n in (1, 2, 3, 10, 99, 1000, 4097):
        x = seq.nth_term(n, 300)
        assert x.exact or not seq._exact_term(n)
        with mp.workprec(400):
            want = mp.log(mp.mpf(x.mantissa) * mp.mpf(2) ** x.exponent, 2)
            assert abs(seq._log2_term(n) - want) <= 2.0 ** -45 * want, n


def _claim_bits(width):
    return -math.log2(width)


# two blocks of each cell from the first index its quick routes take
# (n! under the logs from n = 16), and the doubles' ends
WIDTH_CASES = [
    ("sqrt_n", PI_SQUARE, 1), ("pi_n", SQRT, 1), ("pi_n", PI_SQUARE, 1),
    ("power_law:0.613197", SQRT, 1)] + [
    (name, PI_SQUARE, 1)
    for name in ("exp_n", "factorial", "n_pow_n", "power_law:55.6231")] + [
    ("exp_n", SQRT, 1), ("n_pow_n", SQRT, 1), ("exp_n", LOGLOG, 1),
    ("factorial", LOG10, 16), ("factorial", LOGLOG, 16),
    ("n_pow_n", LOGLOG, 2), ("sqrt_n", LOGLOG, 2), ("pi_n", LOG10, 1)]


@pytest.mark.parametrize("policy", [PrecisionPolicy(),
                                    PrecisionPolicy(agreement=24)],
                         ids=["a40", "a80"])
@pytest.mark.parametrize(
    "name, transform, first", WIDTH_CASES,
    ids=[f"{c[0]}-transform{i}" for i, c in enumerate(WIDTH_CASES[:4])]
    + [f"{c[0]}-{c[1].label()}" for c in WIDTH_CASES[4:]])
def test_term_width_is_the_fewest_claim_of_the_block(policy, name,
                                                     transform, first):
    # the width is a floor on the per-term route's first claims from what
    # the sequence states, with no term generated: at most every claim of
    # the block, and, taken on each run of terms at the same bits, the
    # fewest itself under the power maps and at most 2 bits below it under
    # the logs
    seq = parse_sequence(name)
    certifier = _Certifier(transform, policy)
    slack = 0 if isinstance(transform, Power) else 2
    for lo in (first, first + 1024):
        n = np.arange(lo, lo + 1024)
        claims = [_first_claim(certifier, seq, k) for k in n.tolist()]
        width = certifier._term_width(seq, n)
        assert width is not None
        assert min(claims) - slack <= _claim_bits(width) <= min(claims)


@pytest.mark.parametrize("agreement", [12, 24], ids=["a40", "a80"])
@pytest.mark.parametrize("transform", [LOG10, LOGLOG, SQRT, PI_SQUARE],
                         ids=lambda t: t.label())
def test_doubles_width_is_the_fewest_claim_of_the_ends(transform,
                                                      agreement):
    # the doubles' width against certify's first claims at the ends of
    # what the quick routes take, and at every power of two between
    certifier = _Certifier(transform, PrecisionPolicy(agreement))
    ends = (0.0, math.ldexp(1.0 - 2.0 ** -53, certifier._quick_int_bits)) \
        if transform._integer_route else transform._quick_range
    xs = [v for v in list(ends) + [2.0 ** k for k in range(-1022, 1024)]
          if ends[0] <= v <= ends[1]]
    claims = []
    for v in xs:
        x = BigReal.from_float(v)
        r = transform._eval_at(x, start_bits(transform, x.integer_bits(),
                                             certifier.a))
        claims.append(r.precision - r.integer_bits())
    fewest = min(claims[:2])
    assert fewest - 8 <= _claim_bits(certifier._quick_width) <= min(claims)


# cells without exclusions, so term n sits at index n - 1
ALONE_CELLS =(("sqrt_n", LOG10), ("pi_n", LOGLOG), ("primes", SQRT),
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


@pytest.mark.parametrize("name", ["primes", "sqrt_n", "power_law:0.5"])
def test_a_block_the_filter_empties(name):
    # the filter leaves the first block of indices empty and one term in
    # the second, which a quick route hands out
    full = frac_sample(parse_sequence(name), LOG10, 5000)
    one = frac_sample(parse_sequence(name), LOG10, 5000,
                      index_filter=lambda k: k == 4500)
    assert (one.size, one.excluded, one.n_requested) == (1, 0, 1)
    assert one.values[0] == full.values[4499]


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
