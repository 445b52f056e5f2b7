"""Property tests of the binary fixed-point core against mpmath.

transform_frac must agree with an independent mpmath evaluation of the same
value to 1e-12, measured as wrapped distance on the circle [0, 1), under
every named transform: for exact integers up to 10**3000, for exact doubles
over +-300 decades, and for the inexact terms of every sequence at
n <= 1000 (taken through frac_sample, so input regeneration is covered).
The same checks run over power maps drawn from every accepted (p, q, pi)
with p <= 7.

eval_transform accepts a result on the strength of its claimed precision
alone, so the claim of every `_eval_at` is checked too: the result must lie
within 2**-F of the true u(x), F being the fractional bits it claims, at
the working precision eval_transform starts from and at twice and four
times that.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from ubenford.bigreal import DEFAULT_POLICY, BigReal
from ubenford.errors import DomainError
from ubenford.kernels import digits_to_bits
from ubenford.sequences import ExpN, PiN, PowerLaw, SqrtN, frac_sample
from ubenford.transforms import (IDENTITY, LOG2, LOG10, LOGLOG, PI_SQUARE,
                                 SQRT, Log, Power, _policy_bits,
                                 eval_transform, start_bits, transform_frac)

TOL = 1e-12
TRANSFORMS = (IDENTITY, LOG10, LOG2, LOGLOG, SQRT, PI_SQUARE)


def wrapped(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def u_mp(transform, x):
    """u(x) in mpmath, at the working precision in force."""
    if isinstance(transform, Power):
        u = x ** transform.p
        u = mp.sqrt(u) if transform.q == 2 else u
        return mp.pi * u if transform.pi else u
    if transform == LOGLOG:
        return mp.log10(mp.log10(x))
    return mp.log(x) / mp.log(transform.base)


def mp_frac(make_x, transform, lg):
    """{u(x)} in mpmath; `lg` bounds log10 of x from above."""
    int_digits = (transform.p * lg / transform.q + 1
                  if isinstance(transform, Power) else 10)
    with mp.workdps(int(max(lg, int_digits, 0)) + 40):
        u = u_mp(transform, make_x())
        return float(u - mp.floor(u))


@st.composite
def powers(draw):
    """An accepted Power: p/q in lowest terms, q in (1, 2), pi only with
    q = 1."""
    q = draw(st.sampled_from((1, 2)))
    p = draw(st.integers(min_value=1, max_value=7).filter(
        lambda p: q == 1 or p % 2))
    return Power(p, q, q == 1 and draw(st.booleans()))


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.label())
@given(n=st.integers(min_value=2, max_value=10 ** 3000))
@settings(max_examples=25, deadline=None)
def test_exact_integers(transform, n):
    got = transform_frac(BigReal.from_int(n), transform)
    want = mp_frac(lambda: mpf(n), transform, n.bit_length() * 0.302 + 1)
    assert wrapped(got, want) < TOL


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.label())
@given(m=st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
       decade=st.integers(min_value=-300, max_value=299))
@settings(max_examples=200, deadline=None)
def test_exact_doubles(transform, m, decade):
    check_exact_double(transform, m, decade)


@given(power=powers(),
       m=st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
       decade=st.integers(min_value=-300, max_value=299))
@settings(max_examples=100, deadline=None)
def test_power_maps_exact_doubles(power, m, decade):
    check_exact_double(power, m, decade)


def check_exact_double(transform, m, decade):
    v = m * 10.0 ** decade
    x = BigReal.from_float(v)
    if transform == LOGLOG and v <= 1.0:
        with pytest.raises(DomainError):
            transform_frac(x, transform)
        return
    got = transform_frac(x, transform)
    want = mp_frac(lambda: mpf(v), transform, decade + 1)
    assert wrapped(got, want) < TOL


SEQUENCE_TERMS = (
    (SqrtN(), lambda n: mp.sqrt(n), lambda n: 0.5 * math.log10(n)),
    (PiN(), lambda n: mp.pi * n, lambda n: math.log10(n) + 0.5),
    (ExpN(), lambda n: mp.exp(n), lambda n: n * 0.4343),
    (PowerLaw("1/pi"), lambda n: mpf(n) ** (1 / mp.pi),
     lambda n: 0.32 * math.log10(n)),
    (PowerLaw(0.37), lambda n: mpf(n) ** mpf(0.37),
     lambda n: 0.37 * math.log10(n)),
    (PowerLaw(23.7), lambda n: mpf(n) ** mpf(23.7),
     lambda n: 23.7 * math.log10(n)),
)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.label())
@given(which=st.integers(min_value=0, max_value=len(SEQUENCE_TERMS) - 1),
       n=st.integers(min_value=2, max_value=1000))
@settings(max_examples=150, deadline=None)
def test_inexact_sequence_terms(transform, which, n):
    check_sequence_term(transform, which, n)


@given(power=powers(),
       which=st.integers(min_value=0, max_value=len(SEQUENCE_TERMS) - 1),
       n=st.integers(min_value=2, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_power_maps_inexact_sequence_terms(power, which, n):
    check_sequence_term(power, which, n)


def check_sequence_term(transform, which, n):
    seq, term, log10_of = SEQUENCE_TERMS[which]
    sample = frac_sample(seq, transform, n, index_filter=lambda k: k == n)
    want = mp_frac(lambda: term(n), transform, log10_of(n) + 1)
    assert sample.size == 1
    assert wrapped(float(sample.values[0]), want) < TOL


# ---------------------------------------------------------------------------
# the bits each evaluator claims

EVALUATORS = (LOG10, LOG2, Log(7), LOGLOG, SQRT, PI_SQUARE)
AGREEMENT_BITS = _policy_bits(DEFAULT_POLICY)[0]


def claim_error(r, transform, make_x, x_bits):
    """(|r - u(x)|, 2**-F) for the F fractional bits r claims; make_x
    builds the true input in mpmath, x_bits bounds its bit length."""
    claimed = r.precision - r.integer_digits()
    with mp.workprec(max(r.mantissa.bit_length(), x_bits) + 64):
        value = mp.ldexp(mpf(r.mantissa), r.exponent)
        return abs(value - u_mp(transform, make_x())), mp.ldexp(1, -claimed)


@pytest.mark.parametrize("scale", (1, 2, 4))
@pytest.mark.parametrize("transform", EVALUATORS, ids=lambda t: t.label())
@given(n=st.integers(min_value=2, max_value=10 ** 3000))
@settings(max_examples=25, deadline=None)
def test_claimed_bits_exact_integers(transform, scale, n):
    check_claim_exact(transform, scale, n)


@pytest.mark.parametrize("scale", (1, 2, 4))
@given(power=powers(), n=st.integers(min_value=2, max_value=10 ** 300))
@settings(max_examples=25, deadline=None)
def test_power_maps_claimed_bits_exact_integers(power, scale, n):
    check_claim_exact(power, scale, n)


def check_claim_exact(transform, scale, n):
    x = BigReal.from_int(n)
    w = start_bits(transform, x.integer_digits(), AGREEMENT_BITS)
    r = transform._eval_at(x, scale * w, transform._constants(scale * w))
    err, bound = claim_error(r, transform, lambda: mpf(n), n.bit_length())
    assert err <= bound


INEXACT_TERMS = (
    (SqrtN(), lambda n: mp.sqrt(n)),
    (PiN(), lambda n: mp.pi * n),
    (ExpN(), lambda n: mp.exp(n)),
)


@pytest.mark.parametrize("scale", (1, 2, 4))
@pytest.mark.parametrize("transform", EVALUATORS, ids=lambda t: t.label())
@given(which=st.integers(min_value=0, max_value=len(INEXACT_TERMS) - 1),
       n=st.integers(min_value=2, max_value=1000),
       retries=st.integers(min_value=0, max_value=1))
@settings(max_examples=25, deadline=None)
def test_claimed_bits_inexact_terms(transform, scale, which, n, retries):
    check_claim_inexact(transform, scale, which, n, retries)


@pytest.mark.parametrize("scale", (1, 2, 4))
@given(power=powers(),
       which=st.integers(min_value=0, max_value=len(INEXACT_TERMS) - 1),
       n=st.integers(min_value=2, max_value=1000),
       retries=st.integers(min_value=0, max_value=1))
@settings(max_examples=50, deadline=None)
def test_power_maps_claimed_bits_inexact_terms(power, scale, which, n,
                                               retries):
    check_claim_inexact(power, scale, which, n, retries)


def check_claim_inexact(transform, scale, which, n, retries):
    seq, term = INEXACT_TERMS[which]
    # the input precision frac_sample asks for, and after a regeneration
    bits = start_bits(transform, digits_to_bits(seq.int_digits_estimate(n)),
                      AGREEMENT_BITS)
    x = seq.nth_term(n, bits << retries)
    w = start_bits(transform, x.integer_digits(), AGREEMENT_BITS)
    r = transform._eval_at(x, scale * w, transform._constants(scale * w))
    err, bound = claim_error(r, transform, lambda: term(n), 0)
    assert err <= bound


def assert_certified(x, transform, make_x, x_bits):
    """eval_transform's result vouches for the agreement bits, and those
    bits hold: floor({u} * 2**a) is off by at most one, wrapping."""
    r = eval_transform(x, transform)
    assert r.precision - r.integer_digits() >= AGREEMENT_BITS
    err, bound = claim_error(r, transform, make_x, x_bits)
    assert err <= bound
    mod = 1 << AGREEMENT_BITS
    with mp.workprec(x_bits + 2 * r.mantissa.bit_length() + 64):
        u = u_mp(transform, make_x())
        want = int(mp.floor((u - mp.floor(u)) * mod))
    assert (r.frac_scaled(AGREEMENT_BITS) - want) % mod in (0, 1, mod - 1)


@given(k=st.integers(min_value=1, max_value=3000),
       sign=st.sampled_from((-1, 1)))
@settings(max_examples=40, deadline=None)
def test_eval_transform_near_powers_of_ten(k, sign):
    n = 10 ** k + sign
    assert_certified(BigReal.from_int(n), LOG10, lambda: mpf(n),
                     n.bit_length())


@given(s=st.integers(min_value=2, max_value=10 ** 1500),
       sign=st.sampled_from((-1, 1)))
@settings(max_examples=40, deadline=None)
def test_eval_transform_near_perfect_squares(s, sign):
    n = s * s + sign
    assert_certified(BigReal.from_int(n), SQRT, lambda: mpf(n),
                     n.bit_length())
