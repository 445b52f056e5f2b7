"""Property tests of the binary fixed-point core against mpmath.

transform_frac must agree with an independent mpmath evaluation of the same
value to 1e-12, measured as wrapped distance on the circle [0, 1), under
every transform kind: for exact integers up to 10**3000, for exact doubles
over +-300 decades, and for the inexact terms of every sequence at
n <= 1000 (taken through frac_sample, so input regeneration is covered).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from ubenford.bigreal import BigReal
from ubenford.errors import DomainError
from ubenford.sequences import ExpN, PiN, PowerLaw, SqrtN, frac_sample
from ubenford.transforms import (IDENTITY, LOG2, LOG10, LOGLOG, PI_SQUARE,
                                 SQRT, transform_frac)

TOL = 1e-12
TRANSFORMS = (IDENTITY, LOG10, LOG2, LOGLOG, SQRT, PI_SQUARE)


def wrapped(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def mp_frac(make_x, transform, lg):
    """{u(x)} in mpmath; `lg` bounds log10 of x from above."""
    int_digits = {"pi_square": 2 * lg + 1, "sqrt": lg / 2 + 1,
                  "identity": lg + 1}.get(transform.kind, 10)
    with mp.workdps(int(max(lg, int_digits, 0)) + 40):
        x = make_x()
        if transform == IDENTITY:
            u = x
        elif transform == LOG10:
            u = mp.log10(x)
        elif transform == LOG2:
            u = mp.log(x, 2)
        elif transform == LOGLOG:
            u = mp.log10(mp.log10(x))
        elif transform == SQRT:
            u = mp.sqrt(x)
        else:
            u = mp.pi * x * x
        return float(u - mp.floor(u))


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
    seq, term, log10_of = SEQUENCE_TERMS[which]
    sample = frac_sample(seq, transform, n, index_filter=lambda k: k == n)
    want = mp_frac(lambda: term(n), transform, log10_of(n) + 1)
    assert sample.size == 1
    assert wrapped(float(sample.values[0]), want) < TOL
