"""Suprema of pdf/u' across the whole parameter range each family accepts.

Every (family, transform, parameters) point must end in one of two ways:
`sup_ratio` within 1e-12 relative of pdf/u' evaluated at its argmax in
mpmath to 40 digits, or a clean InvalidParameter, NotUnimodal or
HypothesisViolated; never a bare exception. InvalidParameter is clean only
where the true supremum lies outside the normal double range; an argmax
past the doubles is no reason to refuse. The argmax the oracle evaluates
at comes from the first-order condition (`oracles.argmax`), and probes on
both sides of it confirm it is a maximum.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from oracles import argmax, support_hi
from ubenford.distributions import (Exponential, HalfNormal,
                                    LognormalBase10, ParetoI, ParetoII,
                                    UniformOnZeroK, sup_ratio)
from ubenford.errors import (HypothesisViolated, InvalidParameter,
                             NotUnimodal)
from ubenford.transforms import (IDENTITY, LOG2, LOG10, LOGLOG, PI_SQUARE,
                                 SQRT)

TRANSFORMS = [IDENTITY, LOG2, LOG10, SQRT, PI_SQUARE, LOGLOG]

# the families whose density stays positive at the origin, where
# x**-1 * pdf for pi*x**2 has no bound
_AT_ORIGIN = (ParetoII, UniformOnZeroK, Exponential, HalfNormal)

_DMIN, _DMAX = sys.float_info.min, sys.float_info.max
_PROBE = mpf("1e-5")


def _pdf(d, x):
    """Density at an mpf point."""
    if isinstance(d, ParetoI):
        a, x0 = mpf(d.alpha), mpf(d.x0)
        return a / x0 * (x0 / x) ** (a + 1) if x >= x0 else mpf(0)
    if isinstance(d, ParetoII):
        return mpf(d.b) * mp.exp(-(mpf(d.b) + 1) * mp.log1p(x))
    if isinstance(d, LognormalBase10):
        if x <= 0:
            return mpf(0)
        z = (mp.log10(x) - d.mu) / d.sigma
        return mp.exp(-z * z / 2) / (
            x * d.sigma * mp.log(10) * mp.sqrt(2 * mp.pi))
    if isinstance(d, UniformOnZeroK):
        return 1 / mpf(d.k) if 0 < x <= d.k else mpf(0)
    if isinstance(d, Exponential):
        return mpf(d.lam) * mp.exp(-d.lam * x)
    if isinstance(d, HalfNormal):
        z = x / d.sigma
        return mp.sqrt(2 / mp.pi) / d.sigma * mp.exp(-z * z / 2)
    raise AssertionError(d)


def _ratio(d, t, x):
    """pdf/u' at an mpf point inside the support."""
    if t.kind == "identity":
        du = mpf(1)
    elif t.kind == "log":
        du = 1 / (x * mp.log(t.base))
    elif t.kind == "sqrt":
        du = 1 / (2 * mp.sqrt(x))
    elif t.kind == "pi_square":
        du = 2 * mp.pi * x
    else:
        du = 1 / (x * mp.log(x) * mp.log(10))
    return _pdf(d, x) / du


def _in_double_range(v):
    """Comfortably inside the normal doubles (or exactly 0, an origin)."""
    return v == 0 or _DMIN * (1 + 1e-9) < v < _DMAX * (1 - 1e-9)


# 40 digits, padded by the decades the parameters span, which cancellation
# can take: ln x of x = e**(1/alpha) under loglog loses log10(alpha)
# digits to the leading 1, and log10 x - mu for a lognormal loses up to
# -log10(sigma) + log10|mu|
_DIGITS = 40 + 310 + 10


def check_sup(d, t):
    with mp.workdps(_DIGITS):
        try:
            val = sup_ratio(d, t)
        except NotUnimodal:
            assert t.kind == "pi_square" and isinstance(d, _AT_ORIGIN)
            return
        except HypothesisViolated:
            assert t.kind == "loglog" and d.support_lo < 1.0
            return
        except InvalidParameter:
            assert not _in_double_range(_ratio(d, t, argmax(d, t))), \
                "refused a supremum that a double holds"
            return
        if t.kind == "pi_square":
            assert not isinstance(d, _AT_ORIGIN)
        if t.kind == "loglog":
            assert d.support_lo >= 1.0
        xm = argmax(d, t)
        ref = _ratio(d, t, xm)
        assert abs(val - ref) <= 1e-12 * ref, (val, ref)
        # a maximum: no larger value just either side of the argmax
        if xm > 0:
            for s in (1 - _PROBE, 1 + _PROBE):
                x = xm ** s if t.kind == "loglog" else xm * s
                if x >= d.support_lo and x <= support_hi(d):
                    assert _ratio(d, t, x) <= ref * (1 + mpf("1e-30"))


@pytest.mark.parametrize("d, t", [
    # 1 + x rounded in (b/(1 + b))**(b + 1) and (1 + xs)**(b + 1)
    (ParetoII(1e8), LOG10),
    (ParetoII(1.2589e16), LOG10),
    (ParetoII(1e20), LOG10),
    (ParetoII(1e12), SQRT),
    (ParetoII(1e8), SQRT),
    # ln x read back from x = exp(1/alpha) as the argmax nears 1
    (ParetoI(1e15), LOGLOG),
    (ParetoI(1e12), LOGLOG),
    # x0**alpha overflowed
    (ParetoI(2000.0, 2.0), LOGLOG),
    # the argmax 6.2e307 is a double though x*pdf(x) overflowed there
    (LognormalBase10(312.4, 2.0), SQRT),
    # the Gaussian factor (first) or x**-c (next two) leaves the doubles
    # though the product does not; the log10 form takes over
    (LognormalBase10(250.0, 10.0), PI_SQUARE),
    (LognormalBase10(140.0, 8.1), PI_SQUARE),
    (LognormalBase10(200.0, 1e-300), PI_SQUARE),
    # x0**2 overflows, alpha / x0**2 does not
    (ParetoI(1e300, 1e200), PI_SQUARE),
    # the sup leaves the doubles before pi_square's factor 1/(2*pi) brings
    # it back: from the log10 form (x0**2 subnormal), from alpha / x0**2
    # and from the lognormal closed form
    (ParetoI(1.0, 10.0 ** -154.5), PI_SQUARE),
    (ParetoI(1e9, 1e-150), PI_SQUARE),
    (LognormalBase10(-152.4, 1.0), PI_SQUARE),
    # the argmax lies past the doubles though the supremum does not:
    # e**1000 under loglog, 10**395.4 and 10**-400 under log10
    (ParetoI(1e-3), LOGLOG),
    (LognormalBase10(400.0, 2.0), LOG10),
    (LognormalBase10(-400.0, 0.5), LOG10),
], ids=lambda v: v.label())
def test_known_hard_points(d, t):
    check_sup(d, t)


_DECADES = st.one_of(st.floats(-300.0, 300.0), st.floats(-4.0, 4.0))
_SCALE = _DECADES.map(lambda e: 10.0 ** e)
FAMILIES = st.one_of(
    st.builds(ParetoI, _SCALE, _SCALE),
    st.builds(ParetoII, _SCALE),
    st.builds(LognormalBase10,
              st.one_of(st.floats(-400.0, 400.0), st.floats(-1e6, 1e6)),
              _SCALE),
    st.builds(UniformOnZeroK, _SCALE),
    st.builds(Exponential, _SCALE),
    st.builds(HalfNormal, _SCALE),
)


@settings(max_examples=600, deadline=None)
@given(FAMILIES, st.sampled_from(TRANSFORMS))
def test_sup_ratio_whole_range(d, t):
    check_sup(d, t)
