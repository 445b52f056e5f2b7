"""Transform evaluation: exact fast paths, certified escalation, domains."""

import bisect
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import ubenford.transforms as tr
from oracles import derivative
from ubenford.bigreal import DEFAULT_POLICY, BigReal, PrecisionPolicy
from ubenford.errors import (DomainError, InsufficientPrecision,
                             InvalidParameter, PrecisionCapExceeded)
from ubenford.experiments import sample_cell
from ubenford.ingest import ingest_csv
from ubenford.kernels import digits_to_bits, pi_fixed
from ubenford.sequences import (Factorial, NPowN, PiN, PowerLaw, Primes,
                                Sequence, SqrtN, nth_prime, parse_sequence)
from ubenford.stats import ks_uniform
from ubenford.transforms import (IDENTITY, LOG2, LOG10, LOGLOG, PI_SQUARE,
                                 SQRT, Log, LogLog, Power, Transform,
                                 eval_transform, start_bits)

# independently computed reference bits: floor(frac(u) * 2**b)
# sqrt(2) = 1.6A09E667F3BCC908B2FB1366E...
FRAC_SQRT2_100 = 0x6A09E667F3BCC908B2FB1366E
# sqrt(3628800) = 1904.9409439665052251...
FRAC_SQRT_10FACT_53 = 0x1E1C3685704551
# pi * 10**2 = 314.15926535897932384626...
FRAC_100PI_67 = 0x1462CEAA19D7B939B
# log10(7**77) = 65.07254908109777596484...
FRAC_LOG10_7POW77_67 = 0x94949CD55BBFDD75


def exact(x):
    """The rational a BigReal stores, mantissa * 2**exponent."""
    return Fraction(x.mantissa) * Fraction(2) ** x.exponent


def pi_real(bits):
    """pi as an inexact BigReal certified to `bits` fractional bits."""
    return BigReal(pi_fixed(bits), -bits, bits + 2, False)


def mp_frac(expr_fn, dps=50):
    mp.dps = dps
    try:
        return float(mp.frac(expr_fn()))
    finally:
        mp.dps = 15


class TestTransformType:
    def test_parse(self):
        assert Transform.parse("log10") == LOG10
        assert Transform.parse("log") == LOG10
        assert Transform.parse("log2") == LOG2
        assert Transform.parse("LogLog") == LOGLOG
        assert Transform.parse("pi-square") == PI_SQUARE
        assert Transform.parse("sqrt") == SQRT
        assert Transform.parse("identity") == IDENTITY
        assert Transform.parse("log7") == Log(7)
        with pytest.raises(ValueError):
            Transform.parse("cosh")
        # a base takes ASCII digits only: '²' and Arabic-Indic digits pass
        # str.isdigit
        for text in ("log²", "log\u0661\u0660", "log\uff11\uff10"):
            with pytest.raises(InvalidParameter, match="unknown transform"):
                Transform.parse(text)
        with pytest.raises(InvalidParameter, match="got 5"):
            Transform.parse(5)
        # a numpy integer base is the int it equals
        assert Log(np.int64(7)) == Log(7)
        assert type(Log(np.int64(7)).base) is int

    def test_labels(self):
        assert LOG10.label() == "log10"
        assert LOG2.label() == "log2"
        assert LOGLOG.label() == "loglog"
        assert PI_SQUARE.label() == "pi_square"

    def test_validation(self):
        with pytest.raises(ValueError):
            Transform.parse("exp")
        with pytest.raises(ValueError):
            Log(1)


class TestExactFastPaths:
    def test_log_integer_powers(self):
        r = eval_transform(BigReal.from_int(1000), LOG10)
        assert r.exact and exact(r) == 3
        r = eval_transform(BigReal.from_int(1024), LOG2)
        assert r.exact and exact(r) == 10
        r = eval_transform(BigReal.from_float(0.125), Log(8))
        assert r.exact and exact(r) == -1
        r = eval_transform(BigReal.from_float(0.25), LOG2)
        assert r.exact and exact(r) == -2
        r = eval_transform(BigReal.from_int(1), LOG10)
        assert r.exact and exact(r) == 0

    def test_log_power_of_ten_embedded_in_big_int(self):
        r = eval_transform(BigReal.from_int(10 ** 3000), LOG10)
        assert r.exact and exact(r) == 3000

    def test_sqrt_perfect_squares(self):
        r = eval_transform(BigReal.from_int(144), SQRT)
        assert r.exact and exact(r) == 12
        r = eval_transform(BigReal.from_float(0.25), SQRT)
        assert r.exact and r.frac() == 0.5
        r = eval_transform(BigReal.from_float(2.25), SQRT)
        assert r.exact and r.frac() == 0.5
        r = eval_transform(BigReal.from_int(0), SQRT)
        assert r.exact and r.mantissa == 0

    def test_loglog_exact_towers(self):
        r = eval_transform(BigReal.from_int(10 ** 10), LOGLOG)
        assert r.exact and exact(r) == 1
        r = eval_transform(BigReal.from_int(10 ** 100), LOGLOG)
        assert r.exact and exact(r) == 2
        r = eval_transform(BigReal.from_int(10), LOGLOG)
        assert r.exact and exact(r) == 0

    def test_pi_square_zero(self):
        assert eval_transform(BigReal.from_int(0), PI_SQUARE).mantissa == 0

    def test_identity_passthrough(self):
        x = BigReal.from_float(3.7)
        assert eval_transform(x, IDENTITY) is x


def _mp_frac_of(x, transform):
    """{u(x)} of an integer x through mpmath, at all of x's digits."""
    with mp.workdps(x.bit_length() // 3 + 60):
        v = mpf(x)
        if transform == LOGLOG:
            u = mp.log10(mp.log10(v))
        elif transform == LOG2:
            u = mp.log(v, 2)
        else:
            u = mp.log10(v)
        return float(u - mp.floor(u))


class TestExactLogCandidate:
    """The exact-log fast path reads its one candidate exponent off the
    bits of the input and decides with a single comparison."""

    K = 300

    @pytest.mark.parametrize("name", ["10**k", "10**k+1", "10**k-1",
                                      "2**k*5**(k-1)", "1000!",
                                      "1000**1000"])
    @pytest.mark.parametrize("transform", [LOG10, LOGLOG])
    def test_log10_candidates(self, name, transform):
        k = self.K
        v = {"10**k": 10 ** k, "10**k+1": 10 ** k + 1,
             "10**k-1": 10 ** k - 1, "2**k*5**(k-1)": 2 ** k * 5 ** (k - 1),
             "1000!": math.factorial(1000), "1000**1000": 1000 ** 1000}[name]
        power = {"10**k": k, "1000**1000": 3000}.get(name)
        assert tr._power_exponent(v, 10) == power
        r = eval_transform(BigReal.from_int(v), transform)
        assert r.exact == (power is not None and transform == LOG10)
        if r.exact:
            assert exact(r) == power
        got = r.frac()
        want = _mp_frac_of(v, transform)
        d = abs(got - want)
        assert min(d, 1.0 - d) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 63, 64, 1000, 40000])
    def test_powers_of_two_under_log2(self, k):
        r = eval_transform(BigReal.from_int(2 ** k), LOG2)
        assert r.exact and exact(r) == k
        r = eval_transform(BigReal.from_int(2 ** k + 1), LOG2)
        assert not r.exact
        r = eval_transform(BigReal.from_float(2.0 ** -min(k, 1074)), LOG2)
        assert r.exact and exact(r) == -min(k, 1074)

    def test_odd_bases(self):
        assert tr._power_exponent(3 ** 1001, 3) == 1001
        assert tr._power_exponent(3 ** 1001 * 2, 3) is None
        assert tr._power_exponent(7 ** 50 + 7, 7) is None
        r = eval_transform(BigReal.from_int(7 ** 77), Log(7))
        assert r.exact and exact(r) == 77


class TestCertifiedValues:
    def test_sqrt2_thirty_digits(self):
        r = eval_transform(BigReal.from_int(2), SQRT)
        assert r.frac_scaled(100) == FRAC_SQRT2_100

    def test_sqrt_factorial(self):
        r = eval_transform(BigReal.from_int(math.factorial(10)), SQRT)
        assert r.frac_scaled(53) == FRAC_SQRT_10FACT_53

    def test_pi_square_of_ten(self):
        r = eval_transform(BigReal.from_int(10), PI_SQUARE)
        assert r.frac_scaled(67) == FRAC_100PI_67

    def test_log10_of_big_power(self):
        r = eval_transform(BigReal.from_int(7 ** 77), LOG10)
        assert r.frac_scaled(67) == FRAC_LOG10_7POW77_67

    def test_frac_matches_oracle_as_double(self):
        cases = [
            (BigReal.from_int(2), SQRT, lambda: mp.sqrt(2)),
            (BigReal.from_int(123456789), LOG10,
             lambda: mp.log10(123456789)),
            (BigReal.from_int(123456789), LOGLOG,
             lambda: mp.log10(mp.log10(123456789))),
            (BigReal.from_float(123.456), PI_SQUARE,
             lambda: mp.pi * mpf(123.456) ** 2),
            (BigReal.from_int(5), LOG2, lambda: mp.log(5) / mp.log(2)),
        ]
        for x, t, oracle in cases:
            assert abs(eval_transform(x, t).frac() - mp_frac(oracle)) < 1e-15

    def test_decimal_input(self):
        x = BigReal.from_float(2.5)
        got = eval_transform(x, LOG10).frac()
        assert abs(got - mp_frac(lambda: mp.log10(mpf("2.5")))) < 1e-15


class TestEscalation:
    def test_near_integer_result_still_certified(self):
        # log10(10**12 + 1) is within 1e-12 of an integer
        r = eval_transform(BigReal.from_int(10 ** 12 + 1), LOG10)
        assert r.frac_scaled(40) == 0
        f = r.frac()
        assert 0.0 <= f < 1e-12

    def test_just_below_power_of_ten(self):
        r = eval_transform(BigReal.from_int(10 ** 12 - 1), LOG10)
        f = r.frac()
        assert 1.0 - 1e-12 < f < 1.0

    def test_precision_cap(self):
        # u has 99,660 integer bits, so the first working precision is
        # past the 30,000-digit cap before anything is evaluated
        with pytest.raises(PrecisionCapExceeded,
                           match=r"^the working precision needs 99750 bits, "
                                 r"past the cap of 30000 digits \(99658 "
                                 r"bits\)$"):
            eval_transform(BigReal.from_int(10 ** 15000 + 7), PI_SQUARE)

    def test_cap_bounds_the_precision_evaluated(self, monkeypatch):
        # the cap bounds the one working precision each round evaluates, so
        # a term that certifies at its starting 117 bits passes a 213-bit
        # cap, and one that needs a near-integer doubling to 234 does not;
        # a log starts every input at 117 bits, so only a lower cap shows it
        monkeypatch.setattr(tr, "_CAP_DIGITS", 64)
        seen = []

        class Spy(Log):
            def _eval_at(self, x, w):
                seen.append(w)
                return super()._eval_at(x, w)

        got = eval_transform(BigReal.from_int(12345), Spy(10))
        assert abs(got.frac() - math.log10(12345) % 1.0) < 1e-12
        with pytest.raises(PrecisionCapExceeded):
            eval_transform(BigReal.from_int(10 ** 40 + 1), Spy(10))
        assert seen == [117, 117]

    def test_input_limited_raises_then_regenerates(self):
        coarse = pi_real(digits_to_bits(13))
        with pytest.raises(InsufficientPrecision):
            eval_transform(coarse, PI_SQUARE)
        fine = pi_real(digits_to_bits(40))
        got = eval_transform(fine, PI_SQUARE).frac()
        assert abs(got - mp_frac(lambda: mp.pi ** 3)) < 1e-12

    @pytest.mark.parametrize("k, p", [(80, 200), (80, 500), (80, 2000),
                                      (1000, 1100), (1000, 4000)])
    def test_loglog_near_one_escalates_on_inexact_input(self, k, p):
        # log10(1 + 2**-k) cancels k bits, so the 107-bit start is the
        # limit, not the input's p bits: w must double. At k = 1000 the
        # inner log vanishes at 107 and 214 bits; those zero-bit claims
        # are no doubling without gain
        x = BigReal((1 << k) + 1, -k, p, False)
        got = eval_transform(x, LOGLOG).frac()
        want = mp_frac(lambda: mp.log10(mp.log10(1 + mpf(2) ** -k)), k + 50)
        assert abs(got - want) < 2.0 ** -40

    @pytest.mark.parametrize("k, p", [(80, 100), (1000, 900)])
    def test_loglog_near_one_input_limited_still_raises(self, k, p):
        # p - 1 significant bits leave about p - k after the cancellation
        # (19 at k = 80, none at k = 1000): a doubling gains nothing, so
        # the input is the limit
        x = BigReal((1 << k) + 1, -k, p, False)
        with pytest.raises(InsufficientPrecision):
            eval_transform(x, LOGLOG)

    def test_loglog_domain_edge_of_inexact_input(self):
        # an inexact x whose error interval reaches 1 is refused for more
        # bits; one certified to lie below 1, or an exact 1, is outside
        k = 120
        one = BigReal(1 << k, -k, 100, False)
        with pytest.raises(InsufficientPrecision):
            eval_transform(one, LOGLOG)
        near = BigReal((1 << k) - (1 << 19), -k, 100, False)
        with pytest.raises(InsufficientPrecision):
            eval_transform(near, LOGLOG)
        below = BigReal((1 << k) - (1 << 22), -k, 100, False)
        with pytest.raises(DomainError):
            eval_transform(below, LOGLOG)
        with pytest.raises(DomainError):
            eval_transform(BigReal.from_int(1), LOGLOG)

    @pytest.mark.parametrize("exact", [True, False])
    def test_doubling_without_gain_raises_only_for_inexact(self, exact):
        # an evaluator stuck at its first working precision: an exact
        # input keeps doubling up to the cap (30,000 digits, 99,658 bits),
        # an inexact one is refused at the first doubling that gained no
        # certified bits
        seen = []

        class Stuck(LogLog):
            def _eval_at(self, x, w):
                seen.append(w)
                return super()._eval_at(x, seen[0])

        x = BigReal((1 << 80) + 1, -80, 2000, exact)
        want = PrecisionCapExceeded if exact else InsufficientPrecision
        with pytest.raises(want):
            eval_transform(x, Stuck())
        assert seen == [107 << k for k in range(10 if exact else 2)]

    @pytest.mark.parametrize("k", [200, 1000])
    def test_loglog_vanished_inner_log_escalates_on_exact_input(self, k):
        # log10(1 + 2**-k) vanishes at the 107-bit start: the evaluator
        # claims nothing instead of raising, and w doubles until the
        # inner log resolves it
        x = BigReal((1 << k) + 1, -k, k + 1, True)
        assert LOGLOG._eval_at(x, 107) is None
        got = eval_transform(x, LOGLOG).frac()
        want = mp_frac(lambda: mp.log10(mp.log10(1 + mpf(2) ** -k)), k + 50)
        assert abs(got - want) < 2.0 ** -40

    def test_start_bits_input_is_sufficient(self):
        # pi generated at the start_bits frac_sample asks for certifies
        policy = PrecisionPolicy(agreement=20)
        a = digits_to_bits(policy.agreement)
        for t in (IDENTITY, LOG10, LOGLOG, SQRT, PI_SQUARE):
            x = pi_real(start_bits(t, 2, a))
            r = eval_transform(x, t, policy)
            assert r.frac_scaled(a) >= 0

    def test_deeper_fractional_bits_cost_more_input(self):
        for t in (IDENTITY, LOG10, LOGLOG, SQRT, PI_SQUARE):
            assert start_bits(t, 17, digits_to_bits(30)) > \
                start_bits(t, 17, digits_to_bits(12))


class TestDomains:
    def test_log_rejects_nonpositive(self):
        for t in (LOG10, LOG2, LOGLOG):
            with pytest.raises(DomainError):
                eval_transform(BigReal.from_int(0), t)
            with pytest.raises(DomainError):
                eval_transform(BigReal.from_int(-3), t)

    def test_loglog_rejects_at_most_one(self):
        with pytest.raises(DomainError):
            eval_transform(BigReal.from_int(1), LOGLOG)
        with pytest.raises(DomainError):
            eval_transform(BigReal.from_float(0.5), LOGLOG)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(DomainError):
            eval_transform(BigReal.from_int(-4), SQRT)

    def test_float_helpers_share_domains(self):
        with pytest.raises(DomainError):
            derivative(SQRT, 0.0)
        with pytest.raises(DomainError):
            LOGLOG.u_float_from_log10(0.0)


def _inverse_log10_allocating(t, y):
    """inverse_log10 as each map stated it before it took out=."""
    if isinstance(t, Log):
        return y * math.log10(t.base)
    if isinstance(t, LogLog):
        return np.power(10.0, y)
    lg = np.where(y > 0.0, np.log10(np.maximum(y, 1e-320)), -np.inf)
    return (lg - math.log10(math.pi) if t.pi else lg) / t._a


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


class TestInverseLog10Out:
    """out= writes the same doubles the allocating call returns, into the
    caller's array, and returns that array."""

    YS = [0.0, -0.0, -2.5, 5e-324, 1.0, 1e308, math.inf, math.nan]
    MAPS = [LOG10, LOG2, LOGLOG, SQRT, PI_SQUARE, IDENTITY]

    @pytest.mark.parametrize("t", MAPS, ids=lambda t: t.label())
    def test_one_dimensional(self, t):
        y = np.array(self.YS)
        buf = np.full(y.size, 7.0)
        with np.errstate(over="ignore"):  # 10**1e308 under LogLog
            got = t.inverse_log10(y, out=buf)
            want = t.inverse_log10(y)
        assert got is buf
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("t", MAPS, ids=lambda t: t.label())
    def test_strided_view(self, t):
        # a column slice of a 2-D block, as the law's runs read it, into a
        # column slice of another
        y = np.array(self.YS * 3).reshape(3, -1)[:, 1:7]
        buf = np.full((4, 10), 7.0)
        with np.errstate(over="ignore"):
            got = t.inverse_log10(y, out=buf[:3, 2:8])
            want = t.inverse_log10(y)
        assert got.base is buf
        assert _bits(got) == _bits(want)
        assert np.all(buf[:, :2] == 7.0) and np.all(buf[3] == 7.0)

    @pytest.mark.parametrize("t", MAPS, ids=lambda t: t.label())
    def test_in_place(self, t):
        y = np.array(self.YS)
        with np.errstate(over="ignore"):
            want = t.inverse_log10(y)
            got = t.inverse_log10(y, out=y)
        assert got is y and _bits(got) == _bits(want)

    @pytest.mark.parametrize("t", MAPS, ids=lambda t: t.label())
    def test_scalar_without_out(self, t):
        with np.errstate(over="ignore"):
            for y in self.YS + [np.float64(3.5)]:
                got = t.inverse_log10(y)
                want = _inverse_log10_allocating(t, y)
                assert type(got) is type(want)
                assert _bits(got) == _bits(want)


class TestFloatHelpers:
    @given(st.floats(min_value=1.5, max_value=1e8))
    @settings(max_examples=200)
    def test_inverse_round_trip(self, x):
        for t in (IDENTITY, LOG10, LOG2, SQRT, PI_SQUARE, LOGLOG):
            y = t.u_float_from_log10(math.log10(x))
            back = 10.0 ** t.inverse_log10(y)
            assert math.isclose(back, x, rel_tol=1e-9)

    @given(st.floats(min_value=0.1, max_value=30.0))
    @settings(max_examples=100)
    def test_inverse_log10_matches(self, y):
        for t in (LOG10, SQRT, PI_SQUARE, IDENTITY, LOG2, LOGLOG):
            lg = t.inverse_log10(y)
            assert math.isclose(t.u_float_from_log10(lg), y, rel_tol=1e-9)

    def test_derivatives(self):
        assert derivative(IDENTITY, 5.0) == 1.0
        assert math.isclose(derivative(LOG10, math.e),
                            1.0 / (math.e * math.log(10)))
        assert derivative(SQRT, 4.0) == 0.25
        assert math.isclose(derivative(PI_SQUARE, 3.0), 6.0 * math.pi)
        assert math.isclose(derivative(LOGLOG, 100.0),
                            1.0 / (100.0 * math.log(100.0) * math.log(10.0)))
        assert math.isclose(derivative(LOG2, 8.0),
                            1.0 / (8.0 * math.log(2)))


class TestPowerMaps:
    """identity, sqrt and pi_square are Power(1), Power(1, 2) and
    Power(2, pi=True); each keeps the double expressions of its former
    class bit for bit on the log10 axis (u_float_from_log10 and
    inverse_log10), which the law reads. No power map has a forward
    double map: a sample's {u(x)} is certified."""

    rng = np.random.default_rng(20091)
    # seeded doubles over +-300 decades; pi*x*x overflows past 1e154
    XS = rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.integers(-300, 300, 4000)
    LGS = np.concatenate([np.log10(XS), [-400.0, 0.0, 400.0]])

    def test_named_instances(self):
        assert (IDENTITY, SQRT, PI_SQUARE) == \
            (Power(1), Power(1, 2), Power(2, pi=True))
        assert [t.label() for t in (IDENTITY, SQRT, PI_SQUARE)] == \
            ["identity", "sqrt", "pi_square"]
        assert PI_SQUARE.formula == "pi*x**2"
        assert Power(3).label() == "x**3"
        assert Power(3, 2).label() == "x**(3/2)"
        assert Power(3, pi=True).label() == "pi*x**3"

    def test_float_side_keeps_the_former_expressions(self):
        def pow10(y):
            try:
                return 10.0 ** y
            except OverflowError:
                return math.inf

        for lg in self.LGS:
            lg = float(lg)
            assert IDENTITY.u_float_from_log10(lg) == pow10(lg)
            assert SQRT.u_float_from_log10(lg) == pow10(lg / 2.0)
            assert PI_SQUARE.u_float_from_log10(lg) == \
                math.pi * pow10(2.0 * lg)
        ys = np.concatenate([self.XS, [0.0]])
        with np.errstate(divide="ignore"):
            lg = np.where(ys > 0.0, np.log10(ys), -np.inf)
        assert IDENTITY.inverse_log10(ys).tobytes() == lg.tobytes()
        assert SQRT.inverse_log10(ys).tobytes() == (2.0 * lg).tobytes()
        assert PI_SQUARE.inverse_log10(ys).tobytes() == \
            (0.5 * (lg - math.log10(math.pi))).tobytes()

    def test_power_pairs(self):
        assert IDENTITY.power == (0.0, 1.0)
        assert SQRT.power == (0.5, 2.0)
        assert PI_SQUARE.power == (-1.0, 1.0 / (2.0 * math.pi))

    def test_start_bits_estimates(self):
        for b in (0, 1, 17, 1000):
            assert IDENTITY._result_bits_estimate(b) == b
            assert SQRT._result_bits_estimate(b) == b // 2 + 1
            assert PI_SQUARE._result_bits_estimate(b) == 2 * b + 2

    @pytest.mark.parametrize("args", [(0,), (-1,), (1.0,), (2, 2), (1, 3),
                                      (1, 2, True), (1, 1, 1)])
    def test_constructor_refuses_what_the_route_cannot_take(self, args):
        with pytest.raises(ValueError):
            Power(*args)

    def test_constructor_reads_p_and_q_as_counts(self):
        assert Power(np.int64(3)) == Power(3)
        assert Power(np.int64(3), np.int64(2)) == Power(3, 2)
        assert type(Power(np.int64(3), np.int64(1)).q) is int
        for args in ((3, 2.0), (3, True), (3.0,), (True,), ("3",)):
            with pytest.raises(InvalidParameter):
                Power(*args)

    def test_domains(self):
        for t in (SQRT, PI_SQUARE, Power(3), Power(3, 2)):
            with pytest.raises(DomainError, match=f"^{re.escape(t.label())}"
                                                  r" requires x >= 0"):
                eval_transform(BigReal.from_float(-0.5), t)
            # one value outside the domain refuses the whole sample
            with pytest.raises(DomainError):
                sample_cell(np.array([1.0, -1.0]), t)
        x = BigReal.from_float(-2.5)
        assert eval_transform(x, IDENTITY) is x
        assert sample_cell(np.array([-2.5, 0.25]), IDENTITY).z == \
            ks_uniform([0.5, 0.25])[1]

    def test_exact_results(self):
        r = eval_transform(BigReal.from_float(1.5), Power(3))
        assert r.exact and exact(r) == Fraction(27, 8)
        r = eval_transform(BigReal.from_int(4), Power(3, 2))
        assert r.exact and exact(r) == 8
        r = eval_transform(BigReal.from_float(0.5), Power(5, 2))
        assert not r.exact  # 2**-5/2 is irrational
        assert abs(float(exact(r)) - 0.5 ** 2.5) < 1e-15
        assert eval_transform(BigReal.from_int(3), Power(3, pi=True)).exact \
            is False


# every named transform, plus one more log base
REGISTRY = (IDENTITY, LOG10, LOGLOG, SQRT, PI_SQUARE, LOG2, Log(7))


# the same value written several ways around the iterated log's edge x = 1,
# with exponents of both signs
BOUNDARY = (
    ("1=2**80*2**-80 exact", BigReal(1 << 80, -80, 200, True)),
    ("1=2**80*2**-80 inexact", BigReal(1 << 80, -80, 200, False)),
    ("1=1*2**0", BigReal(1, 0, 53, True)),
    ("1+2**-80 exact", BigReal((1 << 80) + 1, -80, 200, True)),
    ("1+2**-52", BigReal((1 << 52) + 1, -52, 53, True)),
    ("2=1*2**1", BigReal(1, 1, 53, True)),
    ("96=3*2**5", BigReal(3, 5, 53, True)),
    ("0.5=1*2**-1", BigReal(1, -1, 53, True)),
    ("-8=-1*2**3", BigReal(-1, 3, 53, True)),
)


def _rejects(fn, x):
    try:
        fn(x)
    except DomainError:
        return True
    return False


@pytest.mark.parametrize("t", REGISTRY, ids=lambda t: t.label())
class TestTransformContract:
    """What every transform class must provide, and provide consistently."""

    @pytest.mark.parametrize("x", [-3.0, -0.5, 0.0, 0.5, 1.0, 2.5])
    def test_domains_agree(self, t, x):
        rejected = _rejects(lambda v: eval_transform(BigReal.from_float(v), t),
                            x)
        # one value outside the domain rejects the whole sample
        assert _rejects(lambda v: sample_cell(v, t),
                        np.array([2.5, x, 3.0])) == rejected
        if rejected:
            assert _rejects(lambda v: derivative(t, v), x)
            assert _rejects(lambda v: derivative(t, v), np.array([2.5, x]))

    @pytest.mark.parametrize("x", [b[1] for b in BOUNDARY],
                             ids=[b[0] for b in BOUNDARY])
    def test_domain_at_boundary_representations(self, t, x):
        value = exact(x)
        if t == LOGLOG and not x.exact and value == 1:
            # an inexact 1 may lie above 1: refused for more bits instead
            with pytest.raises(InsufficientPrecision):
                eval_transform(x, t)
            return
        rejected = _rejects(lambda v: eval_transform(v, t), x)
        if t == LOGLOG:
            assert rejected == (value <= 1)
        if Fraction(float(value)) == value:
            # a sample holding the same double draws the same edge
            assert _rejects(lambda v: sample_cell(v, t),
                            np.array([float(value), 2.5])) == rejected

    @pytest.mark.parametrize("y", [0.3, 1.7, 12.5, 200.0])
    def test_log10_round_trip(self, t, y):
        lg = t.inverse_log10(y)
        assert math.isclose(t.u_float_from_log10(float(lg)), y,
                            rel_tol=1e-12)
        lgs = t.inverse_log10(np.array([y, y]))
        assert np.all(lgs == lg)

    @pytest.mark.parametrize("x", [1.5, 7.0, 300.0])
    def test_derivative_matches_centered_difference(self, t, x):
        h = 1e-5 * x
        u = [t.u_float_from_log10(math.log10(v)) for v in (x - h, x + h)]
        slope = (u[1] - u[0]) / (2.0 * h)
        assert math.isclose(float(derivative(t, x)), slope, rel_tol=1e-6)
        assert derivative(t, np.array([x]))[0] == derivative(t, x)


class TestAgreementProperty:
    @given(st.integers(min_value=2, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_log10_frac_close_to_float(self, n):
        ours = eval_transform(BigReal.from_int(n), LOG10).frac()
        ref = math.log10(n) % 1.0
        d = abs(ours - ref)
        assert min(d, 1.0 - d) < 1e-9

    @given(st.integers(min_value=1, max_value=10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_sqrt_frac_close_to_float(self, n):
        ours = eval_transform(BigReal.from_int(n), SQRT).frac()
        ref = math.sqrt(n) % 1.0
        d = abs(ours - ref)
        assert min(d, 1.0 - d) < 1e-9

    @given(st.integers(min_value=1, max_value=10 ** 5))
    @settings(max_examples=100, deadline=None)
    def test_stability_under_higher_initial_precision(self, n):
        deeper = PrecisionPolicy(agreement=16)
        a = eval_transform(BigReal.from_int(n), PI_SQUARE).frac()
        b = eval_transform(BigReal.from_int(n), PI_SQUARE, deeper).frac()
        d = abs(a - b)
        assert min(d, 1.0 - d) < 1e-12


def _certified(certifier, x):
    """certify(x) as (mantissa, exponent, precision, exact, frac bits),
    or the refusal's type and message."""
    try:
        r, f = certifier.certify(x)
    except (DomainError, InsufficientPrecision, PrecisionCapExceeded) as e:
        return type(e), str(e)
    return r.mantissa, r.exponent, r.precision, r.exact, f


class TestCertifierHasNoHistory:
    """A certifier's results depend only on its input, not on what it
    certified before: the inputs' integer bits and first working
    precisions alternate, so each lookup of a value kept from the last
    input would miss or, kept wrongly, differ."""

    INPUTS = [BigReal.from_float(1.2345 * 10.0 ** e)
              for e in range(-300, 301, 50)] + [
        BigReal.from_int(1),
        BigReal.from_int((1 << 199) + 0x5DEECE66D),
        BigReal.from_int((1 << 4999) + 0x5DEECE66D),
        pi_real(200),
        pi_real(2000),
        BigReal.from_int(10 ** 20 + 1),  # log10 escalates near 20
    ]
    TRANSFORMS = [LOG10, Log(7), LOGLOG, SQRT, PI_SQUARE, IDENTITY]

    @pytest.mark.parametrize("agreement", [12, 30])
    @pytest.mark.parametrize("t", TRANSFORMS, ids=lambda t: t.label())
    def test_results_do_not_depend_on_order(self, t, agreement):
        policy = PrecisionPolicy(agreement)
        fresh = [_certified(tr._Certifier(t, policy), x)
                 for x in self.INPUTS]
        shared = tr._Certifier(t, policy)
        assert [_certified(shared, x) for x in self.INPUTS] == fresh
        assert [_certified(shared, x) for x in self.INPUTS[::-1]] == \
            fresh[::-1]

    @pytest.mark.parametrize("agreement", [12, 30])
    @pytest.mark.parametrize("t", TRANSFORMS, ids=lambda t: t.label())
    def test_fracs_of_a_shuffled_array_are_frac(self, t, agreement):
        policy = PrecisionPolicy(agreement)
        rng = np.random.default_rng(agreement)
        xs = rng.permutation(10.0 ** rng.uniform(-300, 300, 400))
        out, outside = tr._Certifier(t, policy).fracs(xs)
        certifier = tr._Certifier(t, policy)
        for x, got, off in zip(xs.tolist(), out.tolist(), outside.tolist()):
            if off:
                with pytest.raises(DomainError):
                    certifier.frac(BigReal.from_float(x))
            else:
                assert got == certifier.frac(BigReal.from_float(x)), x


# ---------------------------------------------------------------------------
# the quick phase of _Certifier.fracs

QUICK = (LOG2, LOG10, Log(7), LOGLOG, SQRT, PI_SQUARE)
DATA = Path(__file__).resolve().parent.parent / "data"


def _true_u(t, x):
    """u(x) in mpmath at 400 bits (the caller sets the precision)."""
    x = mpf(x)
    if t == LOGLOG:
        return mp.log10(mp.log10(x))
    if t == SQRT:
        return mp.sqrt(x)
    if t == PI_SQUARE:
        return mp.pi * x * x
    return mp.log(x) / mp.log(t.base)


def _nudge(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# positive doubles, subnormals included, and doubles on or next to a
# point where some quick transform is an integer
_NEAR_INTEGER = st.one_of(
    st.integers(-1022, 1023).map(lambda k: 2.0 ** k),
    st.integers(-307, 308).map(lambda k: 10.0 ** k),
    st.integers(-364, 364).map(lambda k: 7.0 ** k),
    st.integers(1, 1 << 20).map(lambda n: float(n * n)),
    st.integers(1, 1 << 20).map(lambda n: math.sqrt(n / math.pi)))
_DOUBLES = st.one_of(
    st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True),
    st.tuples(_NEAR_INTEGER, st.integers(-3, 3)).map(lambda a: _nudge(*a)))


def _seeded(seed):
    """20,000 doubles log-uniform over +-300 decades, 4,000 log-uniform over
    the power maps' quick range and 2,000 in (0.05, 1), where log u is
    negative: the doubles whose handed-out fractions are checked."""
    rng = np.random.default_rng(seed)
    return np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 20000),
                           2.0 ** rng.uniform(-120.0, 40.0, 4000),
                           rng.uniform(0.05, 1.0, 2000)])


def _handed(certifier, xs):
    return certifier._hand_out(xs, np.zeros(xs.size))


POWERS = (IDENTITY, SQRT, PI_SQUARE, Power(3), Power(3, 2), Power(3, pi=True))
# the maps with the integer route: those whose result can be inexact
ROUTED = (SQRT, PI_SQUARE, Power(3, 2), Power(3, pi=True))


def _true_power(t, x):
    """c * x**(p/q) in mpmath (the caller sets the precision)."""
    u = mpf(x) ** t.p
    u = mp.sqrt(u) if t.q == 2 else u
    return mp.pi * u if t.pi else u


# every finite double, negatives, subnormals and the largest included, and
# doubles on or next to a point where some power map is an integer
_EVERY_DOUBLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, sys.float_info.max,
                     -sys.float_info.max, 2.0 ** -1022]),
    st.tuples(st.one_of(
        st.integers(-1074, 1023).map(lambda k: 2.0 ** k),
        st.integers(1, 1 << 26).map(lambda n: float(n * n)),
        st.integers(1, 1 << 40).map(lambda n: math.sqrt(n / math.pi)),
        st.integers(1, 1 << 26).map(lambda n: n * n / math.pi)),
        st.integers(-3, 3)).map(lambda a: _nudge(*a)))


def _whole_range(seed):
    """2,000 positive doubles log-uniform over the whole double range,
    subnormals included, and the ends of that range."""
    rng = np.random.default_rng(seed)
    xs = 2.0 ** rng.uniform(-1074.0, 1024.0, 2000)
    return np.concatenate([xs[np.isfinite(xs) & (xs > 0.0)],
                           [5e-324, 2.0 ** -1022, sys.float_info.max]])


class TestQuickPhase:
    """fracs hands a double out of a quick route (double-double, or a
    power map's integer route) only where it equals the certifier's; the
    rest goes to the certifier."""

    @given(x=_DOUBLES, t=st.sampled_from(QUICK))
    @settings(max_examples=400, deadline=None)
    def test_error_within_its_bound(self, x, t):
        lo, hi = t._quick_range
        if not lo <= x <= hi:
            return
        uh, ul, err = t._quick(np.array([x]))
        with mp.workprec(400):
            assert abs(mpf(uh[0]) + mpf(ul[0]) - _true_u(t, x)) <= err[0]

    @pytest.mark.parametrize("t", QUICK, ids=lambda t: t.label())
    def test_error_within_its_bound_on_a_seeded_sample(self, t):
        # the bound is tight enough that half of it fails here
        lo, hi = t._quick_range
        xs = _seeded(7)
        xs = xs[(xs >= lo) & (xs <= hi)][::4]
        uh, ul, err = t._quick(xs)
        with mp.workprec(400):
            ratio = max(abs(mpf(h) + mpf(l) - _true_u(t, x)) / mpf(e)
                        for x, h, l, e in zip(xs, uh, ul, err))
        assert 0.5 < ratio <= 1.0

    @pytest.mark.parametrize("t", QUICK, ids=lambda t: t.label())
    def test_handed_out_doubles_are_the_certifiers(self, t):
        certifier = tr._Certifier(t, DEFAULT_POLICY)
        files = [ingest_csv(DATA / f"{name}.csv", column=2).values
                 for name in ("compound_growth", "powers_of_two",
                              "uniform_noise")]
        for xs in files + [_seeded(1)]:
            fracs, outside = certifier.fracs(xs)
            handed = _handed(certifier, xs)
            want = np.array([certifier.frac(BigReal.from_float(v))
                             for v in xs[handed].tolist()])
            assert fracs[handed].tobytes() == want.tobytes()
            assert outside.tolist() == (xs <= 1.0).tolist() if t == LOGLOG \
                else not outside.any()
        assert handed.sum() >= 2000  # on the seeded sample

    @pytest.mark.parametrize("t", QUICK, ids=lambda t: t.label())
    def test_hand_out_rule_in_exact_arithmetic(self, t):
        # u +- (err (1 + 2**-40) + width) strictly inside one 2**-80 cell
        certifier = tr._Certifier(t, DEFAULT_POLICY)
        lo, hi = t._quick_range
        xs = _seeded(3)
        xs = xs[(xs >= lo) & (xs <= hi)]
        uh, ul, err = t._quick(xs)
        width = Fraction(certifier._quick_width)
        inside = []
        for h, l, e in zip(uh, ul, err):
            u, r = Fraction(h) + Fraction(l), Fraction(e) * (
                1 + Fraction(1, 1 << 40)) + width
            a, b = (u - r) * (1 << 80), (u + r) * (1 << 80)
            inside.append(math.floor(a) < a and b < math.floor(a) + 1)
        assert tr._double_double_cells(*t._quick(xs))[0](
            certifier._quick_width).tolist() == inside
        if t == PI_SQUARE:
            # its width leaves some doubles near a cell edge
            assert inside.count(False) > 10

    def test_fallback_cases(self):
        # the log maps hand none of these out; the power maps' integer
        # route hands out the ones listed, each as frac's own double
        edge = [0.0, -0.0, -1.0, -1e300, 5e-324, 2.0 ** -1023]
        cell_0 = [0.0, -0.0, 5e-324, 2.0 ** -1023]
        past_cut = [2.0 ** 40 * 1.0000001, 1e20, 1e300]
        cases = [(LOG10, [10.0 ** k for k in range(23)], []),
                 (LOG2, [2.0 ** k for k in range(-1022, 1024)], []),
                 (Log(7), [7.0 ** k for k in range(19)], []),
                 # x <= 1, x just above 1 (the inner log below its floor)
                 # and 10**(10**k), whose iterated log is an integer
                 (LOGLOG, [0.5, 1.0, math.nextafter(1.0, 2.0),
                           1.0 + 2.0 ** -30, 1.001, 10.0, 1e10], []),
                 # an integer root sits on a cell edge; 1e20 is 1e10 squared
                 (SQRT, [float(n * n) for n in range(1, 200)] + past_cut,
                  [past_cut[0], 1e300]),
                 # past the cut, and below the certifier's own width
                 (PI_SQUARE, [578.0, 1e20, 1e300, 1e-20, 1e-300],
                  [578.0, 1e20, 1e300, 1e-20, 1e-300])]
        cases += [(t, edge, cell_0 if t in (SQRT, PI_SQUARE) else [])
                  for t in QUICK]
        for t, xs, handed in cases:
            xs = np.array(xs)
            certifier = tr._Certifier(t, DEFAULT_POLICY)
            assert xs[_handed(certifier, xs)].tolist() == handed, t.label()
            fracs, outside = certifier.fracs(xs)
            for x, f, out in zip(xs.tolist(), fracs, outside):
                try:
                    assert f == certifier.frac(BigReal.from_float(x))
                except DomainError:
                    assert out and f == 0.0
                else:
                    assert not out

    @pytest.mark.parametrize("t, policy", [
        (LOGLOG, DEFAULT_POLICY), (IDENTITY, DEFAULT_POLICY),
        (Power(3), DEFAULT_POLICY), (Power(1, 2, False), DEFAULT_POLICY),
        # more than 80 agreement bits
        (LOG10, PrecisionPolicy(agreement=30)),
        (PI_SQUARE, PrecisionPolicy(agreement=25)),
        (LOGLOG, PrecisionPolicy(agreement=25)),
    ])
    def test_quick_phase_off(self, t, policy):
        on = t in (SQRT, LOGLOG) and policy == DEFAULT_POLICY
        assert (tr._Certifier(t, policy)._quick_width is not None) == on

    # the integer route, over every finite double; the exact maps hand
    # nothing out and must agree all the same

    @given(x=_EVERY_DOUBLE, t=st.sampled_from(POWERS))
    @settings(max_examples=600, deadline=None)
    def test_integer_route_over_every_double(self, x, t):
        xs = np.array([x])
        certifier = tr._Certifier(t, DEFAULT_POLICY)
        fracs, outside = certifier.fracs(xs)
        try:
            want = certifier.frac(BigReal.from_float(x))
        except DomainError:
            assert outside[0] and fracs[0] == 0.0
        else:
            assert fracs.tobytes() == np.array([want]).tobytes()
        # under a cap that refuses the larger doubles, a handed-out double
        # is still one certify returns, never one it raises for
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tr, "_CAP_DIGITS", 300)
            certifier = tr._Certifier(t, DEFAULT_POLICY)
            got = np.zeros(1)
            if certifier._hand_out(xs, got)[0]:
                assert got.tobytes() == np.array(
                    [certifier.frac(BigReal.from_float(x))]).tobytes()

    @pytest.mark.parametrize("t", ROUTED, ids=lambda t: t.label())
    def test_route_is_floor_of_u_times_2_120(self, t):
        # A = floor(u * 2**120) for the roots, and u * 2**120 in (A - 1,
        # A + 2) under pi, from the smallest double to the largest
        xs = _whole_range(11)
        a, exact = t._scaled(xs)
        assert exact is None
        with mp.workprec(1100 * t.p + 400):
            for x, ai in zip(xs.tolist(), a):
                u = _true_power(t, x) * mpf(2) ** 120
                if t.pi:
                    assert ai - 1 < u < ai + 2, x
                else:
                    assert int(mp.floor(u)) == ai, x

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_pi_power_floor_against_mpmath(self, k):
        # pi**k m 2**(e + 120) in (A - 1, A + 2), with one e for every m
        # and with an e per m, from m = 0 to m 2**e just below 2**big
        rng = random.Random(k)
        ms = [0, 1, 3, 2 ** 53 - 1, 2 ** 200 - 1] + [
            rng.getrandbits(rng.randint(1, 200)) for _ in range(40)]
        es = [rng.randint(-300, 300) for _ in ms]
        for e in (0, -140, 37, np.array(es, dtype=object)):
            m = np.array(ms, dtype=object)
            each = np.broadcast_to(e, m.shape).tolist()
            big = max(0, max(mi.bit_length() + ei
                             for mi, ei in zip(ms, each)))
            a = tr._pi_power_floor(m, e, k, big)
            with mp.workprec(big + 600):
                for mi, ei, ai in zip(ms, each, a):
                    u = mp.pi ** k * mpf(mi) * mpf(2) ** (ei + 120)
                    assert ai - 1 < u < ai + 2, (mi, ei, k)

    @pytest.mark.parametrize("t", ROUTED, ids=lambda t: t.label())
    def test_integer_route_rule(self, t):
        # A's low 40 bits leave 1 + W units below and 2 + W above, W the
        # width in units of 2**-120; in cell 0 the lower margin goes, u
        # being never negative
        certifier = tr._Certifier(t, DEFAULT_POLICY)
        xs = np.concatenate([_whole_range(13), 2.0 ** -np.arange(81.0, 125)])
        a = t._scaled(xs)[0]
        w = int(certifier._quick_width * 2 ** 120)
        inside = []
        for ai in a:
            cell, pos = ai >> 40, ai & ((1 << 40) - 1)
            low = pos >= 1 + w or cell == 0
            inside.append(low and pos + 2 + w <= 1 << 40)
        inside_at, doubles = tr._integer_cells(*t._scaled(xs))
        got = inside_at(certifier._quick_width)
        assert got.tolist() == inside
        assert doubles(got).tolist() == [
            tr._frac_double(ai >> 40 & ((1 << 80) - 1))
            for ai, i in zip(a, inside) if i]
        # u below 2**-80 (2**-124 among them): all handed out
        tiny = got[-44:][np.array([ai < 1 << 40 for ai in a[-44:]])]
        assert tiny.all()

    def test_frac_doubles_is_frac_double(self):
        # random 80-bit cells, halfway cases at every exponent (c / 2**80
        # a tie between two doubles, both mantissa parities), and the
        # cells that round up to 1.0 and are clamped below it; each cell
        # as the integer route splits it (its 40-bit halves, the high one
        # scaled) and as a rounded high part and its exact remainder
        rng = random.Random(80)
        cells = [rng.getrandbits(80) for _ in range(20000)]
        for shift in range(1, 28):
            for parity in (0, 1) * 10:
                m = 1 << 52 | rng.getrandbits(51) << 1 | parity
                cells.append(m << shift | 1 << (shift - 1))
        cells += [0, 1, 2 ** 40 - 1, 2 ** 40, 2 ** 79, 2 ** 80 - 2 ** 27,
                  2 ** 80 - 2 ** 26 - 1, 2 ** 80 - 2 ** 26, 2 ** 80 - 1]
        want = [tr._frac_double(c) for c in cells]
        rounded = [float(c) for c in cells]
        for jh, jl in (([float(c >> 40 << 40) for c in cells],
                        [float(c & (2 ** 40 - 1)) for c in cells]),
                       (rounded, [float(c - int(h))
                                  for c, h in zip(cells, rounded)])):
            got = tr._cell_doubles(np.array(jh), np.array(jl))
            assert got.dtype == np.float64
            assert got.tolist() == want
            assert got[-1] == got[-2] == math.nextafter(1.0, 0.0)
        assert tr._cell_doubles(np.zeros(0), np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("agreement", [12, 24], ids=["a40", "a80"])
    @pytest.mark.parametrize("t", dict.fromkeys(QUICK + ROUTED),
                             ids=lambda t: t.label())
    def test_width_holds_on_every_double_a_route_takes(self, t, agreement):
        # certify's first evaluation of every double a route takes claims
        # at least the bits the width rests on; taken at one end alone the
        # width would promise too many: pi*x**2 claims fewest at the top
        # of the integer route, sqrt at 0.0
        certifier = tr._Certifier(t, PrecisionPolicy(agreement))
        xs = _whole_range(17)
        taken = np.zeros(xs.size, dtype=bool)
        if t._quick_range is not None:
            lo, hi = t._quick_range
            taken |= (xs >= lo) & (xs <= hi)
        if t._integer_route:
            taken |= np.frexp(xs)[1] <= certifier._quick_int_bits
            xs, taken = np.append(xs, 0.0), np.append(taken, True)
        bits = -math.log2(certifier._quick_width)
        for x in xs[taken].tolist():
            b = BigReal.from_float(x)
            r = t._eval_at(b, start_bits(t, b.integer_bits(), certifier.a))
            assert r.precision - r.integer_bits() >= bits, x

    def test_few_doubles_reach_the_certifier(self):
        # under 1% of 26,000 doubles over +-300 decades, where the
        # double-double phase alone left 67% (sqrt) and 85% (pi*x**2)
        xs = _seeded(1)
        for t in (SQRT, PI_SQUARE):
            assert _handed(tr._Certifier(t, DEFAULT_POLICY), xs).mean() > 0.99

    @pytest.mark.parametrize("t, agreement, bound", [
        (Power(50, pi=True), 12, 994), (Power(50, pi=True), 24, 993),
        (Power(99, 2), 12, 1004), (Power(99, 2), 24, 1004)],
        ids=["pi_x50-a40", "pi_x50-a80", "x99_2-a40", "x99_2-a80"])
    def test_one_cap_bound_below_a_doubles_bits(self, t, agreement, bound,
                                                monkeypatch):
        # a cap bound below the doubles' 1,024 integer bits: every double
        # past it goes to the per-value certifier, and on the exact terms
        # n**20 the route stops at the first index whose integer bits pass
        # it, where the rule on the doubled first precision stops too
        certifier = tr._Certifier(t, PrecisionPolicy(agreement))
        assert certifier._quick_int_bits == bound
        rng = np.random.default_rng(bound)
        below = 2.0 ** (bound - 1) * rng.uniform(1.0, 2.0, 20)
        above = np.append(2.0 ** bound * rng.uniform(1.0, 2.0, 20),
                          [2.0 ** bound, sys.float_info.max])
        xs = np.concatenate([below, above])
        handed = _handed(certifier, xs)
        assert handed[:20].any() and not handed[20:].any()
        certified = []
        monkeypatch.setattr(certifier, "frac", lambda x: (
            certified.append((x.mantissa, x.exponent)), 0.0)[1])
        certifier.fracs(xs)
        assert certified == [(x.mantissa, x.exponent) for x in map(
            BigReal.from_float, xs[~handed].tolist())]

        seq = PowerLaw(20.0)

        def int_bits(k):
            return certifier._term_int_bits(seq, int(k))

        first = bisect.bisect_right(range(1, 2 ** 53), bound, key=int_bits) + 1
        assert int_bits(first - 1) <= bound < int_bits(first)
        n = np.arange(first - 100, first + 100)
        seen = []
        monkeypatch.setattr(tr._Certifier, "_routes", staticmethod(
            lambda x, out, fits, *rest: (seen.append(fits), fits & False)[1]))
        certifier._hand_out_terms(seq, n, np.zeros(n.size))
        rule = bisect.bisect_right(range(n.size), certifier.cap, key=lambda i: (
            2 * start_bits(t, int_bits(n[i]), certifier.a)))
        assert rule == 100
        assert seen[0].tolist() == (np.arange(n.size) < rule).tolist()


# ---------------------------------------------------------------------------
# the quick routes on a sequence's terms pi**c m**s

TERM_LOGS = (LOG2, LOG10, Log(7), LOGLOG)
# every kind of transform, each through its step from ln x (`_from_ln`)
FROM_LN = TERM_LOGS + (IDENTITY, SQRT, PI_SQUARE, Power(3), Power(3, 2))


def _from_ln_range(t):
    """(lo, hi): the binary exponents of the x a test of t's `_from_ln`
    draws. The logs take every normal double, the iterated log x > 1,
    and a power map x >= 1 to just past the exp2 cut."""
    if t == LOGLOG:
        return 0.0, 1023.99
    if not isinstance(t, Power):
        return -1022.0, 1023.99
    return 0.0, (math.log2(tr._EXP2_U_MAX / t._c) + 0.5) / t._a


def _u_of_ln(t, ln_x):
    """u(x) from ln x in mpmath (the caller sets the precision)."""
    if t == LOGLOG:
        return mp.log10(ln_x / mp.log(10))
    if not isinstance(t, Power):
        return ln_x / mp.log(t.base)
    return mp.pi ** t.pi * mp.exp(mpf(t.p) / t.q * ln_x)


def _true_term_u(t, m, s, c):
    """u(pi**c m**s) in mpmath (the caller sets the precision)."""
    x = mp.pi ** c * mpf(m) ** mpf(s)
    if t == LOGLOG:
        return mp.log10(mp.log10(x))
    return mp.log(x) / mp.log(t.base)


# (m, s): m up to 2**53 and next to powers of 2 and 10, s = 1/2, 1, a
# double exponent of either benchmark range; and s that put the iterated
# log's inner log y = s log10 m next to its floor _LOGLOG_Y_MIN
_TERM_M = st.one_of(
    st.integers(1, (1 << 53) - 1), st.integers(1, 10 ** 4),
    st.tuples(st.integers(0, 52), st.integers(-3, 3)).map(
        lambda a: max(1, (1 << a[0]) + a[1])),
    st.tuples(st.integers(0, 15), st.integers(-3, 3)).map(
        lambda a: max(1, 10 ** a[0] + a[1])))
_TERM_S = st.one_of(st.just(0.5), st.just(1.0),
                    st.floats(2.0 ** -12, 1.0), st.floats(20.0, 60.0))
_TERM_MS = st.one_of(
    st.tuples(_TERM_M, _TERM_S),
    st.tuples(st.integers(2, 10 ** 6), st.integers(-3, 3)).map(
        lambda a: (a[0], _nudge(tr._LOGLOG_Y_MIN / math.log10(a[0]),
                                a[1]))))
_SLACK = 1 + Fraction(1, 1 << 40)  # the certifier's factor on err


class _FormTerms(Sequence):
    """A sequence whose term n is pi**c m_n**s, for the integers m_n given
    in order of n (one m for every term where one is given): it states ln
    x_n = s ln m_n + c ln pi, a form's ln on an arbitrary m, on which the
    routes on terms read, and no integer phase."""

    def __init__(self, s, c, m):
        self.form, self._m = (s, c), np.atleast_1d(np.array(m, dtype=float))
        self._ln_range = (1.0, float(self._m.size))

    def _ln_terms(self, n):
        return super()._ln_terms(self._m[n.astype(np.intp) - 1])

    def _power_floors(self, p, q, pi):
        return None


def _true_ln(seq, n):
    """ln x_n in mpmath (the caller sets the precision)."""
    if seq.name == "exp_n":
        return mpf(n)
    if seq.name == "factorial":
        return mp.loggamma(n + 1)
    if seq.name == "n_pow_n":
        return n * mp.log(n)
    if seq.name == "power_law(1/pi)":
        return mp.log(n) / mp.pi
    s, c = seq.form
    m = seq._m[n - 1] if isinstance(seq, _FormTerms) else n
    return c * mp.log(mp.pi) + mpf(s) * mp.log(mpf(m))


# the sequences without a form, one of each kind of form, and the form
# on an arbitrary m (`_FormTerms`), here the primes
_LN_SEQUENCES = ("exp_n", "factorial", "n_pow_n", "power_law:1/pi", "sqrt_n",
                 "pi_n", "primes", "power_law:0.367427", "power_law:41.635")

# an operand (hi, lo, err) of `_fma`: hi of either sign from 2**-400 to
# 2**400 in magnitude, or 0 with a lo alone, as _exp2's reduced argument
# is where 256 y is an integer; lo up to half an ulp of hi, or the scalar
# 0.0 that marks an exact part; err the scalar 0.0 or 2**-k |hi + lo|
_FMA_HI = st.tuples(st.floats(2.0 ** -400, 2.0 ** 400),
                    st.sampled_from((1.0, -1.0))).map(lambda a: a[0] * a[1])
_FMA_OPERAND = st.tuples(
    st.one_of(
        st.tuples(_FMA_HI, st.one_of(st.just(None), st.floats(-1.0, 1.0)))
        .map(lambda a: (a[0], 0.0 if a[1] is None
                        else a[1] * math.ulp(a[0]) / 2)),
        _FMA_HI.map(lambda lo: (0.0, lo))),
    st.one_of(st.just(None), st.integers(40, 110))).map(
    lambda a: (*a[0], 0.0 if a[1] is None
               else (abs(a[0][0]) + abs(a[0][1])) * 2.0 ** -a[1]))
# a double-double operand (hi, lo) of either sign over 400 binades, so
# that no product of parts leaves the normal range: zero, hi with lo a
# multiple of 2**-20 of ulp(hi)/2, or 0 with a lo alone, as _exp2's
# reduced argument is where 256 y is an integer
_DD_SIGNED = st.tuples(st.floats(2.0 ** -200, 2.0 ** 200),
                       st.sampled_from((1.0, -1.0))).map(
    lambda a: a[0] * a[1])
_DD_OPERAND = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(_DD_SIGNED, st.integers(-2 ** 20, 2 ** 20)).map(
        lambda a: (a[0], a[1] * 2.0 ** -21 * math.ulp(a[0]))),
    _DD_SIGNED.map(lambda lo: (0.0, lo)))
# (2**53 + 1)/3: 3 2**-55 times it, 2**-53 (1 + 2**-53), rounds to 2**-53
# with the largest error a rounding can make, 2**-53 of its result
_TIE = (2 ** 53 + 1) // 3

# the exp2 route of the power maps on terms pi**k m**e, as a power map u
# composes it with the form pi**c m**s: (u, s/e, c) for each k
_EXP2_E = st.one_of(st.just(0.25), st.just(0.5), st.floats(0.1, 1.0))
_EXP2_K = {0.0: (IDENTITY, 1.0, 0), 0.5: (SQRT, 2.0, 1),
           1.0: (IDENTITY, 1.0, 1), 3.0: (PI_SQUARE, 0.5, 1)}


def _exp2_route(e, k, ms):
    """The double-double phase of the one route on the terms pi**c m**s
    that u sends to pi**k m**e, for the integers ms as the terms n = 1,
    2, ..."""
    t, f, c = _EXP2_K[k]
    return tr._term_phases(t, _FormTerms(e * f, c, ms))[0][2]


def _exp2_m(e, k, f):
    """An integer m >= 1 whose u = pi**k m**e lies below the cut,
    log-uniform in f."""
    hi = min((tr._EXP2_U_MAX / math.pi ** k) ** (1 / e) * (1 - 2.0 ** -40),
             2.0 ** 53 - 1)
    return max(1, min(int(hi), int(hi ** f)))


def _exp2_ratio(e, k, ms):
    """The largest |uh + ul - u| / err of the route's double-double phase
    over the integers ms (mpmath at 400 bits)."""
    uh, ul, err = _exp2_route(e, k, ms)(np.arange(1.0, len(ms) + 1))
    with mp.workprec(400):
        return max(abs(mpf(h) + mpf(l) - mp.pi ** mpf(k) * mpf(m) ** mpf(e))
                   / mpf(b) for m, h, l, b in zip(ms, uh, ul, err))


def _has_phase(phases):
    """Whether the quick phases on a sequence's terms (`_term_phases`)
    hold one to run; _Certifier._hand_out_terms hands out nothing
    through them where they hold none."""
    return phases != (None, None)


class TestTermRoutes:
    """The quick phase on a sequence's terms, from the ln x_n the sequence
    states (s ln m + c ln pi for terms pi**c m**s): for the logs that over
    ln b, and the outer log10 of that for the iterated log; for the power
    maps u = c x**a the one route 2**((a ln x_n + k ln pi) / ln 2) (the
    exp2 route); each within its proved bound, sound for every input
    within its stated error, and tight where one part of the bound
    dominates."""

    @given(ms=_TERM_MS, c=st.integers(0, 1), t=st.sampled_from(TERM_LOGS))
    @settings(max_examples=500, deadline=None)
    def test_composed_error_within_its_bound(self, ms, c, t):
        m, s = ms
        quick, _ = tr._term_phases(t, _FormTerms(s, c, m))
        uh, ul, err = quick[2](np.ones(1))
        with mp.workprec(400):
            if err[0] == 1.0:
                # only the iterated log falls back, where y is below 2**-10
                y = c * mp.log10(mp.pi) + s * mp.log10(m)
                assert t == LOGLOG and y < tr._LOGLOG_Y_MIN * (1 + 2 ** -40)
                return
            miss = abs(mpf(uh[0]) + mpf(ul[0]) - _true_term_u(t, m, s, c))
            assert miss <= mpf(err[0]) * (1 + mpf(2) ** -40)

    @given(t=st.sampled_from(FROM_LN), z=st.floats(0.0, 1.0),
           r=st.floats(-1.0, 1.0), k=st.integers(60, 120))
    @settings(max_examples=600, deadline=None)
    def test_from_ln_holds_for_an_inexact_ln(self, t, z, r, k):
        # u from ln x shifted by up to 2**-k |ln x|, that shift added to
        # its bound: u at both ends of the widened interval lies within
        # the result's bound; where the shift is the bound's main part
        # the worse end takes over 0.9 of it
        lo, hi = _from_ln_range(t)
        x = 2.0 ** (lo + z * (hi - lo))
        lh, ll, err = tr._ln(np.array([x]))
        add = abs(lh[0]) * 2.0 ** -k
        h, l = tr._two_sum(lh, ll + r * add)
        shift = Fraction(h[0]) + Fraction(l[0]) - Fraction(lh[0]) \
            - Fraction(ll[0])
        e_in = math.nextafter(float(Fraction(err[0]) + abs(shift)), math.inf)
        uh, ul, bound = t._from_ln(h, l, np.array([e_in]))
        with mp.workprec(400):
            ends = [_u_of_ln(t, mpf(h[0]) + mpf(l[0]) + d)
                    for d in (-mpf(e_in), mpf(e_in))]
            if bound[0] == 1.0:
                # a fallback: the iterated log's inner log below its floor
                # or too inexact, a power map's u past the exp2 cut
                assert t == LOGLOG or isinstance(t, Power) \
                    and ends[0] > tr._EXP2_U_MAX * (1 - 2.0 ** -30)
                return
            v = mpf(uh[0]) + mpf(ul[0])
            worst = max(abs(u - v) for u in ends)
            assert worst <= mpf(bound[0]) * (1 + mpf(2) ** -40)
            assert abs(_u_of_ln(t, mp.log(x)) - v) <= mpf(bound[0]) * (
                1 + mpf(2) ** -40)
            if abs(shift) >= Fraction(abs(lh[0])) / 2 ** 80 >= 2.0 ** -90:
                assert worst > 0.9 * bound[0]

    @pytest.mark.parametrize("base", [2, 3, 7, 10, 1000, 2 ** 100 + 1])
    def test_log_pi_constant(self, base):
        # log_b pi as the routes build it, ln pi times 1/ln b (`_fma`):
        # the exp2 route's pi term for b = 2
        hi, lo, err = tr._fma(tuple(np.array([v]) for v in tr._quick_ln_pi()),
                              tr._quick_inv_ln(base))
        with mp.workprec(400):
            miss = abs(mpf(hi[0]) + mpf(lo[0]) - mp.log(mp.pi) / mp.log(base))
            assert miss <= err[0] <= 2.0 ** -104

    @given(a=_DD_OPERAND, b=_DD_OPERAND)
    @settings(max_examples=300, deadline=None)
    def test_dd_mul_holds_at_its_inputs_extremes(self, a, b):
        # the exact product of two double-doubles, zeros and both signs
        # among them, lies within `_fma`'s bound of vh + vl: A B alone,
        # both lo parts arrays and both operands exact
        (ah, al), (bh, bl) = a, b
        vh, vl, loss = tr._fma((np.array([ah]), np.array([al]), 0.0),
                               (np.array([bh]), np.array([bl]), 0.0))
        want = (Fraction(ah) + Fraction(al)) * (Fraction(bh) + Fraction(bl))
        assert abs(want - Fraction(vh[0]) - Fraction(vl[0])) \
            <= Fraction(loss[0]) * _SLACK

    @given(lh=st.one_of(st.just(0.0), st.tuples(
               st.floats(2.0 ** -20, 40.0), st.sampled_from((1.0, -1.0))
           ).map(lambda a: a[0] * a[1])),
           r=st.floats(-1.0, 1.0), e=st.floats(2.0 ** -110, 2.0 ** -60),
           s=st.one_of(st.just(0.5), st.floats(2.0 ** -12, 64.0)),
           ch=st.floats(-3.0, 3.0), rc=st.floats(-1.0, 1.0),
           ec=st.floats(2.0 ** -110, 2.0 ** -60))
    @settings(max_examples=300, deadline=None)
    def test_scale_shift_holds_at_its_inputs_extremes(self, lh, r, e, s, ch,
                                                      rc, ec):
        # s L + C, as `_fma` forms it for an exact scalar s and a scalar
        # constant C, for every L within e of lh + ll and C within ec of
        # ch + cl: the bound must cover the four corners, exactly
        ll, cl = r * math.ulp(lh) / 2, rc * math.ulp(ch) / 2
        vh, vl, err = tr._fma((s, 0.0, 0.0),
                              (np.array([lh]), np.array([ll]), np.array([e])),
                              (ch, cl, ec))
        v, bound = Fraction(vh[0]) + Fraction(vl[0]), Fraction(err[0])
        for de in (-e, e):
            for dc in (-ec, ec):
                want = (Fraction(s) * (Fraction(lh) + Fraction(ll)
                                       + Fraction(de))
                        + Fraction(ch) + Fraction(cl) + Fraction(dc))
                assert abs(want - v) <= bound * _SLACK

    # every rounding the bound counts made as large as it can be, a tie
    # above a power of two: without C, low + m2 rounds 2**-53 + 2**-106
    # down; with C, so does m1 + m2, and low + m by C's 2**-113
    @example(a=(1.0, 3 * 2.0 ** -55, 0.0), b=(_TIE * 2.0 ** -51, 2.0 ** -106,
                                             0.0), c=None)
    @example(a=(1.0, 3 * 2.0 ** -55, 0.0), b=(_TIE * 2.0 ** -51, 2.0 ** -106,
                                             0.0), c=(2.0 ** -113, 0.0, 0.0))
    @example(a=(1.0, 0.0, 0.0), b=(1.0, 0.0, 2.0 ** -60), c=None)
    @given(a=_FMA_OPERAND, b=_FMA_OPERAND,
           c=st.one_of(st.none(), _FMA_OPERAND, st.just("cancel")))
    @settings(max_examples=400, deadline=None)
    def test_fma_holds_at_its_inputs_extremes(self, a, b, c):
        # A B + C, or A B alone, for every A, B and C within their errors
        # of hi + lo: the bound covers each corner, exactly; hi is passed
        # as an array, an exact lo or err as the scalar 0.0, and C may
        # cancel A B's leading part
        if c == "cancel":
            c = (-(a[0] * b[0]), a[1] * b[0], 0.0)
        vh, vl, err = tr._fma(*(
            (np.array([op[0]]),
             *(v if tr._exact(v) else np.array([v]) for v in op[1:]))
            for op in (a, b, c) if op is not None))
        v, bound = Fraction(vh[0]) + Fraction(vl[0]), Fraction(
            float(np.max(err)))
        (ah, al, ea), (bh, bl, eb) = a, b
        ch, cl, ec = c or (0.0, 0.0, 0.0)
        for da in (-ea, ea):
            for db in (-eb, eb):
                for dc in (-ec, ec):
                    want = ((Fraction(ah) + Fraction(al) + Fraction(da))
                            * (Fraction(bh) + Fraction(bl) + Fraction(db))
                            + Fraction(ch) + Fraction(cl) + Fraction(dc))
                    assert abs(want - v) <= bound * _SLACK

    @given(yh=st.floats(2.0 ** -10, 1100.0), r=st.floats(-1.0, 1.0),
           k=st.integers(60, 110))
    @settings(max_examples=300, deadline=None)
    def test_log10_of_holds_at_its_inputs_extremes(self, yh, r, k):
        # log10 y for every y within e1 of yh + yl
        yl, e1 = r * math.ulp(yh) / 2, yh * 2.0 ** -k
        vh, vl, err = tr._log10_of(np.array([yh]), np.array([yl]),
                                   np.array([e1]))
        assert err[0] < 1.0
        with mp.workprec(300):
            v = mpf(vh[0]) + mpf(vl[0])
            for d in (-e1, e1):
                y = mpf(yh) + mpf(yl) + mpf(d)
                assert abs(mp.log10(y) - v) <= mpf(err[0]) * (
                    1 + mpf(2) ** -40)

    def test_log10_of_falls_back_below_its_floor(self):
        floor = tr._LOGLOG_Y_MIN
        yh = np.array([floor, math.nextafter(floor, 0.0), 0.0, -1.0, 1.0,
                       1.0])
        e1 = np.array([0.0, 0.0, 0.0, 0.0, 2.0 ** -60, 2.0 ** -59])
        err = tr._log10_of(yh, np.zeros(6), e1)[2]
        assert (err == 1.0).tolist() == [False, True, True, True, False,
                                         True]

    def test_every_sequence_takes_one_route_on_terms(self):
        # every sequence but the primes takes the one route on its
        # indices under every map, the exact maps among them; the primes
        # state their terms as doubles instead, and take the doubles'
        # routes (test_primes_take_the_doubles_routes)
        n = np.arange(1, 9)
        for name in ("sqrt_n", "pi_n", "exp_n", "factorial", "n_pow_n",
                     "power_law:1/pi", "power_law:0.5", "power_law:1.5",
                     "power_law:3", "power_law:23.1317"):
            seq = parse_sequence(name)
            assert seq._doubles(n) is None
            for t in TERM_LOGS + POWERS:
                assert _has_phase(tr._term_phases(t, seq)), (name, t.label())
        assert Primes()._doubles(n).tolist() == [2.0, 3.0, 5.0, 7.0, 11.0,
                                                 13.0, 17.0, 19.0]
        # an exponent past _fma's range states no ln x_n, and
        # takes no route
        assert not _has_phase(tr._term_phases(SQRT, PowerLaw(2.0 ** -401)))
        # the form's integer phase, where s p is an integer, takes every
        # term alone: pi_n under pi*x**p, pi**(p + 1) n**p, and sqrt_n
        # under pi*x**2, pi n; sqrt_n under pi*x**3 takes the exp2 route
        for t, seq in ((PI_SQUARE, PiN()), (Power(3, pi=True), PiN()),
                       (PI_SQUARE, SqrtN())):
            quick, scaled = tr._term_phases(t, seq)
            assert scaled is not None and quick is None
        quick, scaled = tr._term_phases(Power(3, pi=True), SqrtN())
        assert scaled is None
        assert quick[:2] == (2.0, 2.0 ** 53 - 1)

    @pytest.mark.parametrize("agreement", [12, 24], ids=["a40", "a80"])
    @pytest.mark.parametrize("t", dict.fromkeys(QUICK + ROUTED),
                             ids=lambda t: t.label())
    def test_primes_take_the_doubles_routes(self, t, agreement):
        # the primes' terms, exact doubles, hand out what the doubles'
        # routes hand out on p_n as doubles, mask and bytes, in the first
        # block and in one past it; each double the certifier's own
        certifier = tr._Certifier(t, PrecisionPolicy(agreement))
        for n in (np.arange(1, 1500), np.arange(5000, 6000)):
            p = np.array([nth_prime(k) for k in n.tolist()], dtype=float)
            got, want = np.zeros(n.size), np.zeros(n.size)
            mask = certifier._hand_out_terms(Primes(), n, got)
            assert mask.tolist() == certifier._hand_out(p, want).tolist()
            assert got.tobytes() == want.tobytes()
            assert mask.mean() > 0.9
            assert got[mask].tolist() == [certifier._term_frac(Primes(), k)
                                          for k in n[mask].tolist()]

    def test_exp2_route_takes_nothing_past_its_cut(self, monkeypatch):
        # the bound holds at least _EXP2_REMAINDER u, more than half a
        # cell past the cut
        assert tr._EXP2_REMAINDER * tr._EXP2_U_MAX / (1 + 2.0 ** -9) \
            >= 2.0 ** -81
        u = np.array([tr._EXP2_U_MAX * 0.999])
        y = tr._fma((1.0, 0.0, 0.0), tr.LOG2._quick(u))
        assert tr._exp2(*y)[2][0] > 2.0 ** -81 * 0.999
        # the leading terms up to the cut run _exp2; every term from the
        # first past it gets err 1, a later one back below the cut too
        for e, k in [(0.5, 0.5), (2.0, 3.0), (0.9, 0.0)]:
            edge = (tr._EXP2_U_MAX / math.pi ** k) ** (1 / e)
            ms = [1, 2, int(edge * (1 - 2.0 ** -30)),
                  int(edge * (1 + 2.0 ** -30)) + 1, 3]
            err = _exp2_route(e, k, ms)(np.arange(1.0, 6.0))[2]
            assert (err < 1.0).tolist() == [True, True, True, False, False]
        # sub-linear power laws take every m below 2**53
        err = _exp2_route(0.25, 0.0, [2.0 ** 53 - 1])(np.ones(1))[2]
        assert err[0] < 2.0 ** -85
        # a block whose first term is past the cut runs no _exp2: the
        # steep power laws under pi*x**2 from n = 2 on
        monkeypatch.setattr(tr, "_exp2", None)
        n = np.arange(2.0, 1001.0)
        for alpha in (23.1317, 41.635, 55.6231):
            quick, _ = tr._term_phases(PI_SQUARE, PowerLaw(alpha))
            assert quick[:2] == (2.0, 2.0 ** 53 - 1)
            assert (quick[2](n)[2] == 1.0).all()

    def test_logs_compose_within_their_scale_range(self):
        # a form states ln x_n for s in _fma's range, and the logs
        # compose with it there only
        for a, routed in ((2.0 ** -400, True), (2.0 ** 400, True),
                          (2.0 ** -401, False), (2.0 ** 401, False)):
            seq = PowerLaw(a)
            assert (seq._ln_range is not None) == routed
            for t in TERM_LOGS:
                assert _has_phase(tr._term_phases(t, seq)) == routed

    @given(e=_EXP2_E, k=st.sampled_from((0.0, 0.5, 1.0, 3.0)),
           f=st.floats(0.0, 1.0))
    @settings(max_examples=400, deadline=None)
    def test_power_error_within_its_bound(self, e, k, f):
        assert _exp2_ratio(e, k, [_exp2_m(e, k, f)]) <= 1 + mpf(2) ** -40

    @pytest.mark.parametrize("k", [0.0, 0.5])
    def test_power_error_on_a_seeded_sample(self, k):
        # e = 1/4 and 1/2, and seeded doubles in (0.1, 1), each on m
        # log-uniform up to the cut: the bound is tight enough that over a
        # third of it fails somewhere
        rng = random.Random(28)
        ratio = 0
        for e in [0.25, 0.5] + [rng.uniform(0.1, 1.0) for _ in range(6)]:
            ratio = max(ratio, _exp2_ratio(e, k, [
                _exp2_m(e, k, rng.random()) for _ in range(1000)]))
        assert 0.35 < ratio <= 1 + mpf(2) ** -40

    @given(yh=st.one_of(st.floats(0.0, 40.0), st.floats(0.0, 1000.0)),
           r=st.floats(-1.0, 1.0), ey=st.one_of(
               st.just(0.0), st.floats(2.0 ** -110, 2.0 ** -60)))
    @settings(max_examples=400, deadline=None)
    def test_exp2_holds_at_its_inputs_extremes(self, yh, r, ey):
        # 2**y for every y within ey of yh + yl; where ey is the bound's
        # main part, the worse end of y takes over 0.9 of the bound
        yl = r * math.ulp(yh) / 2
        uh, ul, err = tr._exp2(np.array([yh]), np.array([yl]),
                               np.array([ey]))
        with mp.workprec(400):
            v, bound = mpf(uh[0]) + mpf(ul[0]), mpf(err[0])
            worst = max(abs(mpf(2) ** (mpf(yh) + mpf(yl) + d) - v)
                        for d in (-mpf(ey), mpf(ey)))
            assert worst <= bound * (1 + mpf(2) ** -40)
            if ey >= 2.0 ** -85:
                assert worst > 0.9 * bound

    @pytest.mark.parametrize("t", [0, 1, 255, 256, 1001, 5000, 12345])
    def test_exp2_at_the_reductions_ends(self, t):
        # y as far from t/256 as the reduction lets it be, |z| near
        # _EXP2_Z_MAX: the polynomial's remainder is then most of the
        # miss, on the side of z
        for side in (1.0, -1.0):
            if t == 0 and side < 0:
                continue
            yh = (t + side * (0.5 - 2.0 ** -30)) / 256
            uh, ul, err = tr._exp2(np.array([yh]), np.zeros(1), np.zeros(1))
            with mp.workprec(400):
                miss = mpf(2) ** mpf(yh) - mpf(uh[0]) - mpf(ul[0])
                assert abs(miss) <= mpf(err[0]) * (1 + mpf(2) ** -40)
                if side > 0:
                    assert miss > 0.5 * tr._EXP2_REMAINDER * uh[0]

    def test_exp2_table_and_coefficients(self):
        hi, lo, err, taylor = tr._quick_exp2_table()
        with mp.workprec(400):
            for j in range(256):
                assert abs(mpf(hi[j]) + mpf(lo[j]) - mpf(2) ** (mpf(j) / 256)
                           ) <= err
            for i, (h, l, e) in enumerate(taylor):
                assert abs(mpf(h) + mpf(l) - 1 / mp.factorial(i)) <= e
        assert err <= 2.0 ** -104

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_power_integer_route_is_floor_of_u_times_2_120(self, p):
        # pi_n under pi*x**p, u = pi**(p + 1) n**p: u * 2**120 in (A - 1,
        # A + 2), from n = 1 to the largest n below 2**53, in one block
        # and term by term
        rng = random.Random(p)
        ns = sorted({1, 2, 3, 535, 536, 10 ** 4, 2 ** 53 - 1} | {
            int(2 ** rng.uniform(0, 53)) for _ in range(60)})
        quick, scaled = tr._term_phases(Power(p, pi=True), PiN())
        assert scaled is not None and quick is None
        for n in [ns] + [[k] for k in ns]:
            a = scaled(np.array(n, dtype=np.float64))[0]
            with mp.workprec(53 * p + 400):
                for k, ai in zip(n, a):
                    u = mp.pi ** (p + 1) * mpf(k) ** p * mpf(2) ** 120
                    assert ai - 1 < u < ai + 2, (k, p)

    # the ln x_n each sequence states, and the routes that read it

    @given(name=st.sampled_from(_LN_SEQUENCES),
           n=st.one_of(st.integers(1, 2 ** 20), st.integers(1, 64)))
    @settings(max_examples=500, deadline=None)
    def test_stated_ln_within_its_bound(self, name, n):
        if name == "primes":
            n = n % 2 ** 14 + 1  # a sieve of 2**20 primes is slow
            seq = _FormTerms(1.0, 0, [nth_prime(k) for k in range(1, n + 1)])
        else:
            seq = parse_sequence(name)
        lo, hi = seq._ln_range
        if not lo <= n <= hi:
            return
        lh, ll, err = seq._ln_terms(np.array([float(n)]))
        with mp.workprec(400):
            miss = abs(mpf(lh[0]) + mpf(ll[0]) - _true_ln(seq, n))
            assert miss <= mpf(err[0]) * (1 + mpf(2) ** -40)

    def test_stirling_remainder_fills_its_bound_at_the_cut(self):
        # at the first n the series serves its remainder is most of the
        # bound, which fails without it; far past it the roundings rule
        lo = Factorial()._ln_range[0]
        assert lo == 16.0
        n = np.concatenate([np.arange(lo, lo + 8), [1000.0, 2.0 ** 20]])
        lh, ll, err = Factorial()._ln_terms(n)
        with mp.workprec(400):
            ratio = [abs(mpf(h) + mpf(l) - mp.loggamma(k + 1)) / mpf(e)
                     for h, l, e, k in zip(lh, ll, err, n)]
        assert max(ratio) <= 1 + mpf(2) ** -40 and ratio[0] > 0.5
        assert err[0] < 2.0 ** -95 and err[-2] < 2.0 ** -88

    @given(n=st.integers(2, 2 ** 20), t=st.sampled_from(
        (IDENTITY, SQRT, PI_SQUARE, Power(3))))
    @settings(max_examples=300, deadline=None)
    def test_inv_pi_power_within_its_bound(self, n, t):
        # n**(1/pi) under the power maps: the exp2 route on ln n / pi
        seq = PowerLaw("1/pi")
        lo, hi, phase = tr._term_phases(t, seq)[0]
        assert lo == 2.0 and hi >= 2 ** 20
        uh, ul, err = phase(np.array([float(n)]))
        with mp.workprec(400):
            u = mp.pi ** t.pi * mpf(n) ** (mpf(t.p) / t.q / mp.pi)
            miss = abs(mpf(uh[0]) + mpf(ul[0]) - u)
            assert miss <= mpf(err[0]) * (1 + mpf(2) ** -40)
        assert err[0] < 2.0 ** -90 * u

    def test_terms_routes_of_the_sequences_without_a_form(self):
        # the logs read ln x_n everywhere; the power maps take the one
        # route on the indices, whose integer phase alone takes n! and e**n
        # under pi*x**p as running products, n**n under pi*x**p modulo 1,
        # and e**n, n! and n**n under x**(p/2); n**(1/pi) states no phase
        for name in ("exp_n", "factorial", "n_pow_n", "power_law:1/pi"):
            seq = parse_sequence(name)
            for t in TERM_LOGS:
                assert _has_phase(tr._term_phases(t, seq))
            for t in (IDENTITY, SQRT, Power(3, 2), PI_SQUARE,
                      Power(3, pi=True)):
                quick, scaled = phases = tr._term_phases(t, seq)
                run = name != "power_law:1/pi" and (t.pi or t.q == 2)
                assert _has_phase(phases), (name, t)
                assert (scaled is not None) == run
                assert (quick[:2] if quick else None) == (
                    None if run else seq._ln_range)

    @pytest.mark.parametrize("t", [PI_SQUARE, Power(3, pi=True)],
                             ids=lambda t: t.label())
    def test_running_product_is_the_pi_power_floor(self, t):
        # the integers _pi_power_floor builds per term, from the block's
        # largest, whole and filtered; and u 2**120 in (A - 1, A + 2)
        scaled = tr._term_phases(t, Factorial())[1]
        for n in (np.arange(1, 300), np.array([1, 2, 5, 40, 41, 299]),
                  np.array([7]), np.array([150, 151])):
            a, exact = scaled(n.astype(np.float64))
            assert exact is None
            m = [math.factorial(k) ** t.p for k in n.tolist()]
            want = tr._pi_power_floor(np.array(m, dtype=object), 0, 1,
                                      m[-1].bit_length())
            assert a.tolist() == want.tolist()
        with mp.workprec(t.p * 2000 + 400):
            for k, ai in zip([1, 2, 5, 40, 41, 299], scaled(
                    np.array([1.0, 2, 5, 40, 41, 299]))[0]):
                u = mp.pi * mpf(math.factorial(k)) ** t.p * mpf(2) ** 120
                assert ai - 1 < u < ai + 2


# ---------------------------------------------------------------------------
# the square root of an integer past every double


class TestWideRoots:
    """Power's roots of exact integers past every double: the residue
    filter ahead of the square test, and the root at the fractional bits
    its first working precision sizes."""

    def test_residue_filter_never_rejects_a_square(self):
        rng = random.Random(31)
        squares = [n ** n for n in range(2, 1001, 2)]
        squares += [rng.getrandbits(b) ** 2 for b in range(1, 4000, 13)]
        # the squares of doubles, integral and not, as integers
        squares += [Fraction(x).numerator ** 2 for x in _whole_range(31)]
        squares += [0, 1, 4, (2 ** 1023) ** 2]
        assert not any(tr._no_square(m) for m in squares)

    def test_residue_filter_rejects_most_non_squares(self):
        fact = [math.factorial(n) for n in range(2, 1001)]
        odd = [n ** n for n in range(3, 1001, 2) if math.isqrt(n) ** 2 != n]
        assert sum(map(tr._no_square, fact)) >= 990
        assert sum(map(tr._no_square, odd)) >= 0.99 * len(odd)

    def test_exact_roots_past_every_double(self):
        # squares and n**n for even n stay exact; odd n**n is exact only
        # for a square n
        for n in (170, 171, 400, 441, 999, 1000):
            r = SQRT._try_exact(BigReal.from_int(n ** n))
            assert (r is not None) == (n % 2 == 0 or math.isqrt(n) ** 2 == n)
            if r is not None:
                assert exact(r) ** 2 == n ** n
        k = 3 ** 1000
        assert exact(SQRT._try_exact(BigReal.from_int(k * k))) == k
        assert exact(Power(3, 2)._try_exact(BigReal.from_int(k * k))) == k ** 3

    @pytest.mark.parametrize("t", [SQRT, Power(3, 2)], ids=lambda t: t.label())
    def test_sized_root_claims_the_guard_bits(self, t):
        # every bit length past the doubles, where the root's integer bits
        # reach start_bits's estimate: the claim covers the guard and
        # agreement bits, and the 80 leading fractional bits are those of
        # the root taken at w fractional bits
        a = digits_to_bits(DEFAULT_POLICY.agreement)
        rng = random.Random(47)
        for bits in range(1025, 1200):
            x = BigReal.from_int(rng.getrandbits(bits) | 1 << (bits - 1))
            w = start_bits(t, x.integer_bits(), a)
            r = t._eval_at(x, w)
            assert r.precision - r.integer_bits() >= tr._GUARD_BITS + a
            m = x.mantissa ** t.p
            assert r.mantissa == math.isqrt(m << 2 * -r.exponent)
            assert r._frac_bits(80) == math.isqrt(m << 2 * w) >> (w - 80) \
                & (1 << 80) - 1
