"""Transform evaluation: exact fast paths, certified escalation, domains."""

import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
        got = r.frac(40)
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
        policy = PrecisionPolicy(agreement=12, cap=70)
        with pytest.raises(PrecisionCapExceeded):
            eval_transform(BigReal.from_int(10 ** 40 + 7), PI_SQUARE, policy)

    def test_cap_bounds_the_precision_evaluated(self):
        # the cap bounds the one working precision each round evaluates, so
        # a term that certifies at its starting 117 bits passes a 213-bit
        # cap, and one that needs a near-integer doubling to 234 does not
        seen = []

        class Spy(Log):
            def _eval_at(self, x, w, constants):
                seen.append(w)
                return super()._eval_at(x, w, constants)

        policy = PrecisionPolicy(cap=64)
        got = eval_transform(BigReal.from_int(12345), Spy(10), policy)
        assert abs(got.frac(40) - math.log10(12345) % 1.0) < 1e-12
        with pytest.raises(PrecisionCapExceeded):
            eval_transform(BigReal.from_int(10 ** 40 + 1), Spy(10), policy)
        assert seen == [117, 117]

    def test_input_limited_raises_then_regenerates(self):
        coarse = pi_real(digits_to_bits(13))
        with pytest.raises(InsufficientPrecision):
            eval_transform(coarse, PI_SQUARE)
        fine = pi_real(digits_to_bits(40))
        got = eval_transform(fine, PI_SQUARE).frac(40)
        assert abs(got - mp_frac(lambda: mp.pi ** 3)) < 1e-12

    @pytest.mark.parametrize("k, p", [(80, 200), (80, 500), (80, 2000),
                                      (1000, 1100), (1000, 4000)])
    def test_loglog_near_one_escalates_on_inexact_input(self, k, p):
        # log10(1 + 2**-k) cancels k bits, so the 107-bit start is the
        # limit, not the input's p bits: w must double. At k = 1000 the
        # inner log vanishes at 107 and 214 bits; those zero-bit claims
        # are no doubling without gain
        x = BigReal((1 << k) + 1, -k, p, False)
        got = eval_transform(x, LOGLOG).frac(40)
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
        # input keeps doubling up to the cap (300 digits, 997 bits), an
        # inexact one is refused
        # at the first doubling that gained no certified bits
        seen = []

        class Stuck(LogLog):
            def _eval_at(self, x, w, constants):
                seen.append(w)
                return super()._eval_at(x, seen[0],
                                        self._constants(seen[0]))

        x = BigReal((1 << 80) + 1, -80, 2000, exact)
        policy = PrecisionPolicy(cap=300)
        want = PrecisionCapExceeded if exact else InsufficientPrecision
        with pytest.raises(want):
            eval_transform(x, Stuck(), policy)
        assert seen == ([107, 214, 428, 856] if exact else [107, 214])

    @pytest.mark.parametrize("k", [200, 1000])
    def test_loglog_vanished_inner_log_escalates_on_exact_input(self, k):
        # log10(1 + 2**-k) vanishes at the 107-bit start: the evaluator
        # claims zero bits instead of raising, and w doubles until the
        # inner log resolves it
        x = BigReal((1 << k) + 1, -k, k + 1, True)
        assert LOGLOG._eval_at(x, 107, LOGLOG._constants(107)).precision == 0
        got = eval_transform(x, LOGLOG).frac(40)
        want = mp_frac(lambda: mp.log10(mp.log10(1 + mpf(2) ** -k)), k + 50)
        assert abs(got - want) < 2.0 ** -40

    def test_start_bits_input_is_sufficient(self):
        # pi generated at the start_bits frac_sample asks for certifies
        policy = PrecisionPolicy(agreement=20)
        a = tr._policy_bits(policy)[0]
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
        deeper = PrecisionPolicy(agreement=16, cap=40000)
        a = eval_transform(BigReal.from_int(n), PI_SQUARE).frac()
        b = eval_transform(BigReal.from_int(n), PI_SQUARE, deeper).frac()
        d = abs(a - b)
        assert min(d, 1.0 - d) < 1e-12


# ---------------------------------------------------------------------------
# the quick phase of _Certifier.fracs

QUICK = (LOG2, LOG10, Log(7), SQRT, PI_SQUARE)
DATA = Path(__file__).resolve().parent.parent / "data"


def _true_u(t, x):
    """u(x) in mpmath at 400 bits (the caller sets the precision)."""
    x = mpf(x)
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
            assert not outside.any()
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
        assert certifier._double_double_cells(xs)[0].tolist() == inside
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
        # more than 80 agreement bits, a cap one near-integer doubling
        # would pass
        (LOG10, PrecisionPolicy(agreement=30)),
        (LOG10, PrecisionPolicy(cap=64)), (PI_SQUARE, PrecisionPolicy(cap=64)),
    ])
    def test_quick_phase_off(self, t, policy):
        on = t == SQRT and policy == DEFAULT_POLICY
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
        certifier = tr._Certifier(t, PrecisionPolicy(cap=300))
        got = np.zeros(1)
        if certifier._hand_out(xs, got)[0]:
            assert got.tobytes() == np.array(
                [certifier.frac(BigReal.from_float(x))]).tobytes()

    @pytest.mark.parametrize("t", ROUTED, ids=lambda t: t.label())
    def test_route_is_floor_of_u_times_2_120(self, t):
        # A = floor(u * 2**120) for the roots, and u * 2**120 in (A - 1,
        # A + 2) under pi, from the smallest double to the largest
        xs = _whole_range(11)
        a = t._scaled(xs)
        with mp.workprec(1100 * t.p + 400):
            for x, ai in zip(xs.tolist(), a):
                u = _true_power(t, x) * mpf(2) ** 120
                if t.pi:
                    assert ai - 1 < u < ai + 2, x
                else:
                    assert int(mp.floor(u)) == ai, x

    @pytest.mark.parametrize("t", ROUTED, ids=lambda t: t.label())
    def test_integer_route_rule(self, t):
        # A's low 40 bits leave 1 + W units below and 2 + W above, W the
        # width in units of 2**-120; in cell 0 the lower margin goes, u
        # being never negative
        certifier = tr._Certifier(t, DEFAULT_POLICY)
        xs = np.concatenate([_whole_range(13), 2.0 ** -np.arange(81.0, 125)])
        a = t._scaled(xs)
        w = int(certifier._quick_width * 2 ** 120)
        inside = []
        for ai in a:
            cell, pos = ai >> 40, ai & ((1 << 40) - 1)
            low = pos >= 1 + w or cell == 0
            inside.append(low and pos + 2 + w <= 1 << 40)
        got, fracs = certifier._integer_cells(xs)
        assert got.tolist() == inside
        assert fracs.tolist() == [
            tr._frac_double(ai >> 40 & ((1 << 80) - 1))
            for ai, i in zip(a, inside) if i]
        # u below 2**-80 (2**-124 among them): all handed out
        tiny = got[-44:][np.array([ai < 1 << 40 for ai in a[-44:]])]
        assert tiny.all()

    def test_frac_doubles_is_frac_double(self):
        # random 80-bit cells, halfway cases at every exponent (c / 2**80
        # a tie between two doubles, both mantissa parities), and the
        # cells that round up to 1.0 and are clamped below it
        rng = random.Random(80)
        cells = [rng.getrandbits(80) for _ in range(20000)]
        for shift in range(1, 28):
            for parity in (0, 1) * 10:
                m = 1 << 52 | rng.getrandbits(51) << 1 | parity
                cells.append(m << shift | 1 << (shift - 1))
        cells += [0, 1, 2 ** 40 - 1, 2 ** 40, 2 ** 79, 2 ** 80 - 2 ** 27,
                  2 ** 80 - 2 ** 26 - 1, 2 ** 80 - 2 ** 26, 2 ** 80 - 1]
        got = tr._frac_doubles(np.array(cells, dtype=object))
        assert got.dtype == np.float64
        assert got.tolist() == [tr._frac_double(c) for c in cells]
        assert got[-1] == got[-2] == math.nextafter(1.0, 0.0)
        assert tr._frac_doubles(np.array([], dtype=object)).shape == (0,)

    @pytest.mark.parametrize("t", ROUTED, ids=lambda t: t.label())
    def test_fewest_claim_holds(self, t):
        # every double's first working precision claims at least the
        # bits _fewest_claim promises, and the width rests on them
        a = digits_to_bits(DEFAULT_POLICY.agreement)
        for x in _whole_range(17)[::4].tolist():
            b = BigReal.from_float(x)
            w = start_bits(t, b.integer_bits(), a)
            r = t._eval_at(b, w, t._constants(w))
            assert r.precision - r.integer_bits() >= t._fewest_claim(a)

    def test_few_doubles_reach_the_certifier(self):
        # under 1% of 26,000 doubles over +-300 decades, where the
        # double-double phase alone left 67% (sqrt) and 85% (pi*x**2)
        xs = _seeded(1)
        for t in (SQRT, PI_SQUARE):
            assert _handed(tr._Certifier(t, DEFAULT_POLICY), xs).mean() > 0.99
