"""Transform evaluation: exact fast paths, certified escalation, domains."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import ubenford.transforms as tr
from oracles import derivative
from ubenford.bigreal import BigReal, PrecisionPolicy
from ubenford.errors import (DomainError, InsufficientPrecision,
                             PrecisionCapExceeded)
from ubenford.experiments import sample_cell
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
