"""Deterministic positive sequences and their mod-1 fractional samples.

Each sequence produces BigReal terms: exact integers where the value is an
integer (primes, factorials, n**n), and certified approximations for
irrational terms (sqrt n, pi*n, e**n, n**alpha) generated as binary fixed
point with as many significant bits as the downstream transform asks for.
One rule in bits sizes a term: a sequence with inexact terms bounds their
integer bits (int_bits_estimate), and the certifier's start_bits turns
that into the bits the term is generated at. An exact term ignores its
bits. frac_sample hands a cell to the certifier (_Certifier.terms),
which certifies most terms in numpy blocks from what the sequence states
of them: its ln x_n (`_ln_terms`; n for e**n, n ln n for n**n,
Stirling's series for n! from n = 16 on, ln n / pi for n**(1/pi), s ln
m_n + c ln pi for a `form` pi**c m_n**s), from which each transform takes
u by its own step (`Transform._from_ln`), and under pi*x**p the integer
phase that pi_n and n! state (`_pi_power_floors`). A power map that sends a
form's terms to a power map of m_n takes that map's route on m_n
instead. Every other term (e**n and n**n under the power maps but their
first few, n! under sqrt and below 16 under the logs, the steep power
laws under pi*x**2, and the few a block's quick routes cannot vouch for)
is generated, and regenerated at doubled bits while the transform
refuses its fractional part, up to the precision cap.
"""

import functools
import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .bigreal import DEFAULT_POLICY, BigReal
from .errors import InvalidParameter, count, real, string
from .kernels import digits_to_bits, e_fixed, exp_fixed, ln2_fixed, \
    ln_int_fixed, pi_fixed, pow_fixed
from .transforms import _CAP_DIGITS, _DD_BITS, _HALF_ULP, _ROUTE_BITS, \
    Power, _Certifier, _dd, _dd_mul, _ln, _ln_pi_fixed, _mul_add, \
    _pi_power_bits, _pi_power_floor, _quick_inv_pi, _quick_ln_pi, \
    _scale_shift, _times, _two_prod, _two_sum

_LOG2_E_FIXED64 = 26613026195688644984  # ceil(log2(e) * 2**64)
# a power law builds n**(p/q) exactly while p bit_length(n) / q stays
# within the cap's bits; past them its exp route certifies
_EXACT_MAX_BITS = digits_to_bits(_CAP_DIGITS)


# ---------------------------------------------------------------------------
# prime generation: growing sieve cache

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
_SIEVE_LIMIT = 30


def _extend_primes(count):
    global _SIEVE_LIMIT
    while len(_PRIMES) < count:
        k = max(count, 6)
        # Rosser bound, then a margin so one pass usually suffices
        limit = int(k * (math.log(k) + math.log(math.log(k)))) + 10
        limit = max(limit, _SIEVE_LIMIT * 2)
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        _PRIMES.clear()
        _PRIMES.extend(int(v) for v in np.nonzero(sieve)[0])
        _SIEVE_LIMIT = limit


def nth_prime(n):
    """n-th prime, 1-indexed: nth_prime(1) == 2."""
    if n < 1:
        raise InvalidParameter("prime index starts at 1")
    if n > len(_PRIMES):
        _extend_primes(n)
    return _PRIMES[n - 1]


# ---------------------------------------------------------------------------
# sequences

# every index a double holds exactly, and every one past a first term 1,
# whose log is the integer 0 and which lies outside the iterated log's
# domain
_WHOLE = (1.0, 2.0 ** 53 - 1.0)
_PAST_ONE = (2.0, _WHOLE[1])


class Sequence:
    """Base: positive terms indexed from n = 1.

    nth_term(n, bits) returns term n, certified to `bits` significant
    bits where it is not exact. What a sequence states of its terms
    besides, for the quick routes of _Certifier.terms:
    - `_ln_range` = (lo, hi), the indices n (as doubles) on which
      `_ln_terms` states ln x_n in double-double with a proved bound;
      None where it states none.
    - `form` = (s, c), a float s > 0 and c in {0, 1}, states term n as
      pi**c m_n**s, m_n = _bases(n) an integer below 2**53; None where
      no such form holds. It gives ln x_n = s ln m_n + c ln pi, and a
      power map reads it to compose with a power map of m_n.
    - `_pi_power_floors(p)`, the integer phase of pi*x**p on the terms,
      where the sequence states one: pi**(p + 1) n**p for pi_n, and a
      running product for n!.
    """

    name = "?"
    form = None
    _ln_range = None

    def _bases(self, n):
        """m_n as doubles, for an ascending int64 array of indices n."""
        return n.astype(np.float64)

    def _ln_terms(self, n):
        """ln x_n = lh + ll and err >= |lh + ll - ln x_n|, for an array of
        indices n in `_ln_range`, as doubles. From the form: s ln m_n + c
        ln pi (`_scale_shift` on `_ln`'s ln m_n, s in its range)."""
        s, c = self.form
        y = _ln(self._bases(n.astype(np.int64)))
        if s != 1.0 or c:
            y = _scale_shift(*y, s, _quick_ln_pi() if c else (0.0, 0.0, 0.0))
        return y

    def _pi_power_floors(self, p):
        """The integer phase of pi*x**p on the terms, for an int p >= 1: a
        map from an ascending int64 array of indices n to the object array
        of the ints A_n with pi x_n**p 2**_ROUTE_BITS in (A_n - 1, A_n +
        2); None here. Every form but pi_n's has c = 0, and pi*x**p sends
        its terms to a power map of m wherever it has an integer phase
        (`Power._on_terms`)."""
        return None

    def nth_term(self, n, bits):
        raise NotImplementedError

    def int_bits_estimate(self, n):
        """An upper bound on the integer bits of term n, which sizes the
        bits it is generated at. An exact term ignores `bits`, so a
        sequence of exact terms keeps this 0."""
        return 0

    def __repr__(self):
        return f"<Sequence {self.name}>"


class SqrtN(Sequence):
    name = "sqrt_n"
    form = (0.5, 0)
    _ln_range = _PAST_ONE

    def nth_term(self, n, bits):
        r = isqrt(n)
        if r * r == n:
            return BigReal.from_int(r)
        return BigReal(isqrt(n << 2 * bits), -bits, bits, False)

    def int_bits_estimate(self, n):
        return (n.bit_length() + 1) // 2


class PiN(Sequence):
    name = "pi_n"
    form = (1.0, 1)
    _ln_range = _WHOLE

    def nth_term(self, n, bits):
        return BigReal(pi_fixed(bits) * n, -bits, bits, False)

    def _pi_power_floors(self, p):
        """pi**(p + 1) n**p (`_pi_power_floor`), for n**p below 2**(p E),
        E the bits of the largest n."""
        return lambda n: _pi_power_floor(n.astype(object) ** p, 0, p + 1,
                                         p * int(n.max()).bit_length())

    def int_bits_estimate(self, n):
        return n.bit_length() + 2


class Primes(Sequence):
    name = "primes"
    form = (1.0, 0)
    _ln_range = _WHOLE

    def nth_term(self, n, bits):
        return BigReal.from_int(nth_prime(n))

    def _bases(self, n):
        lo, hi = int(n[0]), int(n[-1])
        nth_prime(hi)  # the sieve reaches p_hi
        return np.array(_PRIMES[lo - 1:hi], dtype=np.float64)[n - lo]


class ExpN(Sequence):
    name = "exp_n"
    _ln_range = _WHOLE

    def _ln_terms(self, n):
        return n, np.zeros_like(n), np.zeros_like(n)  # ln e**n = n, exact

    def nth_term(self, n, bits):
        # e**n = (e/2)**n * 2**n, and floor(e * 2**(p-1)) at scale 2**p
        # is e/2; its last-bit error grows n-fold
        lost = n.bit_length() + 2
        p = bits + lost
        mant, e2 = pow_fixed(e_fixed(p - 1), p, n)
        return BigReal(mant, e2 + n - p, p - lost, False)

    def int_bits_estimate(self, n):
        return (n * _LOG2_E_FIXED64 >> 64) + 1


# ln n! from Stirling's series takes n >= _STIRLING_N0 with _STIRLING_K
# terms, whose remainder is below 2**-96 there; a smaller n! takes the
# per-term route
_STIRLING_N0 = 16
_STIRLING_K = 14


@functools.cache
def _stirling_constants():
    """(1/2) ln(2 pi) as (hi, lo, err), the series' coefficients c_k =
    B_2k / (2k (2k - 1)), k = 1.._STIRLING_K, each as (hi, lo, err), and
    |c_(K+1)| rounded up, the remainder's. The Bernoulli numbers B_j come
    exact from sum_(i <= j) C(j + 1, i) B_i = 0; each c_k floors to
    2**-160 within one ulp. ln pi (within 2 ulps at 2**-160) plus ln 2
    (within 1), halved, is within 2.5."""
    # imported here, where the first n! needs it, not with the package
    from fractions import Fraction
    b = [Fraction(1)]
    for j in range(1, 2 * _STIRLING_K + 3):
        b.append(-sum(math.comb(j + 1, i) * b[i] for i in range(j)) / (j + 1))
    c = [b[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, _STIRLING_K + 2)]
    one = 1 << _DD_BITS
    half_ln_2pi = (_ln_pi_fixed() >> 64) + ln2_fixed(_DD_BITS) >> 1
    return (_dd(half_ln_2pi, 3),
            [_dd(ck.numerator * one // ck.denominator, 1) for ck in c[:-1]],
            float(abs(c[-1])) * (1.0 + 2.0 ** -50))


class Factorial(Sequence):
    name = "factorial"
    _ln_range = (float(_STIRLING_N0), 2.0 ** 52 - 1.0)  # n + 1/2 exact

    def nth_term(self, n, bits):
        return BigReal.from_int(math.factorial(n))

    def _ln_terms(self, n):
        """ln n! = (n + 1/2) ln n - n + (1/2) ln(2 pi) + S + R, S = sum_k
        c_k t**(2k - 1), t = 1/n, k = 1..K (`_stirling_constants`;
        Stirling's series, DLMF 5.11.1). For real n > 0 the remainder R
        has the sign of, and is at most, the first term left out, |c_(K+1)|
        t**(2K + 1) (DLMF 5.11(ii); at K = 1 this is Robbins, Amer. Math.
        Monthly 62 (1955)), below 2**-96 from n = _STIRLING_N0 on.

        t = th + tl: th = RN(1/n) and 1 - n th = (1 - p) - pe, exact: 1 -
        p by Sterbenz, and 1 - n th, a multiple of ulp(th) below 2**-53,
        is a double; tl, that over n, is within 2**-53 |tl|. z = t t
        (`_dd_mul`), off by 2 t times t's error as well. S/t = c_1 + z (c_2
        + ... + z c_K) takes K - 1 double-double steps (`_mul_add`), each
        within z <= _STIRLING_N0**-2 times what it inherits, |S/t| times
        z's error, its own loss and its coefficient's err; S = t (S/t)
        (`_dd_mul`). The sum: (n + 1/2) ln n = ah + al (`_dd_mul`; n + 1/2
        is exact) within n + 1/2 times ln n's error, ah - n = h1 + r1, h1
        + ch = h2 + r2 and h2 + sh = h3 + r3 exactly, the five additions
        that make low round once each, and vh + vl = h3 + low exactly.
        Relative slack below 2**-50 (|t| <= th (1 + 2**-52), the rounding
        of th**(2K + 1) and of err) is left to the certifier's factor 1 +
        2**-40, as in `transforms._ln`.
        """
        (ch, cl, ce), coef, rest = _stirling_constants()
        th = 1.0 / n
        p, pe = _two_prod(n, th)
        tl = ((1.0 - p) - pe) / n
        et = _HALF_ULP * np.abs(tl)
        zh, zl, ez = _dd_mul(th, tl, th, tl)
        ez += 2.0 * th * et
        sh, sl = np.full_like(n, coef[-1][0]), np.full_like(n, coef[-1][1])
        es = coef[-1][2]
        for c in coef[-2::-1]:
            es = (es * _STIRLING_N0 ** -2 + (np.abs(sh) + np.abs(sl)) * ez
                  + c[2])
            sh, sl, loss = _mul_add(zh, zl, sh, sl, c[:2])
            es += loss
        es = es * th + (np.abs(sh) + np.abs(sl)) * et
        sh, sl, loss = _dd_mul(th, tl, sh, sl)
        lh, ll, err = _ln(n)
        ah, al, loss0 = _dd_mul(n + 0.5, np.zeros_like(n), lh, ll)
        h1, r1 = _two_sum(ah, -n)
        h2, r2 = _two_sum(h1, ch)
        h3, r3 = _two_sum(h2, sh)
        s1 = r1 + r2
        s2 = s1 + r3
        s3 = s2 + al
        s4 = s3 + cl
        low = s4 + sl
        vh, vl = _two_sum(h3, low)
        return vh, vl, ((n + 0.5) * err + loss0 + ce + es + loss
                        + rest * th ** (2 * _STIRLING_K + 1)
                        + _HALF_ULP * (np.abs(s1) + np.abs(s2) + np.abs(s3)
                                       + np.abs(s4) + np.abs(low)))

    def _pi_power_floors(self, p):
        """n! states it for every p: the A_n that `_pi_power_floor` builds
        with k = 1 from the block's last term, M_n = pi_fixed(L) (n!)**p
        shifted right, but as a running product, M_n = M_n' (n!/n'!)**p
        for the index n' before n (0 before the first): a big integer
        times a small one per term."""
        def floors(n):
            n = n.tolist()
            bits = _pi_power_bits(1, p * math.factorial(n[-1]).bit_length())
            run = pi_fixed(bits)
            a = np.empty(len(n), dtype=object)
            for i, (lo, hi) in enumerate(zip([0] + n, n)):
                run *= math.prod(range(lo + 1, hi + 1)) ** p
                a[i] = run >> (bits - _ROUTE_BITS)
            return a
        return floors


class NPowN(Sequence):
    name = "n_pow_n"
    _ln_range = _PAST_ONE

    def nth_term(self, n, bits):
        return BigReal.from_int(n ** n)

    def _ln_terms(self, n):
        """n ln n: the exact n times `_ln`'s ln n (`_dd_mul`), which scales
        its error by n."""
        lh, ll, err = _ln(n)
        vh, vl, loss = _dd_mul(n, np.zeros_like(n), lh, ll)
        return vh, vl, n * err + loss


class PowerLaw(Sequence):
    """n**alpha. alpha is "1/pi" or a positive float expanded exactly."""

    def __init__(self, alpha):
        if isinstance(alpha, str) and alpha.strip() == "1/pi":
            self._inv_pi = True
            self._ratio = self._exact = None
            self._alpha_float = 1.0 / math.pi
            self.name = "power_law(1/pi)"
            self._ln_range = _PAST_ONE
            return
        a = real("power-law exponent", alpha)
        self._inv_pi = False
        self._ratio = p, q = a.as_integer_ratio()  # exact, lowest terms
        # x**(p/q) finds every term exact for q = 1, squares' roots for 2
        self._exact = Power(p, q) if q <= 2 else None
        self._alpha_float = a
        self.form = (a, 0)
        if 2.0 ** -400 <= a <= 2.0 ** 400:  # _scale_shift's range
            self._ln_range = _PAST_ONE
        self.name = f"power_law({a:g})"

    def _ln_terms(self, n):
        """ln n / pi for n**(1/pi): `_ln`'s ln n times 1/pi's
        double-double (`_times`); the form's otherwise."""
        if self._inv_pi:
            return _times(*_ln(n), _quick_inv_pi())
        return super()._ln_terms(n)

    def nth_term(self, n, bits):
        if n == 1:
            return BigReal.from_int(1)  # 1**alpha is exactly 1
        t = self._exact
        if t is not None and t.p * n.bit_length() <= t.q * _EXACT_MAX_BITS:
            r = t._try_exact(BigReal.from_int(n))
            if r is not None:
                return r
        # ulps of ln n, scaled by alpha, become relative error of exp
        slop = int(self._alpha_float * (n.bit_length() + 4)) + 6
        lost = slop.bit_length() + 2
        g = bits + lost
        ln_n = ln_int_fixed(n, g, ln2_fixed(g))
        if self._inv_pi:
            x = (ln_n << g) // pi_fixed(g)
        else:
            x = ln_n * self._ratio[0] // self._ratio[1]
        mant, e2 = exp_fixed(x, g)
        return BigReal(mant, e2 - g, g - lost, False)

    def int_bits_estimate(self, n):
        return int(self._alpha_float * math.log2(n)) + 2


SEQUENCES = {
    "sqrt_n": SqrtN,
    "pi_n": PiN,
    "primes": Primes,
    "exp_n": ExpN,
    "factorial": Factorial,
    "n_pow_n": NPowN,
}


def parse_sequence(text):
    """Registry lookup; power laws take a parameter: "power_law:1/pi"."""
    t = string("sequence", text).strip().lower()
    name, _, arg = t.partition(":")
    if name == "power_law":
        return PowerLaw(arg if arg else "1/pi")
    if t in SEQUENCES:
        return SEQUENCES[t]()
    raise InvalidParameter(f"unknown sequence {text!r}")


def odd_nonsquare(n):
    """Index filter for the pathological subsequence of sqrt n."""
    return n % 2 == 1 and isqrt(n) ** 2 != n


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True)
class FracSample:
    """Fractional parts of u(x_n), with domain-exclusion accounting."""

    values: np.ndarray
    excluded: int
    n_requested: int

    @property
    def size(self):
        return int(self.values.size)


def frac_sample(sequence, transform, n_max, policy=DEFAULT_POLICY,
                index_filter=None):
    """{u(x_n)} for n = 1..n_max as certified doubles in [0, 1).

    Terms outside the transform's domain (e.g. x <= 1 under the iterated
    log) are skipped and counted in `excluded`. One certifier serves the
    whole cell (_Certifier.terms) and raises PrecisionCapExceeded before
    a term would be generated past the precision cap.
    """
    return FracSample(*_Certifier(transform, policy).terms(
        sequence, count("n_max", n_max, 1), index_filter))
