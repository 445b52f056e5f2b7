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
n + c ln pi for a `form` pi**c n**s), from which each transform takes u
by its own step (`Transform._from_ln`), and under pi*x**p the integer
phase that a form (where s p is an integer), n!, e**n and the power laws
state (`_pi_power_floors`). The certifier's width on those routes comes
from what the sequence states of its terms' size (`_log2_term`,
`_exact_term` and int_bits_estimate), with no term generated. The primes
state their terms as exact doubles (`_doubles`), which take the routes
of an array of doubles instead. Every other term (n**n under the power
maps and e**n under those without pi but their first few, n! under sqrt
and below 16 under the logs, and the few a block's quick routes cannot
vouch for) is generated, and regenerated at doubled bits while the
transform refuses its fractional part, up to the precision cap.
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
    Power, _Certifier, _dd, _fma, _ln, _ln_pi_fixed, _pi_power_bits, \
    _pi_power_floor, _quick_inv_pi, _quick_ln_pi, _two_prod

_LOG2_E_FIXED64 = 26613026195688644984  # ceil(log2(e) * 2**64)
_LOG2_PI = math.log2(math.pi)
_LOG2_E = math.log2(math.e)
# a power law builds n**(p/q) exactly while p bit_length(n) / q stays
# within the cap's bits; past them its exp route certifies
_EXACT_MAX_BITS = digits_to_bits(_CAP_DIGITS)


# ---------------------------------------------------------------------------
# prime generation: one sieve per power-of-two count

@functools.cache
def _primes(count):
    """The first `count` primes as a read-only int64 array, for a power of
    two count >= 16: one sieve up to Rosser's bound count (ln count +
    ln ln count), which p_count stays below from count 6 on, plus 10."""
    limit = int(count * (math.log(count) + math.log(math.log(count)))) + 10
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)[:count].astype(np.int64)
    primes.flags.writeable = False
    return primes


def _primes_through(n):
    """The cached array of primes that holds the n-th, n >= 1."""
    return _primes(max(16, 1 << (n - 1).bit_length()))


def nth_prime(n):
    """n-th prime, 1-indexed: nth_prime(1) == 2."""
    if n < 1:
        raise InvalidParameter("prime index starts at 1")
    return int(_primes_through(n)[n - 1])


def _prime_factors(n):
    """The prime factors of each index of an ascending int64 array n >= 1,
    with multiplicity and ascending, as lists: trial division of the
    whole array by each prime up to isqrt of its largest; what is left
    above 1 is one more prime."""
    rem = n.copy()
    out = [[] for _ in range(n.size)]
    top, i = isqrt(int(n[-1])), 1
    while (q := nth_prime(i)) <= top:
        hit = np.flatnonzero(rem % q == 0)
        while hit.size:
            for k in hit.tolist():
                out[k].append(q)
            rem[hit] //= q
            hit = hit[rem[hit] % q == 0]
        i += 1
    for k in np.flatnonzero(rem > 1).tolist():
        out[k].append(int(rem[k]))
    return out


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
      pi**c n**s; None where no such form holds. It gives ln x_n = s ln
      n + c ln pi.
    - `_pi_power_floors(p)`, the integer phase of pi*x**p on the terms,
      where the sequence states one: from a form where e = s p is an
      integer, pi**(c p + 1) n**e; running products for n! and e**n; and
      for a power law n**alpha, alpha = a/b, n**(p alpha) from the prime
      factors of n, one ln and one exp per prime and one product per
      composite, where p alpha is no integer (an integer one is the
      form's). `_dear_floors(p)` marks the last: its exp2 phase runs
      first, and the floors take every term that leaves.
    - `_log2_term(n)` and `_exact_term(n)`, log2 x_n in doubles and
      whether term n is exact, from which (and int_bits_estimate) the
      certifier works out its width on the terms without generating any.
    - `_doubles(n)`, the terms as exact doubles where the sequence states
      them so (the primes); None here.
    """

    name = "?"
    form = None
    _ln_range = None

    def _ln_terms(self, n):
        """ln x_n = lh + ll and err >= |lh + ll - ln x_n|, for an array of
        indices n in `_ln_range`, as doubles. From the form: s ln n + c ln
        pi (`_fma` on `_ln`'s ln n, s in its range)."""
        s, c = self.form
        y = _ln(n)
        if s != 1.0 or c:
            y = _fma((s, 0.0, 0.0), y, _quick_ln_pi() if c else None)
        return y

    def _pi_power_floors(self, p):
        """The integer phase of pi*x**p on the terms, for an int p >= 1: a
        map from an ascending int64 array of indices n to the object array
        of the ints A_n with pi x_n**p 2**_ROUTE_BITS in (A_n - 1, A_n +
        2), or None for none. From the form pi**c n**s where e = s p is an
        integer: pi**(c p + 1) n**e (`_pi_power_floor`), for n**e below
        2**(e E), E the bits of the largest n."""
        if self.form is None or not (self.form[0] * p).is_integer():
            return None
        s, c = self.form
        e = int(s * p)
        return lambda n: _pi_power_floor(n.astype(object) ** e, 0, c * p + 1,
                                         e * int(n.max()).bit_length())

    def _dear_floors(self, p):
        """True where the integer phase of pi*x**p costs an exp per prime
        factor (a power law's floors); False here."""
        return False

    def _doubles(self, n):
        """The terms x_n as exact doubles, for an ascending int64 array of
        indices n, or None where the sequence states none."""
        return None

    def nth_term(self, n, bits):
        raise NotImplementedError

    def int_bits_estimate(self, n):
        """An upper bound on the integer bits of term n, which sizes the
        bits it is generated at. An exact term ignores `bits`, so a
        sequence of exact terms keeps this 0."""
        return 0

    def _log2_term(self, n):
        """log2 x_n in doubles, within a relative 2**-45 of it, for the
        certifier's width (`_Certifier._term_width`), which reads it at the
        two ends of each run of terms. One scalar n, where `_ln_terms` is
        a numpy pass that costs far more on two indices than on the block
        it is made for, and holds only on `_ln_range`. From the form: s
        log2 n + c log2 pi, a few roundings of positive terms."""
        s, c = self.form
        return s * math.log2(n) + c * _LOG2_PI

    def _exact_term(self, n):
        """Whether term n is exact whatever bits it is asked at, for the
        certifier's width. False here: an exact term among inexact ones (a
        square's root, a first term 1) claims no fewer bits."""
        return False

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

    def int_bits_estimate(self, n):
        return n.bit_length() + 2


class Primes(Sequence):
    name = "primes"

    def nth_term(self, n, bits):
        return BigReal.from_int(nth_prime(n))

    def _doubles(self, n):
        return _primes_through(int(n[-1]))[n - 1].astype(np.float64)


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

    def _log2_term(self, n):
        return n * _LOG2_E

    def _pi_power_floors(self, p):
        """pi e**(p n) 2**_ROUTE_BITS in (A_n - 1, A_n + 2), from one running
        product over n = 1..N, N the block's last index, at G bits: Z_0 =
        pi_fixed(G), Z_n = floor(Z_(n-1) E / 2**G) with E = e**p 2**G from
        exp_fixed(p 2**G, G), and A_n = Z_n shifted right by G -
        _ROUTE_BITS.

        Relative errors, in units of 2**-G: pi_fixed is within 2 units of
        pi 2**G, below 0.64; exp_fixed's mantissa is within 1 + 2**-10 ulp
        of e**p, and the mantissa is at least 2**G, so E is too; each Z_n
        >= pi 2**G floors once, below 0.32. So each step costs below 2,
        and the N steps and pi below 2N, compounding as a product of at
        most 2N + 1 factors, each within 2**-121. With V = pi e**(p n)
        2**_ROUTE_BITS < 2**(big + _ROUTE_BITS), big = floor(p N log2 e) +
        3 from the rounded-up log2 e, and G = big + _ROUTE_BITS +
        bit_length(2N), the shifted product before its floor is within 2N
        2**-bit_length(2N) (1 + 2**-100) < 1 of V, and A_n = floor of it
        leaves V in (A_n - 1, A_n + 2).

        One product of two G-bit integers a step, where each term on its
        own costs a power at its own bits."""
        def floors(n):
            n = n.tolist()
            top = n[-1]
            big = (p * top * _LOG2_E_FIXED64 >> 64) + 3
            g = big + _ROUTE_BITS + (2 * top).bit_length()
            mant, k = exp_fixed(p << g, g)
            e_p, run = mant << k, pi_fixed(g)
            a = np.empty(len(n), dtype=object)
            i = 0
            for step in range(1, top + 1):
                run = run * e_p >> g
                if step == n[i]:
                    a[i] = run >> (g - _ROUTE_BITS)
                    i += 1
            return a
        return floors


# ln n! from Stirling's series takes n >= _STIRLING_N0 with _STIRLING_K
# terms, whose remainder is below 2**-96 there; a smaller n! takes the
# per-term route
_STIRLING_N0 = 16
_STIRLING_K = 14


@functools.cache
def _stirling_constants():
    """(1 + ln(2 pi))/2 as (hi, lo, err), the series' coefficients c_k =
    B_2k / (2k (2k - 1)), k = 1.._STIRLING_K, each as (hi, lo, err), and
    |c_(K+1)| rounded up, the remainder's. The Bernoulli numbers B_j come
    exact from sum_(i <= j) C(j + 1, i) B_i = 0; each c_k floors to
    2**-160 within one ulp. ln pi (within 2 ulps at 2**-160) plus ln 2
    (within 1) plus 1, halved, is within 2.5."""
    # imported here, where the first n! needs it, not with the package
    from fractions import Fraction
    b = [Fraction(1)]
    for j in range(1, 2 * _STIRLING_K + 3):
        b.append(-sum(math.comb(j + 1, i) * b[i] for i in range(j)) / (j + 1))
    c = [b[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, _STIRLING_K + 2)]
    one = 1 << _DD_BITS
    ln_sqrt_2pi_e = (_ln_pi_fixed() >> 64) + ln2_fixed(_DD_BITS) + one >> 1
    return (_dd(ln_sqrt_2pi_e, 3),
            [_dd(ck.numerator * one // ck.denominator, 1) for ck in c[:-1]],
            float(abs(c[-1])) * (1.0 + 2.0 ** -50))


class Factorial(Sequence):
    name = "factorial"
    _ln_range = (float(_STIRLING_N0), 2.0 ** 52 - 1.0)  # n + 1/2 exact

    def nth_term(self, n, bits):
        return BigReal.from_int(math.factorial(n))

    def _log2_term(self, n):
        return math.lgamma(n + 1) / math.log(2.0)

    def _exact_term(self, n):
        return True

    def _ln_terms(self, n):
        """ln n! = (n + 1/2)(ln n - 1) + C + S + R, C = (1 + ln(2 pi))/2 and
        S = sum_k c_k t**(2k - 1), t = 1/n, k = 1..K (`_stirling_constants`;
        Stirling's series, DLMF 5.11.1). For real n > 0 the remainder R
        has the sign of, and is at most, the first term left out, |c_(K+1)|
        t**(2K + 1) (DLMF 5.11(ii); at K = 1 this is Robbins, Amer. Math.
        Monthly 62 (1955)), below 2**-96 from n = _STIRLING_N0 on.

        t = th + tl: th = RN(1/n) and 1 - n th = (1 - p) - pe, exact: 1 -
        p by Sterbenz, and 1 - n th, a multiple of ulp(th) below 2**-53,
        is a double; tl, that over n, is within 2**-53 |tl|. Then, each
        step an `_fma`: z = t t; S/t = c_1 + z (c_2 + ... + z c_K) by
        Horner's steps w = z w + c_k; S + C = t (S/t) + C; and (n + 1/2)
        (ln n - 1) + (S + C), where n + 1/2 is exact and ln n - 1 is `_ln`'s
        lh - 1, exact for 2 <= lh < 2**53, and ll. Relative slack below
        2**-46 (|t| <= th (1 + 2**-53) raised to 2K + 1, and the rounding
        of that power) is left to the certifier's factor 1 + 2**-40, as in
        `transforms._ln`.
        """
        ln_sqrt_2pi_e, coef, rest = _stirling_constants()
        th = 1.0 / n
        p, pe = _two_prod(n, th)
        tl = ((1.0 - p) - pe) / n
        t = th, tl, _HALF_ULP * np.abs(tl)
        z = _fma(t, t)
        w = coef[-1]
        for c in coef[-2::-1]:
            w = _fma(z, w, c)
        lh, ll, err = _ln(n)
        vh, vl, err = _fma((n + 0.5, 0.0, 0.0), (lh - 1.0, ll, err),
                           _fma(t, w, ln_sqrt_2pi_e))
        return vh, vl, err + rest * th ** (2 * _STIRLING_K + 1)

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

    def _log2_term(self, n):
        return n * math.log2(n)

    def _exact_term(self, n):
        return True

    def _ln_terms(self, n):
        """n ln n: the exact n times `_ln`'s ln n (`_fma`)."""
        return _fma((n, 0.0, 0.0), _ln(n))


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
        if 2.0 ** -400 <= a <= 2.0 ** 400:  # _fma's range
            self._ln_range = _PAST_ONE
        self.name = f"power_law({a:g})"

    def _ln_terms(self, n):
        """ln n / pi for n**(1/pi): `_ln`'s ln n times 1/pi's
        double-double (`_fma`); the form's otherwise."""
        if self._inv_pi:
            return _fma(_ln(n), _quick_inv_pi())
        return super()._ln_terms(n)

    def _log2_term(self, n):
        """log2 n / pi for n**(1/pi); the form's otherwise."""
        if self._inv_pi:
            return math.log2(n) / math.pi
        return super()._log2_term(n)

    def _exact_term(self, n):
        """Where nth_term builds n**alpha exactly for an integer alpha."""
        t = self._exact
        return t is not None and t.q == 1 and \
            t.p * n.bit_length() <= _EXACT_MAX_BITS

    def _dear_floors(self, p):
        """p alpha = a p / b is no integer, for alpha = a/b exact."""
        return self._ratio is not None and \
            self._ratio[0] * p % self._ratio[1] != 0

    def _pi_power_floors(self, p):
        """pi n**(p alpha) 2**_ROUTE_BITS: the form's pi n**(p alpha), one
        integer power a term, where p alpha is an integer; otherwise from
        the prime factors q of n, alpha = a/b exact; None for n**(1/pi).
        Over a block of indices n,
        of largest u_max = pi n_max**(p alpha) < 2**big, all at G bits:
        - each prime q: y_q = q**(p alpha) as exp_fixed(floor(L p a / b),
          G) = (M, k), y_q within M 2**(k - G), L = ln_int_fixed(q, G);
        - each composite n = q c, q its smallest prime factor: y_n =
          y_q y_c as floor(M_q M_c / 2**G) at the exponent k_q + k_c, and
          halved once more where that reaches 2**(G + 1); so M >= 2**G;
        - A_n = floor(pi_fixed(G) M_n 2**(k_n - 2G + _ROUTE_BITS)).

        Relative errors, in units of 2**-G: L is within bit_length(q) + 2
        ulp of ln q 2**G, so p a L / b, floored, is within d_q = p alpha
        (bit_length(q) + 2) + 1 of p alpha ln q 2**G, which moves e**x by
        d_q (1 + 2**-50); exp_fixed's mantissa is within 1 + 2**-10 ulp of
        its e**x (its (g/h + 3) 2**-21 below 2**-10 up to a million
        bits), and M >= 2**G; each product floors once, below one unit as
        M >= 2**G. n has Omega(n) <= log2 n prime factors and takes
        Omega(n) - 1 products, so c_q = ceil(p alpha (bit_length(q) + 2))
        + 3 per factor, K_n = the sum of the c_q over them, counts every
        unit but 2**-10 a factor, and one product's unit to spare covers
        those and pi_fixed's 2 units at pi 2**G (below 0.64; K = 1 for n =
        1, pi alone). The errors compound as a product of at most 2 Omega
        + 1 factors, each within K 2**-G <= 2**-121, so |A'/V - 1| <= K
        2**-G (1 + 2**-100) for A' the shifted product before its floor
        and V = pi x_n**p 2**_ROUTE_BITS < 2**(big + _ROUTE_BITS). With K
        the largest K_n and G = big + _ROUTE_BITS + bit_length(K), |A' -
        V| < K 2**-bit_length(K) < 1, and A_n = floor(A') leaves V in (A_n
        - 1, A_n + 2). big is the float bound floor((p alpha log2 n_max +
        log2 pi)(1 + 2**-40)) + 1, whose few roundings the factor covers.

        Each prime costs one ln and one exp, each composite one product;
        the values y_c are kept only for c <= n_max / 2, the cofactors a
        larger n can still need, and go with the block.
        """
        if self._inv_pi:
            return None
        if not self._dear_floors(p):
            return super()._pi_power_floors(p)
        a, b = self._ratio
        a *= p  # p alpha = a / b

        def floors(n):
            factors = _prime_factors(n)
            k = max(1, max(sum(-(-a * (q.bit_length() + 2) // b) + 3
                               for q in f) for f in factors))
            top = int(n[-1])
            big = int((a / b * math.log2(top) + _LOG2_PI)
                      * (1 + 2.0 ** -40)) + 1
            g = big + _ROUTE_BITS + k.bit_length()
            ln2, pi, half = ln2_fixed(g), pi_fixed(g), top // 2
            y = {}

            def prime(q):
                return exp_fixed(ln_int_fixed(q, g, ln2) * a // b, g)

            out = np.empty(n.size, dtype=object)
            for i, f in enumerate(factors):
                c, v = 1, (1 << g, 0)
                for q in reversed(f):
                    c *= q
                    w = y.get(c)
                    if w is None:
                        if c == q:
                            w = prime(q)
                        else:
                            yq = y.get(q)
                            if yq is None:
                                yq = y[q] = prime(q)
                            m = yq[0] * v[0] >> g
                            w = (m >> 1, yq[1] + v[1] + 1) if m >> g + 1 \
                                else (m, yq[1] + v[1])
                        if c <= half:
                            y[c] = w
                    v = w
                out[i] = pi * v[0] >> 2 * g - _ROUTE_BITS - v[1]
            return out
        return floors

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
    a term would be generated past the precision cap. An n_max past 2**53
    - 1, the last index the quick routes read as an exact double
    (`_WHOLE`), is refused.
    """
    n_max = count("n_max", n_max, 1)
    if n_max > _WHOLE[1]:
        raise InvalidParameter(
            f"n_max must be at most 2**53 - 1, got {n_max}")
    return FracSample(*_Certifier(transform, policy).terms(
        sequence, n_max, index_filter))
