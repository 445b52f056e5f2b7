"""Fixed-point big-integer kernels.

Convention: a value at precision ``prec`` is the integer floor(v * 2**prec),
so rescaling, slicing and fractional parts are shifts and masks, which take
linear time where decimal division takes quadratic time. Every kernel
carries its own guard bits and floors the result back to the requested
scale, so results are exact to a few ulp (integer-only arithmetic, no
platform drift). Decimal appears only in `digits_to_bits`, which converts
the precision policy's digits once per certifier (transforms._Certifier),
and in `dec_digits`, which no module of the package calls: it stays only
for `perfbench/tracer.py`, which binds it by name.

Constants (pi, ln 2, ln 10, e) are computed once per power-of-two precision
bucket, each bucket a `functools.cache` entry, and sliced down by a shift:
floor(floor(c*2^B) / 2^(B-p)) equals floor(c*2^p), so every request at
precision p <= B reuses the bucket value deterministically, independent
of call order. Pi comes from the Chudnovsky series by binary splitting
(about 47 bits per term), ln 2 and ln 10 from atanh series by binary
splitting, e from its factorial series.

`ln_fixed` reduces its mantissa against a table of 2**(j/256), built
lazily once per bucket (a `functools.cache` entry as well) up to 4,096
bits, so its atanh series gains about 19 bits per term; above that it
takes isqrt(prec) // 3 square roots of the mantissa instead, and no
table is built.
`exp_fixed` halves its residual below 2**-h with h = max(10, isqrt(prec))
before the Taylor series and squares back. Both depths follow Brent and
Zimmermann, Modern Computer Arithmetic, sections 4.4 and 4.9; the table
follows Tang, ACM TOMS 16(4), 1990.
"""

import functools
import math

BACKEND = "python"

_GUARD = 32  # guard bits carried inside every kernel
_TABLE_BITS = 8  # ln_fixed's table holds 2**(j/256) for j = 0..256
_TABLE_STEPS = 1 << _TABLE_BITS
_TABLE_GUARD = 16  # private guard bits of the table's multiply chain
_TABLE_MAX_BUCKET = 4096  # above it ln_fixed reduces by square roots
_CHUDNOVSKY_C3_24 = 640320 ** 3 // 24


def dec_digits(n):
    """Decimal digit count of a positive integer, no string conversion."""
    if n <= 0:
        raise ValueError("dec_digits needs a positive integer")
    # 30103/100000 > log10(2), so the estimate never undershoots
    d = n.bit_length() * 30103 // 100000 + 1
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    return d


def digits_to_bits(digits):
    """Bits that resolve `digits` decimal digits: ceil(digits * log2(10)).

    The rational 3321928094887363/10**15 lies just above log2(10), so the
    count never falls short (12 digits -> 40 bits).
    """
    return -(-digits * 3321928094887363 // 10 ** 15)


def _bucket(prec):
    """The power-of-two precision, at least 64, that serves `prec`."""
    return 1 << max(6, (prec - 1).bit_length())


def _atanh_inv(q, prec):
    # Binary splitting for atanh(1/q) = sum_i 1 / ((2i+1) q^(2i+1)).
    # Invariant of split(a, b): the partial sum over [a, b) times
    # q^(2a+1) equals P/R with the q-powers folded into R.
    g = prec + _GUARD
    n_terms = int(g / (2 * math.log2(q))) + 2
    q2 = q * q

    def split(a, b):
        if b - a == 1:
            return 1, 2 * a + 1
        m = (a + b) // 2
        p1, r1 = split(a, m)
        p2, r2 = split(m, b)
        shift = q2 ** (m - a)
        return p1 * r2 * shift + p2 * r1, r1 * r2 * shift

    p, r = split(0, n_terms)
    r *= q
    # p < r: dropping the s low bits of both, which leaves r with g + 64
    # bits, moves the quotient at scale 2**-g by less than 2**-61
    s = max(0, r.bit_length() - g - 64)
    return (p >> s << g) // (r >> s) >> _GUARD


def _pi(prec):
    """Chudnovsky: pi = 426880 sqrt(10005) Q / T by binary splitting.

    Term k of the series carries (-1)^k (6k)! (13591409 + 545140134 k) /
    ((3k)! k!^3 640320^(3k)); split(a, b) returns P, Q, T over [a, b) with
    P the product of the term ratios' numerators (6k-5)(2k-1)(6k-1) and Q
    of their denominators k^3 640320^3 / 24. Each term shrinks by
    640320^3 / 1728 > 2^47, so g/47 + 2 terms leave a tail below 2^-g.
    The square root and the final division floor once each, and the
    root's ulp is scaled by pi / sqrt(10005) < 1, so the value at scale
    2^-g is within 2 ulp before the guard bits are dropped.
    """
    g = prec + _GUARD

    def split(a, b):
        if b - a == 1:
            if a == 0:
                p = q = 1
            else:
                p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
                q = a * a * a * _CHUDNOVSKY_C3_24
            t = p * (13591409 + 545140134 * a)
            return p, q, -t if a & 1 else t
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, q2 * t1 + p1 * t2

    _, q, t = split(0, g // 47 + 2)
    return q * 426880 * math.isqrt(10005 << 2 * g) // t >> _GUARD


@functools.cache
def _atanh_third(g):
    """atanh(1/3) per working precision, shared by ln 2 and ln 10."""
    return _atanh_inv(3, g)


def _ln2(prec):
    g = prec + _GUARD
    return 2 * _atanh_third(g) >> _GUARD


def _ln10(prec):
    # ln 10 = 3 ln 2 + ln(10/8) = 6 atanh(1/3) + 2 atanh(1/9)
    g = prec + _GUARD
    v = 6 * _atanh_third(g) + 2 * _atanh_inv(9, g)
    return v >> _GUARD


def _e(prec):
    # direct factorial series
    g = prec + _GUARD
    term = total = 1 << g
    k = 1
    while term:
        term //= k
        total += term
        k += 1
    return total >> _GUARD


def _bucketed(fn, name):
    fn = functools.cache(fn)

    def get(prec):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        bucket = _bucket(prec)
        return fn(bucket) >> (bucket - prec)

    get.__name__ = name
    return get


pi_fixed = _bucketed(_pi, "pi_fixed")
ln2_fixed = _bucketed(_ln2, "ln2_fixed")
ln10_fixed = _bucketed(_ln10, "ln10_fixed")
e_fixed = _bucketed(_e, "e_fixed")


@functools.cache
def _ln_table(bucket):
    """(T, ln2): T[j] ~ 2**(j/256) for j = 0..256 and ln 2, both at
    scale 2**-bucket.

    T is built at G = bucket + 16 bits: eight floored square roots give
    r ~ 2**(1/256) within 2 ulp (each root halves the error it inherits
    and adds at most one), and T[j] = T[j-1] r >> G adds at most 3 ulp of
    relative error per link, so all 257 entries sit within 768 < 2**10
    relative ulp of 2**(j/256), below 2**11 ulp at G. Dropping the 16
    private guard bits floors each entry to within 1 + 2**-5 ulp of its
    true value at the bucket's scale. j ln2 / 256 read off the bucket's
    ln 2 is within 2 ulp there.
    """
    g = bucket + _TABLE_GUARD
    r = 2 << g
    for _ in range(_TABLE_BITS):  # 2**(1/256)
        r = math.isqrt(r << g)
    t = 1 << g
    ts = [t >> _TABLE_GUARD]
    for _ in range(_TABLE_STEPS):
        t = t * r >> g
        ts.append(t >> _TABLE_GUARD)
    return ts, ln2_fixed(bucket)


def ln_fixed(m, prec):
    """floor(ln(m / 2**prec) * 2**prec) for a mantissa in [1, 2), to 1 ulp.

    Contract: the result is floor(X + eps) with X = ln(m / 2**prec) *
    2**prec and |eps| < 2**-16, so it is within 1 + 2**-16 ulp of X.
    transforms._log_at counts it as one ulp; certifying only
    w - err.bit_length() bits leaves over a whole ulp for the 2**-16.

    Reduction, one of two by precision, at g = prec + 32 + k bits:
    - while g's bucket is at most 4,096 bits (k = 0), pick j with
      T_j <= m < T_(j+1) from the table of 2**(j/256) (a float estimate
      from the top bits, corrected against the table; j stays at most
      255 for mantissas just below 2), so ln m = j ln2 / 256 +
      2 atanh(t) with t = (m - T_j) / (m + T_j) < 2**-9.5;
    - above that, take k = isqrt(prec) // 3 square roots v of m, so
      ln m = 2**(k+1) atanh(t) with t = (v - 1) / (v + 1) < 2**-(k+1.5).
    Each series term gains 19 or 2k + 3 bits. The roots take over where
    they beat the table (measured near 4,000 bits), which also bounds
    what the table cache keeps.

    Error at scale 2**-g: the sliced T_j and j ln2 / 256 are within 2 and
    3 ulp; the ratio, each root and t floor once each (a root halves the
    relative error it inherits), so t is within 4 ulp; each of the n
    series terms floors twice. All but j ln2 / 256 is scaled by 2**(k+1),
    so the sum is within 2**(k+1) (2n + 8) + 3 ulp: below 4n + 20 ulp at
    scale 2**-(prec + 32), which is below 2**16 as n stays under 2,000
    up to a million bits. Dropping the 32 guard bits leaves the eps above.
    """
    g = prec + _GUARD
    bucket = _bucket(g)
    k = 0 if bucket <= _TABLE_MAX_BUCKET else math.isqrt(prec) // 3
    g += k
    one = 1 << g
    m <<= g - prec
    if not one <= m < 2 * one:
        raise ValueError("ln_fixed mantissa must lie in [1, 2)")
    if k:
        jln2 = 0
        for _ in range(k):
            m = math.isqrt(m << g)
        t = ((m - one) << g) // (m + one)
    else:
        ts, ln2 = _ln_table(bucket)
        cut = bucket - g
        j = min(_TABLE_STEPS - 1, int((math.log2(m) - g) * _TABLE_STEPS))
        tj = ts[j] >> cut
        while tj > m:
            j -= 1
            tj = ts[j] >> cut
        while j < _TABLE_STEPS - 1 and ts[j + 1] >> cut <= m:
            j += 1
            tj = ts[j] >> cut
        jln2 = j * ln2 >> (_TABLE_BITS + cut)  # j ln2 / 256
        t = ((m - tj) << g) // (m + tj)
    t2 = t * t >> g
    term = total = t
    i = 1
    while term > 0:
        term = term * t2 >> g
        total += term // (2 * i + 1)
        i += 1
    return ((total << (k + 1)) + jln2) >> (_GUARD + k)


def ln_int_fixed(n, prec, ln2):
    """ln(n) * 2**prec for an integer n >= 1, within bit_length(n) + 2 ulp
    given ln2 within 1 ulp of ln 2 * 2**prec (ln2_fixed(prec) is).

    With d = bit_length(n) and n cut to a mantissa ms of prec + 1 bits,
    ln n = ln_fixed(ms, prec) + (d - 1) ln 2: d - 1 ulps come from ln2,
    below one from the cut and 1 + 2**-16 from ln_fixed.
    """
    d = n.bit_length()
    ms = n << (prec + 1 - d) if d <= prec + 1 else n >> (d - prec - 1)
    return ln_fixed(ms, prec) + (d - 1) * ln2


def exp_fixed(x, prec):
    """e**(x / 2**prec) for x >= 0 as (mantissa, exponent2).

    The returned mantissa sits in [2**prec, 2**(prec+1)), i.e. the value is
    (mantissa / 2**prec) * 2**exponent2, within a few ulp. Octaves are
    peeled off with ln 2, the residual r < ln 2 is halved below 2**-h with
    h = max(10, isqrt(prec)), Taylor-summed (about g/h terms) and squared
    back h times at most.

    Error: the Taylor sum is within about 2 ulp per term at scale 2**-g,
    and every squaring doubles the relative error it inherits and floors
    once more, so the sum squared back is within 2**(h+1) (g/h + 3) ulp.
    The 32 base guard bits cover the first 10 squarings with 20 bits to
    spare (all there is below 121 bits, where h = 10), and h - 10 extra
    guard bits cover the rest, so the result is within (g/h + 3) 2**-21
    ulp of e**x before its last floor. x.bit_length() - prec more bits
    cover the octave count's multiple of ln 2's error.
    """
    if x < 0:
        raise ValueError("exp_fixed needs x >= 0")
    h = max(10, math.isqrt(prec))
    g = prec + _GUARD + h - 10 + max(0, x.bit_length() - prec)
    one = 1 << g
    x <<= g - prec
    k, r = divmod(x, ln2_fixed(g))
    halvings = max(0, r.bit_length() - (g - h))
    r >>= halvings
    term = total = one
    i = 1
    while term:
        term = (term * r >> g) // i
        total += term
        i += 1
    for _ in range(halvings):
        total = total * total >> g
    if total >> (g + 1):  # rounding carried e**residual up to 2
        total >>= 1
        k += 1
    return total >> (g - prec), k


def pow_fixed(m, prec, n):
    """(m / 2**prec)**n for a mantissa in [1, 2), n >= 1, normalized.

    Binary powering with renormalization after every multiply; returns
    (mantissa, exponent2) in the same convention as exp_fixed.
    """
    if n < 1:
        raise ValueError("pow_fixed needs n >= 1")
    g = prec + _GUARD + n.bit_length()
    one = 1 << g
    two = one << 1
    m <<= g - prec
    if not one <= m < two:
        raise ValueError("pow_fixed mantissa must lie in [1, 2)")
    acc, acc_e = one, 0
    base, base_e = m, 0
    while True:
        if n & 1:
            acc = acc * base >> g
            acc_e += base_e
            if acc >= two:
                acc >>= 1
                acc_e += 1
        n >>= 1
        if not n:
            break
        base = base * base >> g
        base_e *= 2
        if base >= two:
            base >>= 1
            base_e += 1
    return acc >> (g - prec), acc_e
