"""Fixed-point big-integer kernels.

Convention: a value at precision ``prec`` is the integer floor(v * 2**prec),
so rescaling, slicing and fractional parts are shifts and masks, which take
linear time where decimal division takes quadratic time. Every kernel
carries its own guard bits and floors the result back to the requested
scale, so results are exact to a few ulp (integer-only arithmetic, no
platform drift). Decimal appears only in `dec_digits` and `digits_to_bits`,
which serve the decimal-facing edges (precision policies, digit counts).

Constants (pi, ln 2, ln 10, e) are computed once per power-of-two precision
bucket and sliced down by a shift: floor(floor(c*2^B) / 2^(B-p)) equals
floor(c*2^p), so every request at precision p <= B reuses the bucket value
deterministically, independent of call order.
"""

import math

BACKEND = "python"

_GUARD = 32  # guard bits carried inside every kernel


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


def _gregory_sum(q, prec, hyperbolic):
    # Binary splitting for f(1/q) = sum_i s^i / ((2i+1) q^(2i+1)),
    # s = +1 (atanh) or -1 (atan). Invariant of split(a, b): the partial sum
    # over [a, b) times q^(2a+1) equals P/(R) with the q-powers folded into R.
    g = prec + _GUARD
    n_terms = int(g / (2 * math.log2(q))) + 2
    q2 = q * q

    def split(a, b):
        if b - a == 1:
            sign = 1 if (hyperbolic or a % 2 == 0) else -1
            return sign, 2 * a + 1
        m = (a + b) // 2
        p1, r1 = split(a, m)
        p2, r2 = split(m, b)
        shift = q2 ** (m - a)
        return p1 * r2 * shift + p2 * r1, r1 * r2 * shift

    p, r = split(0, n_terms)
    return (p << g) // (r * q) >> _GUARD


def _pi(prec):
    # 16 atan(1/5) - 4 atan(1/239)
    g = prec + _GUARD
    v = 16 * _gregory_sum(5, g, False) - 4 * _gregory_sum(239, g, False)
    return v >> _GUARD


def _ln2(prec):
    g = prec + _GUARD
    return 2 * _gregory_sum(3, g, True) >> _GUARD


def _ln10(prec):
    # ln 10 = 3 ln 2 + ln(10/8) = 6 atanh(1/3) + 2 atanh(1/9)
    g = prec + _GUARD
    v = 6 * _gregory_sum(3, g, True) + 2 * _gregory_sum(9, g, True)
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
    cache = {}

    def get(prec):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        bucket = 1 << max(6, (prec - 1).bit_length())
        value = cache.get(bucket)
        if value is None:
            value = cache[bucket] = fn(bucket)
        return value >> (bucket - prec)

    get.__name__ = name
    return get


pi_fixed = _bucketed(_pi, "pi_fixed")
ln2_fixed = _bucketed(_ln2, "ln2_fixed")
ln10_fixed = _bucketed(_ln10, "ln10_fixed")
e_fixed = _bucketed(_e, "e_fixed")


def ln_fixed(m, prec):
    """floor(ln(m / 2**prec) * 2**prec) for a mantissa in [1, 2).

    Two integer square roots bring the argument below 2**(1/4), so the
    series argument t = (B-1)/(B+1) stays below 0.0865 (about 7 bits per
    term); then ln v = 8 atanh(t).
    """
    g = prec + _GUARD
    one = 1 << g
    m <<= _GUARD
    if not one <= m < 2 * one:
        raise ValueError("ln_fixed mantissa must lie in [1, 2)")
    m = math.isqrt(m << g)
    m = math.isqrt(m << g)
    t = ((m - one) << g) // (m + one)
    t2 = t * t >> g
    term = total = t
    i = 1
    while term > 0:
        term = term * t2 >> g
        total += term // (2 * i + 1)
        i += 1
    return 8 * total >> _GUARD


def exp_fixed(x, prec):
    """e**(x / 2**prec) for x >= 0 as (mantissa, exponent2).

    The returned mantissa sits in [2**prec, 2**(prec+1)), i.e. the value is
    (mantissa / 2**prec) * 2**exponent2. Octaves are peeled off with ln 2,
    the residual is halved below 2^-10, Taylor-summed, and squared back.
    """
    if x < 0:
        raise ValueError("exp_fixed needs x >= 0")
    # the octave count multiplies the error of ln 2: guard its bits too
    g = prec + _GUARD + max(0, x.bit_length() - prec)
    one = 1 << g
    x <<= g - prec
    k, r = divmod(x, ln2_fixed(g))
    halvings = max(0, r.bit_length() - (g - 10))
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
