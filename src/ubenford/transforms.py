"""Rescaling transforms and certified fractional-part evaluation.

The transforms map positive reals to the scale on which mantissa behaviour
becomes mod-1 behaviour: log base b (Log), the iterated log, base 10 twice
(LogLog), and the power maps c*x**(p/q) (Power), whose named instances are
the identity, the square root and the area map pi*x**2. The certifier
(_Certifier, one per transform and policy, serving a whole cell or a
single term) computes u(x) for a BigReal input with enough working
precision that the fractional part is certified: the value is evaluated
once per working precision w, starting at start_bits, and accepted when
the bits its evaluator claims cover the leading fractional bits, so
certification rests on each evaluator's claimed bits; w doubles
otherwise, with one extra doubling when the result sits within the
near-integer guard band, up to _CAP_DIGITS. Precisions here are bits;
decimal digits enter only through the policy, converted once per
certifier, and the cap.

Each transform states one step from a double-double ln x and its bound
to u and its bound (`_from_ln`): a log multiplies by 1/ln b, the
iterated log takes the outer log10 of log10 x (`_log10_of`), a power
map c x**a computes 2**((a ln x + k ln pi) / ln 2), k = 1 for c = pi
(`_exp2`), while u <= _EXP2_U_MAX (about 2**23.2). No quick route asks
what kind of transform it serves.

An array of doubles (analyze_dataset, the sampled row of table3) goes
through _Certifier.fracs in two phases, after Ziv, a block of
_QUICK_BLOCK (4,096) values at a time. The quick phase has two routes.
The double-double route takes Log (every base) and LogLog through
`_from_ln` on `_ln`'s ln x, and sqrt and pi*x**2 while u <= 2**20
through their own arithmetic (`Power._quick`): on 4,096 doubles exp2
took 15 to 20 times as long and handed out 11-13% fewer. Each value gets a
proved bound err (below 2**-92 for a log, about 2**-105 u for sqrt and
2**-104 u for pi*x**2; the proofs are in `_ln`, `_from_ln`, `_quick`,
`_log10_of` and `_fma`, the one double-double product and sum). The
integer route (`Power._scaled`) takes what the power maps with an inexact
result (q = 2, or c = pi) leave, at any size: A = floor(u * 2**120) in
Python ints, exact but for pi's few units (`_pi_power_floor`). A double
is handed out only where its u, widened by its route's error and by the
certifier's width, 2**-b for a floor b on the bits certify's first
evaluation claims on what a route takes (`_Certifier._width`, one rule
for doubles and terms, worked out from bounds on the inputs' size and
precision, with nothing evaluated: `_claim_floor`, proved for each
evaluator), lies inside one 2**-80 cell of {u}; the policy certifies at
most 80 bits, and certify could double the first precision within the
cap. The double is then the one certify would return (`_cell_doubles`).
Every other value falls back to the certifier: one outside both routes
(nonpositive or subnormal for Log, LogLog, the identity and x**p without
pi everywhere), an exact power of the base, and any u near a cell edge
or, for Log, an integer. Below
2**-80 the integer route needs no lower margin: its maps' certified
results are never negative.

A sequence's terms (frac_sample) go through _Certifier.terms, the same
two phases over blocks of _QUICK_BLOCK indices, on one of two routes.
The primes' terms are exact doubles (`Sequence._doubles`), and take the
routes above. Every other sequence states ln x_n on a range of n
(`Sequence._ln_terms`): n for e**n, n ln n for n**n, Stirling's series
for n! from n = 16 on, ln n / pi for n**(1/pi), and s ln n + c ln pi for
the terms pi**c n**s of a form; and its terms take the one route on the
indices (`_OnTerms`): `_from_ln` on the ln x_n; or under
pi*x**p, where the sequence states it (`Sequence._pi_power_floors`),
floor(u 2**120) in ints. For a form where s p is an integer (pi_n, and
sqrt_n under pi*x**2), n! and e**n (running products) the floors take
every term; a power law's cost an exp per prime factor of n, so its
exp2 phase runs first, up to the cut, and its floors take every term
that leaves. The route's width (`_term_width`) is `_width` on the
terms whose route error leaves room in a cell, on each run of them
generated at the same bits, from what the sequence states of them: no
term is generated for it. A route takes the terms whose first
precision, doubled, stays within the cap. Per term: n**n under the
power maps, and e**n under those without pi, but their first few
terms, and n! under sqrt and below 16 under the logs. A root of an
exact integer past every double (n!, n**n) first meets a residue filter
(`_no_square`), and is taken at the fractional bits its working
precision sizes (`Power._eval_at`).
"""

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .bigreal import _FRAC_OUT_BITS, _ONE_MINUS, DEFAULT_POLICY, BigReal, \
    _frac_double
from .errors import DomainError, HypothesisViolated, InsufficientPrecision, \
    InvalidParameter, NotUnimodal, PrecisionCapExceeded, count, string
from .kernels import digits_to_bits, exp_fixed, ln2_fixed, ln10_fixed, \
    ln_int_fixed, pi_fixed

# ---------------------------------------------------------------------------
# exact fast paths

def _power_exponent(v, base):
    """j with base**j == v for an integer v > 1, else None.

    Only one j can match, and it is read off the bits of v: the count of
    trailing zero bits for an even base, the bit length for an odd one.
    One big power and one comparison decide.
    """
    bl = v.bit_length()
    log2_base = math.log2(base)
    if base % 2 == 0:
        twos = (base & -base).bit_length() - 1
        tz = (v & -v).bit_length() - 1
        if tz % twos:
            return None
        j = tz // twos
    else:
        if v % base:
            return None
        j = math.ceil((bl - 1) / log2_base)
    # base**j has floor(j * log2(base)) + 1 bits
    if j < 1 or abs(j * log2_base - (bl - 1)) > 1.0 + 1e-9 * bl:
        return None
    return j if base ** j == v else None


# integers wider than this are past every double; only for them do the
# square roots of Power take the residue filter and the sized root
_DOUBLE_BITS = 1024
# eight primes past 10**6: small moduli prove nothing about n!, which every
# one of them divides
_RESIDUE_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                   1000117, 1000121)


def _no_square(m):
    """True where a residue proves the integer m >= 0 no square, as in
    the square test of Cohen, A Course in Computational Algebraic Number
    Theory (1993), Alg. 1.7.3, whose moduli 64, 63, 65 and 11 all divide
    n! past n = 12. A square is 0 or a quadratic residue mod every odd
    prime p, and r != 0 is one iff r**((p - 1)/2) = 1 mod p, else -1
    (Euler's criterion). A non-square passes each prime with odds near
    1/2."""
    return any(pow(m % p, p >> 1, p) == p - 1 for p in _RESIDUE_PRIMES)


def _exact_log(x, base):
    """log_base(x) when x is an exact integer power of base, else None."""
    m, e = x.mantissa, x.exponent
    if m <= 0:
        return None
    # x = num / den in lowest terms; den is a power of two
    if e >= 0:
        num, den = m << e, 1
    else:
        tz = min((m & -m).bit_length() - 1, -e)
        num, den = m >> tz, 1 << (-e - tz)
    if num == 1 and den == 1:
        return BigReal.from_int(0)
    if den == 1:
        j = _power_exponent(num, base)
        return None if j is None else BigReal.from_int(j)
    if num == 1:
        j = _power_exponent(den, base)
        return None if j is None else BigReal.from_int(-j)
    return None


# ---------------------------------------------------------------------------
# fixed-precision evaluation of one transform
#
# Working precisions are in bits: each evaluator returns floor-accurate
# u(x) at scale 2**-w with the count of certified bits as its precision.

def _input_frac_limit(x, result_int_bits):
    """Fractional bits of u(x) supported by the input's own certification."""
    return x.significant_bits() - result_int_bits - 2


@functools.cache
def _log_constants(base, w):
    """What _log_at needs at working precision w: ln 2 and ln(base) at
    scale 2**-w, and the ulps by which that ln(base) may be off."""
    ln2 = ln2_fixed(w)
    if base in (2, 10):
        return ln2, ln2 if base == 2 else ln10_fixed(w), 1
    return ln2, ln_int_fixed(base, w, ln2), base.bit_length()


def _log_err(k, units, lost, w, base):
    """`_log_at`'s error bound in units of 2**-w, for an input of binary
    exponent +-k, a result of `units` whole units of |u| and `lost` units
    from an inexact input's relative error; it grows with each of them.

    The error of ln x in ulps of 2**-w: k from ln 2, one each from ln_fixed
    and the mantissa cut, and `lost`; ln(base) is off by c ulps, which
    costs c per unit of |u|; dividing by ln(base) scales it all, and the
    floors of the quotient and of this bound add one each."""
    _, ln_base, c = _log_constants(base, w)
    return ((k + 2 + c * (units + 1) + lost) << w) // ln_base + 2


def _log_at(x, w, base):
    ln2, ln_base, _ = _log_constants(base, w)
    m, e = x.mantissa, x.exponent
    # x = m * 2**e = (ms / 2**w) * 2**k with ms / 2**w in [1, 2)
    lv = ln_int_fixed(m, w, ln2) + e * ln2
    k = m.bit_length() - 1 + e
    q = (lv << w) // ln_base
    int_bits = max(0, q.bit_length() - w)
    # an inexact input's relative error costs two per 2**-w of it
    lost = 0 if x.exact else 1 << max(0, w + 1 - x.significant_bits())
    err = _log_err(abs(k), abs(q) >> w, lost, w, base)
    frac_cert = min(w - err.bit_length(), _input_frac_limit(x, int_bits))
    return BigReal(q, -w, int_bits + frac_cert, False)


# ---------------------------------------------------------------------------
# double-double arithmetic for the quick phase
#
# A double-double is a pair of float64 arrays whose exact sum is the value.
# _two_sum (Knuth) and _two_prod (Dekker, with Veltkamp's split) return a
# rounded result and its exact rounding error, for finite operands whose
# products neither overflow nor underflow. A rounded operation's error is
# at most 2**-53 times its computed result (round to nearest, normal
# range), which is how every error bound below counts one rounding.

_DD_BITS = 160  # fixed-point bits of the constants the quick phase rounds
_HALF_ULP = 2.0 ** -53
# values, or a sequence's indices, per numpy pass, which bounds its
# temporaries
_QUICK_BLOCK = 4096
_QUICK_U_MAX = 2.0 ** 20  # a power map's double-double phase stops here
# the integer route's A = floor(u * 2**_ROUTE_BITS) keeps _ROUTE_GUARD bits
# below the 2**-80 cell
_ROUTE_GUARD = 40
_ROUTE_BITS = _FRAC_OUT_BITS + _ROUTE_GUARD
_isqrt = np.frompyfunc(isqrt, 1, 1)


def _cell_doubles(jh, jl):
    """frac's double for each cell j = jh + jl of {u}, j < 2**80 the exact
    sum of two doubles: j * 2**-80 rounded once, as _frac_double's int /
    int true division rounds it, and 1 - 2**-53 where that rounds to 1.
    jh + jl rounds once and the scaling by 2**-80 is exact.
    """
    return np.minimum((jh + jl) * 2.0 ** -_FRAC_OUT_BITS, _ONE_MINUS)


def _pi_power_floor(m, e, k, big):
    """The integer route's A under pi: pi**k m 2**(e + _ROUTE_BITS) lies
    in (A - 1, A + 2), for ints m >= 0 and e (or object arrays of them),
    an int k >= 1 and an int big >= 0 with every m 2**e < 2**big.

    A = floor(m P 2**(e + _ROUTE_BITS - kL)), a right shift, for P =
    pi_fixed(L)**k and L = big + _ROUTE_BITS + 2k + bit_length(k) - 1.
    pi_fixed(L) is within 2 of pi 2**L (kernels), so P is within (pi
    2**L)**k k 2**(1 - L) / pi (1 + 2**-40) of (pi 2**L)**k, and the
    shifted product before its floor is off by at most 2**(big +
    _ROUTE_BITS + 1 - L) k pi**(k - 1) (1 + 2**-40) = k 2**-bit_length(k)
    (pi/4)**(k - 1) (1 + 2**-40) < 1: k 2**-bit_length(k) is 1/2 at k =
    1 and below 1 past it, where (pi/4)**(k - 1) <= pi/4. Only pi's bits
    near u's binary point reach A (Payne and Hanek, SIGNUM Newsletter 18,
    1983): L follows the largest m 2**e, and the shift drops the rest.
    """
    bits = _pi_power_bits(k, big)
    return m * pi_fixed(bits) ** k >> (k * bits - _ROUTE_BITS - e)


def _pi_power_bits(k, big):
    """`_pi_power_floor`'s L, the bits of pi it takes."""
    return big + _ROUTE_BITS + 2 * k + k.bit_length() - 1


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1
    h = c - (c - a)
    return h, a - h


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _exact(v):
    """Whether v is the scalar 0.0, which marks an operand's part as
    exactly zero: it forms no product or sum and adds no error."""
    return isinstance(v, float) and v == 0.0


def _fma(a, b, c=None):
    """A B + C = vh + vl in double-double and err >= |vh + vl - (A B +
    C)|, for operands (hi, lo, err), hi + lo within err of the operand,
    as arrays or scalars (a `_dd` constant); C absent for A B alone.

    Arithmetic: ah bh = p + pe exactly (Dekker), and m1 = RN(ah bl) and
    m2 = RN(al bh) round once each. Without C, low = pe and each of them
    joins it in turn. With C, p + ch = h + r exactly (Knuth), low =
    RN(r + pe), about ulp(h), and m = RN(m1 + m2) joins it, then cl.
    Each addition to low rounds once, and vh + vl = h + low exactly.
    Each rounded result costs 2**-53 of itself; al bl is left out and
    added whole. A lo part given as the scalar 0.0 forms no product or
    sum, and an absent C no sum, so no exact step counts as a rounding.

    Operands: as A, B and C move within ea, eb and ec, A B + C moves by
    at most |A| eb + |B| ea + ea eb + ec, with |A| <= |ah| + |al|; an err
    given as the scalar 0.0 adds nothing.

    Range: ah and bh each 0 or of magnitude in [2**-400, 2**400], as
    every caller's are, so no split or product overflows and ah bh is 0
    or normal, where Dekker's product is exact. A product of a lo part may
    fall below the normal range, where its rounding is within 2**-1075
    rather than 2**-53 of it: the term 2**-1000 covers that. Relative
    slack (the rounding of al bl, and err's own sums, fewer than 2**10
    along any route) stays below 2**-43 and is left to the certifier's
    factor 1 + 2**-40, applied in `_double_double_cells`.
    """
    ah, al, ea = a
    bh, bl, eb = b
    p, pe = _two_prod(ah, bh)
    m = [x * y for x, y in ((ah, bl), (al, bh))
         if not (_exact(x) or _exact(y))]
    rounded = m[:]  # each result that rounds once
    h, low = p, pe
    if c is not None:
        ch, cl, ec = c
        h, r = _two_sum(p, ch)
        low = r + pe
        rounded.append(low)
        if len(m) == 2:
            m = [m[0] + m[1]]
            rounded += m
    for v in m:
        low = low + v
        rounded.append(low)
    if c is not None and not _exact(cl):
        low = low + cl
        rounded.append(low)
    vh, vl = _two_sum(h, low)
    err = 2.0 ** -1000 + _HALF_ULP * sum(map(np.abs, rounded))
    if not (_exact(al) or _exact(bl)):
        err = err + np.abs(al * bl)
    if not _exact(eb):
        err = err + (np.abs(ah) if _exact(al)
                     else np.abs(ah) + np.abs(al)) * eb
    if not _exact(ea):
        err = err + (np.abs(bh) if _exact(bl)
                     else np.abs(bh) + np.abs(bl)) * ea
        if not _exact(eb):
            err = err + ea * eb
    if c is not None and not _exact(ec):
        err = err + ec
    return vh, vl, err


def _dd(v, ulps):
    """(hi, lo, err) for a constant c with |v - c * 2**160| <= ulps: v / 2**160
    rounded to the double-double hi + lo, and err >= |c - hi - lo|, taken
    from the exact residual in integers."""
    one = 1 << _DD_BITS
    hi = v / one  # int / int rounds once
    n, d = hi.as_integer_ratio()
    den = max(one, d)
    rest = v * (den // one) - n * (den // d)
    lo = rest / den
    n, d = lo.as_integer_ratio()
    den2 = max(den, d)
    miss = abs(rest * (den2 // den) - n * (den2 // d)) + ulps * (den2 // one)
    return hi, lo, miss / den2


@functools.cache
def _quick_log_tables():
    """ln 2 and ln c_j for the 256 cell centres c_j = (513 + 2j)/512 of
    [1, 2), as double-doubles: ((hi, lo, err) of ln 2, the arrays of the
    cells' hi and lo, and one err for every cell). ln c_j = ln(513 + 2j)
    - 9 ln 2 is within 10 + 2 + 9 ulps."""
    ln2 = ln2_fixed(_DD_BITS)
    cells = [_dd(ln_int_fixed(513 + 2 * j, _DD_BITS, ln2) - 9 * ln2, 21)
             for j in range(256)]
    hi, lo, err = zip(*cells)
    return _dd(ln2, 1), np.array(hi), np.array(lo), max(err)


@functools.cache
def _quick_inv_ln(base):
    """1/ln(base) as (hi, lo, err). ln_int_fixed is within bit_length + 2
    ulps, so the quotient is within (bit_length + 2) / ln(base)**2 + 1 <=
    3 (bit_length + 2) ulps."""
    ln = ln_int_fixed(base, _DD_BITS, ln2_fixed(_DD_BITS))
    return _dd((1 << 2 * _DD_BITS) // ln, 3 * (base.bit_length() + 2))


@functools.cache
def _quick_pi():
    return _dd(pi_fixed(_DD_BITS), 2)


@functools.cache
def _ln_pi_fixed():
    """ln pi at g = _DD_BITS + 64 bits: ln of pi_fixed(g) (within 2 units
    of pi 2**g, so below 1 ulp of ln pi + g ln 2) is within g + 4 ulps and
    g ln 2 within g: 2g + 4 ulps at 2**-g."""
    g = _DD_BITS + 64
    ln2 = ln2_fixed(g)
    return ln_int_fixed(pi_fixed(g), g, ln2) - g * ln2


@functools.cache
def _quick_ln_pi():
    """ln pi as (hi, lo, err), from `_ln_pi_fixed` at 2**-(_DD_BITS + 64),
    whose floor to 2**-160 adds one ulp: 2 ulps."""
    return _dd(_ln_pi_fixed() >> 64, 2)


@functools.cache
def _quick_inv_pi():
    """1/pi as (hi, lo, err): pi_fixed is within 2 ulps, so the quotient
    is within 2 / pi**2 + 1 <= 2 ulps."""
    return _dd((1 << 2 * _DD_BITS) // pi_fixed(_DD_BITS), 2)


def _ln(x):
    """ln x = lh + ll in double-double and err >= |lh + ll - ln x|, for an
    array of normal positive doubles; its temporaries die here, before a
    caller's products.

    x = m 2**k with m in [1, 2), c the centre of m's cell of [1, 2)
    (width 2**-8), t = (m - c)/(m + c) with |t| <= 2**-10, and
    ln x = k ln 2 + ln c + 2 atanh(t), atanh(t) = t + t g,
    g = t**2/3 + t**4 (1/5 + t**2/7 + t**4/9 + t**6/11) + O(t**10).

    The bound, M = ln c + 2 atanh(t) first:
    - m - c is exact, m + c = dh + dl exactly and num - th dh is the
      exactly representable remainder of th = RN(num/dh); so th + tl is t
      within 2**-112 (roundings below 2**-113, and dividing by dh, not dh
      + dl, costs 2**-53 of a correction below 2**-61), which 2 atanh's
      slope (< 2.0001) makes 2**-110.9.
    - sh + sl is t*t within 2**-121 (tl**2 and two roundings), gh + gl,
      before q joins it, is t*t/3 within 2**-121.
    - q stands for t**4 (1/5 + ...): z = RN(sh + sl) is t*t within 2**-53
      relative, the polynomial in z within 2**-52 relative (the double
      0.2 and the last addition; its tail is below 2**-80 relative), and
      two products round once each: 2**-50 |q|.
    - atanh(t) = th + tl + th gh + th gl + tl gh (+ tl gl < 2**-134), th
      gh = p + pe exactly and th + p = ah + r exactly; the six roundings
      in al act on partial sums below 2**-60.5.
    So 2 atanh(t) is within 2**-49 |th q| + 2**-109.5 (|t| <= |th| (1 +
    2**-51)), and then: ln c_j's double-double is off by at most the
    table's err; ml = (r + cl) + 2 al rounds twice.
    Then L = k ln 2 + M: k ln2h = a1 + a2 and a1 + mh = lh + r exactly, b
    = RN(k ln2l) rounds once, ll = ((r + a2) + b) + ml three times, and
    ln 2's double-double is off by its err, k times. Relative slack below
    2**-50 per term (|th| for |t|, the rounding of err itself) is left to
    the factor 1 + 2**-40 the certifier puts on err.
    """
    ln2, cell_hi, cell_lo, cell_err = _quick_log_tables()
    m, k = np.frexp(x)
    m += m
    k = k - 1.0
    j = ((m - 1.0) * 256.0).astype(np.intp)
    c = (j + 0.5) / 256.0 + 1.0
    num = m - c
    dh, dl = _two_sum(m, c)
    th = num / dh
    p, pe = _two_prod(th, dh)
    tl = (num - p - pe - th * dl) / dh
    sh, sl = _two_prod(th, th)
    sl += 2.0 * th * tl
    gh = sh / 3.0
    p, pe = _two_prod(gh, 3.0)
    gl = (sh - p - pe + sl) / 3.0
    z = sh + sl
    q = z * z * (0.2 + z * (1 / 7 + z * (1 / 9 + z / 11)))
    gh, r = _two_sum(gh, q)
    gl += r
    p, pe = _two_prod(th, gh)
    ah, r = _two_sum(th, p)
    al = r + tl + (pe + th * gl + tl * gh)
    mh, r = _two_sum(cell_hi[j], ah + ah)
    s1 = r + cell_lo[j]
    ml = s1 + (al + al)
    err = (2.0 ** -49 * np.abs(th * q) + (2.0 ** -109.5 + cell_err)
           + _HALF_ULP * (np.abs(s1) + np.abs(ml)))
    a1, a2 = _two_prod(k, ln2[0])
    lh, r = _two_sum(a1, mh)
    b = k * ln2[1]
    s1 = r + a2
    s2 = s1 + b
    ll = s2 + ml
    err += np.abs(k) * ln2[2] + _HALF_ULP * (
        np.abs(b) + np.abs(s1) + np.abs(s2) + np.abs(ll))
    return lh, ll, err


# the iterated log's quick phase falls back where the inner log is below
# this: its error, divided by the inner log, would fill a 2**-80 cell
_LOGLOG_Y_MIN = 2.0 ** -10
_INV_LN10_UP = 0.4343  # above 1/ln 10 = 0.43429448...


def _log10_of(yh, yl, e1):
    """log10(y) in double-double and its error bound, for y = yh + yl
    within e1 (yh = RN(yh + yl)); err is 1, a whole unit that no cell
    holds, where yh < _LOGLOG_Y_MIN or e1 > 2**-60 yh, and the caller's
    value falls back.

    log10(yh + yl) = log10(yh) + log10(1 + r), r = yl / yh with |r| <=
    2**-53, and log10(1 + r) = r / ln 10 within r**2 / (2 ln 10) <
    2**-107. LOG10._quick(yh) gives log10(yh) within its own err; c =
    RN(yl / yh) and d = RN(c ih), ih = RN(1 / ln 10), round once each and
    ih is within 2**-53 relative, so d is r / ln 10 within 2**-51 |d|;
    ul + d rounds once more. The true y lies within e1 of yh + yl, and
    the log's slope on that interval, 1 / ((y - e1) ln 10), is below
    _INV_LN10_UP / yh up to a relative 2**-52 (|yl| + e1 <= 2**-52 yh),
    which with the roundings of that term is slack left to the
    certifier's factor 1 + 2**-40, applied in `_double_double_cells`.
    """
    ok = (yh >= _LOGLOG_Y_MIN) & (e1 <= 2.0 ** -60 * yh)
    yh = np.where(ok, yh, 1.0)
    uh, ul, err = LOG10._quick(yh)
    d = yl / yh * _quick_inv_ln(10)[0]
    wl = ul + d
    vh, vl = _two_sum(uh, wl)
    err += (2.0 ** -51 * np.abs(d) + 2.0 ** -107 + _HALF_ULP * np.abs(wl)
            + e1 * _INV_LN10_UP / yh)
    return vh, vl, np.where(ok, err, 1.0)


# exp2's reduced argument z = r ln 2 stays within _EXP2_Z_MAX (|r| <= 2**-9
# and the low part of a y below 2**10); the Taylor polynomial of e**z of
# degree 8 is within _EXP2_REMAINDER of it there; _LN2_UP is above ln 2
_EXP2_Z_MAX = 0.69315 * (2.0 ** -9 + 2.0 ** -44)
_EXP2_REMAINDER = _EXP2_Z_MAX ** 9 / 362880 / (1 - _EXP2_Z_MAX / 10) * (
    1 + 2.0 ** -40)
_LN2_UP = 0.6931471805599454
# exp2's err is at least _EXP2_REMAINDER u / (1 + 2**-9), more than half
# a 2**-80 cell past this (about 2**23.2), where no u is handed out
_EXP2_U_MAX = 2.0 ** -81 * (1 + 2.0 ** -9) / _EXP2_REMAINDER


@functools.cache
def _quick_exp2_table():
    """2**(j/256) for j = 0..255 as the arrays of hi and lo and one err
    for every entry, and the Taylor coefficients 1/i! of e**z for i = 0..8
    as (hi, lo, err), from integers at 2**-160.

    exp_fixed(x, 160) of x = floor(j ln2_fixed(160) / 256), within 2
    ulps of j ln 2 / 256 (ln2_fixed is within 1), is within 1 + 2**-15
    ulps of e**x and e**x within 2 e**x <= 4 ulps of 2**(j/256): 6 ulps.
    """
    ln2 = ln2_fixed(_DD_BITS)
    cells = []
    for j in range(256):
        mant, k = exp_fixed(j * ln2 >> 8, _DD_BITS)
        cells.append(_dd(mant << k, 6))
    hi, lo, err = zip(*cells)
    one = 1 << _DD_BITS
    taylor = [_dd(one // math.factorial(i), 1) for i in range(9)]
    return np.array(hi), np.array(lo), max(err), taylor


def _exp2(yh, yl, ey):
    """2**y in double-double and its error bound, for y = yh + yl within
    ey <= 2**-52, 0 <= yh <= 1000 and |yl| <= ulp(yh)/2.

    Reduction: t = RN(256 yh), and 256 yh - t is exact (a double minus
    its nearest integer), so is r_h = (256 yh - t)/256, |r_h| <= 2**-9.
    With N = floor(t/256) and j = t - 256 N, y = N + j/256 + r, r = r_h
    + yl, and 2**y = 2**N 2**(j/256) e**z, z = r ln 2, |z| <= _EXP2_Z_MAX.

    z = (r_h + yl) ln 2 (`_fma`), within ez. An error dz of z is one of
    e**z of at most e**|z| |dz| (1 + |dz|) < 1.0015 |dz|, so the steps
    below take z as exact and e**z - 1 takes 1.0015 ez once.

    e**z - 1: its Taylor polynomial of degree 8 leaves _EXP2_REMAINDER.
    Horner's scheme runs the tail 1/6! + z (1/7! + z/8!) in doubles, on
    zh: each coefficient is within 2**-53 relative, two products and two
    sums round once each, and zl's share is below 2**-60 of it, so the
    tail is within 2**-60; then the steps w = z w + 1/i! (`_fma`) add
    1/5!, ..., 1/1!, and a last one multiplies by z.

    2**(j/256) e**z = T (e**z - 1) + T, one more step, with the table's
    entry T within its err; the scaling by 2**N is exact, as is the same
    scaling of the bound.

    y: 2**(y + d) = 2**y e**(d ln 2), so |d| <= ey costs at most 2**y
    (e**(ey ln 2) - 1) <= 2**y ey ln 2 (1 + ey), and 2**y is within the
    bound above of |uh + ul| <= |uh| (1 + 2**-52): the term |uh| ey
    _LN2_UP, whose relative slack below 2**-50 is left to the
    certifier's factor 1 + 2**-40, applied in `_double_double_cells`.
    """
    table_hi, table_lo, table_err, taylor = _quick_exp2_table()
    t = np.rint(yh * 256.0)
    rh = (yh * 256.0 - t) * (1.0 / 256.0)
    n = np.floor(t * (1.0 / 256.0))
    j = (t - 256.0 * n).astype(np.intp)
    zh, zl, ez = _fma((rh, yl, 0.0), _quick_log_tables()[0])
    z = zh, zl, 0.0
    w = taylor[6][0] + zh * (taylor[7][0] + zh * taylor[8][0]), 0.0, \
        2.0 ** -60
    for c in taylor[5:0:-1]:
        w = _fma(z, w, c)
    wh, wl, e = _fma(z, w)
    w = wh, wl, e + _EXP2_REMAINDER + 1.0015 * ez
    table = table_hi[j], table_lo[j], table_err
    uh, ul, err = _fma(table, w, table)
    n = n.astype(np.intp)
    uh, ul = np.ldexp(uh, n), np.ldexp(ul, n)
    return uh, ul, np.ldexp(err, n) + np.abs(uh) * ey * _LN2_UP


# ---------------------------------------------------------------------------
# the transforms

class Transform:
    """A rescaling map u; one subclass per kind of map: Log, LogLog and
    Power.

    Double-precision side, on the log10 axis only (no map takes a double
    x to u(x) in doubles; a sample's {u(x)} is certified):
    `u_float_from_log10` (u from log10 x, inf where a double overflows);
    `inverse_log10` (vectorized log10 of the preimage, -inf below the
    image, into `out` where given, as a numpy ufunc's out);
    `power`, the pair (k, factor) of a power map, whose
    u' = x**-k / factor, so that `sup_ratio` (sup of pdf/u' for a
    distribution, a float) is the family's one closed form
    sup_x_pow_pdf(k, factor); `formula`, the map as the refusal names it
    where k < 0 leaves that sup unbounded; a map that is no power
    (LogLog) overrides `sup_ratio`; `lg_domain_lo`, log10 of the domain's
    open lower edge on the positive axis (0 for the iterated log, -inf
    for the rest); `check_support`, the one support rule, which the law
    (bounds.mod1_law) and LogLog's ceiling read. Certified side, for the
    certifier: `_check_domain`, `_try_exact` (exact result or None),
    `_from_ln` (u from ln x, both in double-double with a bound, for the
    quick phase), `_eval_at` (u(x) floor-accurate at scale 2**-w, with
    the constants it needs at w from the caches keyed by w, certified
    bits as precision; it never raises, a value it cannot vouch for gets
    a short claim, and LogLog's, at a vanished inner log, None) and
    `_result_bits_estimate` (integer bits of u for an input of
    `int_bits` integer bits), which start_bits turns into the first
    working precision and the precision a sequence term is generated at.
    The quick routes' width (`_Certifier._width`) rests on
    `_claim_floor(lo, hi, ib, bits, a)`, a floor on the fractional bits
    `_eval_at` claims at start_bits(self, ib_x, a), proved in each
    override, for every input x with lo <= log2 x <= hi and ib_x <= ib
    integer bits: a double, an exact integer, or (bits given) an inexact
    x >= 1 generated at start_bits(self, e, a) bits, e an estimate of its
    integer bits with ib_x <= e <= ib, and at least bits.
    """

    kind = None
    lg_domain_lo = -math.inf
    pi = False  # c = pi, a power map's factor
    _quick_range = None  # no double-double phase
    _integer_route = False  # no integer route (Power._scaled)

    def _quick(self, x):
        """u(x) = uh + ul in double-double and err >= |uh + ul - u(x)|,
        for an array of doubles in _quick_range: `_from_ln` of `_ln`."""
        return self._from_ln(*_ln(x))

    def label(self):
        return self.kind

    def check_support(self, distribution):
        """HypothesisViolated unless u is defined on the whole support: the
        theorem, and so the law and its ceiling, need all of it."""
        if distribution.support_lo < 10.0 ** self.lg_domain_lo:
            raise HypothesisViolated(
                f"iterated log is undefined on part of the support of "
                f"{distribution.label()}")

    def sup_ratio(self, distribution):
        """sup of pdf/u' = factor * sup of x**k * pdf(x).

        With k < 0 the ratio grows without bound toward the origin, so a
        density that reaches it raises NotUnimodal.
        """
        k, factor = self.power
        if k < 0 and distribution.density_positive_at_origin:
            raise NotUnimodal(
                f"pdf/u' for {self.formula} is unbounded near 0 for "
                f"{distribution.label()}")
        return distribution.sup_x_pow_pdf(k, factor)

    @staticmethod
    def parse(text):
        t = string("transform", text).strip().lower().replace("-", "_")
        if t in ("identity", "id"):
            return IDENTITY
        if t in ("loglog", "log_log"):
            return LOGLOG
        if t == "sqrt":
            return SQRT
        if t in ("pi_square", "pisquare", "pi_x2", "pix2"):
            return PI_SQUARE
        if t == "log":
            return LOG10
        # str.isdigit alone takes '²' and Arabic-Indic digits
        if t.startswith("log") and t[3:].isascii() and t[3:].isdigit():
            return Log(int(t[3:]))
        raise InvalidParameter(f"unknown transform {text!r}")


@dataclass(frozen=True)
class Log(Transform):
    """u(x) = log_base(x) for an integer base >= 2, defined for x > 0."""

    base: int = 10
    kind = "log"

    def __post_init__(self):
        # an int, since ln_int_fixed reads base.bit_length()
        object.__setattr__(self, "base", count("log base", self.base, 2))

    def label(self):
        return f"log{self.base}"

    @property
    def power(self):
        return 1.0, math.log(self.base)

    def u_float_from_log10(self, lg):
        return lg / math.log10(self.base)

    def inverse_log10(self, y, out=None):
        c = math.log10(self.base)
        return y * c if out is None else np.multiply(y, c, out=out)

    def _check_domain(self, x):
        if x.sign() <= 0:
            raise DomainError(f"{self.label()} requires x > 0")

    def _try_exact(self, x):
        return _exact_log(x, self.base) if x.exact else None

    def _eval_at(self, x, w):
        return _log_at(x, w, self.base)

    def _result_bits_estimate(self, int_bits):
        return 27

    def _claim_floor(self, lo, hi, ib, bits, a):
        """`Transform`'s floor. w = start_bits is the same for every x, and
        so is an inexact x's precision, bits.

        |log2 x| <= k = max(ib, ceil(-lo) + 1), so the binary exponent is
        at most k - 1 in size, and |u| < k / log2(base) <= k /
        (bit_length(base) - 1), of which |q| >> w is at most units = that
        floored, plus one. `_log_err` grows with each of its counts, so at
        those bounds, with lost = 2**(w + 2 - bits) for an inexact x's
        significant bits bits - 1, it bounds the error, and w less its
        bits bounds the claim. u's integer bits are at most
        bit_length(units), so an inexact x's own limit is at least bits -
        3 - bit_length(units)."""
        w = start_bits(self, ib, a)
        k = max(ib, math.ceil(-lo) + 1)
        units = k // (self.base.bit_length() - 1) + 1
        lost = 0 if bits is None else 1 << max(0, w + 2 - bits)
        claim = w - _log_err(k - 1, units, lost, w, self.base).bit_length()
        return claim if bits is None else \
            min(claim, bits - 3 - units.bit_length())

    # every normal double; |u| stays below 1,075 on it
    _quick_range = (2.0 ** -1022, sys.float_info.max)

    def _from_ln(self, lh, ll, err):
        """ln x times 1/ln(base) (`_fma`)."""
        return _fma((lh, ll, err), _quick_inv_ln(self.base))


@dataclass(frozen=True)
class LogLog(Transform):
    """u(x) = log10(log10(x)), defined for x > 1."""

    kind = "loglog"
    lg_domain_lo = 0.0

    def u_float_from_log10(self, lg):
        if lg <= 0:
            raise DomainError("iterated log requires x > 1")
        return math.log10(lg)

    def inverse_log10(self, y, out=None):
        return np.power(10.0, y, out=out)

    def sup_ratio(self, distribution):
        self.check_support(distribution)
        return distribution.sup_loglog()

    def _check_domain(self, x):
        m, e = x.mantissa, x.exponent
        # x = m * 2**e > 1: compare m with 1 brought to the scale 2**e
        one = 1 << -e if e < 0 else 1
        if m < one or (m == one and e <= 0):
            # an inexact x within its certified error of 1 may still exceed
            # 1; refusing it lets the caller regenerate it at more bits
            slack = 1 << max(0, -e - x.precision + x.integer_bits())
            if not x.exact and one - m <= slack:
                raise InsufficientPrecision(
                    "certified bits cannot separate x from 1")
            raise DomainError("iterated log requires x > 1")

    def _try_exact(self, x):
        inner = _exact_log(x, 10) if x.exact else None
        if inner is None or inner.exponent != 0 or inner.mantissa < 1:
            return None
        return _exact_log(BigReal.from_int(inner.mantissa), 10)

    def _eval_at(self, x, w):
        y = _log_at(x, w + 14, 10)
        if y.sign() <= 0:
            # the inner log cancelled to nothing at this precision: no
            # claim at all, which the certifier answers by doubling w
            return None
        return _log_at(y, w, 10)

    def _result_bits_estimate(self, int_bits):
        return 14

    def _claim_floor(self, lo, hi, ib, bits, a):
        """`Transform`'s floor, on inputs whose inner log y = log10 x is at
        least 2**-10, as on every x its quick routes take (`_log10_of`). w
        = start_bits is the same for every x, and so is an inexact x's
        precision, bits.

        The inner log at w + 14, of an x of at most ib integer bits: Log's
        count at y < ib // 3 + 1 (log2 10 > 3) and lost = 2**(w + 16 -
        bits) costs e bits, and its limit is an inexact x's significant
        bits, bits - 1, less 2 and y's integer bits, so y's precision, its
        integer bits and its claim, is at least inner(ib) = w + 14 - e, or
        bits - 3 if less. The computed y then lies within 2**-60 y of y,
        so at least y_lo (1 - 2**-40), y_lo = max(2**-10, lo log10 2), and
        never vanishes; its binary exponent lies in [m - 1,
        bit_length(units)), units = ib // 3 + 1 and m frexp's of that
        bound, so its size is at most ky = max(1 - m, bit_length(units)),
        and |log10 y| < ky / 3. Its significant bits are its precision
        less one, and below 1, where x < 10 has at most 4 integer bits,
        less -m more: at least s, the smaller of inner(min(ib, 4)) - 1 +
        min(0, m) and inner(ib) - 1. That costs the outer log lost =
        2**(w + 1 - s) and bounds its own limit by s - 2 less the
        result's integer bits, and the outer log at w is then Log's floor
        at those bounds."""
        w = start_bits(self, ib, a)
        lost = 0 if bits is None else 1 << max(0, w + 16 - bits)

        def inner(ib):
            e = _log_err(ib - 1, ib // 3 + 1, lost, w + 14, 10).bit_length()
            return w + 14 - e if bits is None else min(w + 14 - e, bits - 3)

        m = math.frexp(max(_LOGLOG_Y_MIN, lo * math.log10(2.0))
                       * (1 - 2.0 ** -40))[1]
        s = min(inner(min(ib, 4)) - 1 + min(0, m), inner(ib) - 1)
        ky = max(1 - m, (ib // 3 + 1).bit_length())
        units = ky // 3 + 1
        return min(w - _log_err(ky, units, 1 << max(0, w + 1 - s), w,
                                10).bit_length(),
                   s - 2 - units.bit_length())

    # from where log10 x reaches _LOGLOG_Y_MIN to the largest double
    _quick_range = (10.0 ** _LOGLOG_Y_MIN, sys.float_info.max)

    def _from_ln(self, lh, ll, err):
        """The outer log10 (`_log10_of`) of LOG10's log10 x."""
        return _log10_of(*LOG10._from_ln(lh, ll, err))


@dataclass(frozen=True)
class _OnTerms:
    """The one quick route of a transform u on the terms x_n of a
    sequence, as a map of the indices n in its `_ln_range`: u's
    `_from_ln` on the ln x_n it states (`Sequence._ln_terms`).
    Integer phase under pi*x**p, where the sequence states one
    (`Sequence._pi_power_floors`): A_n = floor(u 2**_ROUTE_BITS) in ints,
    at any size. For a form where s p is an integer (sqrt_n at even p,
    pi_n, a power law with p alpha an integer), n! and e**n it takes every
    term alone: A is within 3 units of 2**-120, far inside any err of the
    other phase, and is the faster. Any other power law's floors cost an
    exp per prime factor (`Sequence._dear_floors`), so there the exp2
    phase runs first, on the terms up to _EXP2_U_MAX, and the floors take
    every term it leaves. The certifier's width on the terms either phase
    takes (`_Certifier._term_width`) is worked out from what the sequence
    states of them, and generates none.
    """

    u: Transform
    sequence: object

    @property
    def _quick_range(self):
        seq = self.sequence
        return None if self._integer_route and \
            not seq._dear_floors(self.u.p) else seq._ln_range

    @property
    def _integer_route(self):
        return self.u.pi and \
            self.sequence._pi_power_floors(self.u.p) is not None

    def _quick(self, n):
        return self.u._from_ln(*self.sequence._ln_terms(n))

    def _scaled(self, n):
        """A_n for an ascending array of indices n, with u 2**_ROUTE_BITS
        in (A_n - 1, A_n + 2)."""
        return self.sequence._pi_power_floors(self.u.p)(n.astype(np.int64))


_POWER_NAMES = {(1, 1, False): "identity", (1, 2, False): "sqrt",
                (2, 1, True): "pi_square"}


@dataclass(frozen=True)
class Power(Transform):
    """u(x) = c*x**a with a = p/q and c = pi or 1, defined for x >= 0;
    u(x) = x (a = c = 1) takes every real and returns its input itself.

    One certified route: x**p in integers, its integer square root when
    q = 2, then times pi_fixed(w) when c = pi; the bits it claims come from
    whichever of those two floors it took. The constructor holds the
    route's preconditions: integers p >= 1 and q in (1, 2) with p/q in
    lowest terms, and pi only with q = 1.
    """

    p: int
    q: int = 1
    pi: bool = False

    def __post_init__(self):
        p, q, pi = count("p", self.p, 1), count("q", self.q, 1), self.pi
        if not (isinstance(pi, bool)
                and (q == 1 or q == 2 and p % 2 and not pi)):
            raise InvalidParameter(
                "a power map needs q in (1, 2), p/q in lowest terms, pi "
                f"only if q = 1, got p={p}, q={q}, pi={pi!r}")
        a, c = p / q, math.pi if pi else 1.0
        formula = ("pi*" if pi else "") + (
            f"x**{p}" if q == 1 else f"x**({p}/2)")
        # x**p multiplies an inexact input's relative error by p, which
        # costs ceil(log2 p) bits; _input_frac_limit's pad covers one
        # the double-double phase covers sqrt and pi*x**2 while u <=
        # _QUICK_U_MAX; the integer route (_scaled) covers every map whose
        # _try_exact can fail for a double
        quick = (2.0 ** -400, (_QUICK_U_MAX / c) ** (1.0 / a)) \
            if (p, q, pi) in ((1, 2, False), (2, 1, True)) else None
        for name, value in (
                ("p", p), ("q", q), ("_quick_range", quick),
                ("_integer_route", q == 2 or pi),
                ("kind", _POWER_NAMES.get((p, q, pi), formula)),
                ("formula", formula), ("power", (1.0 - a, 1.0 / (a * c))),
                ("_a", a), ("_c", c), ("_identity", a == 1.0 and not pi),
                ("_input_pad", max(0, (p - 1).bit_length() - 1))):
            object.__setattr__(self, name, value)

    def u_float_from_log10(self, lg):
        try:
            return self._c * 10.0 ** (self._a * lg)
        except OverflowError:
            return math.inf

    def inverse_log10(self, y, out=None):
        below = ~np.greater(y, 0.0)  # nan too
        lg = np.empty(np.shape(y)) if out is None else out
        np.log10(np.maximum(y, 1e-320, out=lg), out=lg)
        np.copyto(lg, -np.inf, where=below)
        if self.pi:
            lg -= math.log10(math.pi)
        lg /= self._a
        return lg if lg.ndim else lg[()]

    def _check_domain(self, x):
        if x.mantissa < 0 and not self._identity:
            raise DomainError(f"{self.kind} requires x >= 0")

    def _raised(self, m, e):
        """x**p as (m, e), x**p = m * 2**e, for x = m * 2**e, with e even
        when q = 2; m and e are ints or object arrays of them."""
        m, e = m ** self.p, e * self.p
        if self.q == 2:
            odd = e % 2
            m, e = m << odd, e - odd
        return m, e

    def _try_exact(self, x):
        if self._identity:
            return x
        if not x.exact or self.pi and x.mantissa:
            return None  # pi*x**p is irrational for every x > 0
        m, e = self._raised(x.mantissa, x.exponent)
        if self.q == 2:
            if x.mantissa.bit_length() > _DOUBLE_BITS and _no_square(m):
                return None
            r = isqrt(m)
            if r * r != m:
                return None
            m, e = r, e // 2
        return BigReal(m, e, max(53, m.bit_length()), True)

    def _eval_at(self, x, w):
        m, e = self._raised(x.mantissa, x.exponent)
        if self.q == 2:
            e //= 2
            if x.exact and e >= 0 and x.mantissa.bit_length() > _DOUBLE_BITS:
                # an integer past every double: start_bits sized w as the
                # root's significant bits, so the root takes w - ib + 1
                # fractional bits, ib its integer bits, and is floor-exact
                # at scale 2**-f; f >= _GUARD_BITS + 41, as ib <= est
                f = w + 1 - (m.bit_length() + 1) // 2 - e
                m, e, floor_bits = isqrt(m << 2 * (e + f)), -f, f - 1
            else:
                # the root is floor-exact at scale 2**(e - w)
                m, e, floor_bits = isqrt(m << 2 * w), e - w, \
                    w - 1 - max(0, e)
        elif self.pi:
            # absolute error <= x**p * 2**-w from the truncated pi bits
            m, e, floor_bits = (pi_fixed(w) * m, e - w,
                                w - self.p * x.integer_bits() - 1)
        else:
            floor_bits = w  # x**p itself is exact
        int_bits = max(0, m.bit_length() + e)
        frac_cert = min(floor_bits,
                        _input_frac_limit(x, int_bits) - self._input_pad)
        return BigReal(m, e, int_bits + frac_cert, False)

    def _result_bits_estimate(self, int_bits):
        return self.p * int_bits // self.q + (self.q == 2) + 2 * self.pi

    def _claim_floor(self, lo, hi, ib, bits, a):
        """`Transform`'s floor; lo is not needed. With E the estimate, w =
        start_bits(self, ib_x, a) >= max(_START_BITS, E(ib_x) + G + a), G
        the guard bits, and the claim is the smaller of the evaluator's
        floor f and the input's limit.

        f: c = pi, w - p ib_x - 1 >= max(_START_BITS - 1 - p ib, G + a +
        1). x**p, w >= start_bits at 0. q = 2: for an exact x, w - 1 at its
        exponent <= 0, and w less the root's integer bits, at most
        E(ib_x), for an integer past 2**_DOUBLE_BITS; for an inexact one w
        - 1 - max(0, e) with the root's exponent e <= p (ib_x - 1) / 2, as
        the mantissa is at least 1, which leaves at least G + a and at
        least _START_BITS - 1 - max(0, p (ib - 1) // 2).

        The input's limit: an exact x's passes every f; an inexact x's is
        its significant bits, its precision less one, less 2, the pad and
        u's integer bits. Those are at most E(ib_x) <= E(e), and at most
        ub = floor(log2 c + hi p / q) + 1; the precision is at least bits,
        and start_bits(e) - E(e) falls as e rises to ib. So the limit is
        at least bits - 3 - min(E(ib), ub) and at least start_bits(ib) - 3
        - E(ib), less the pad."""
        p, g = self.p, _GUARD_BITS + a
        if self.pi:
            f = max(_START_BITS - 1 - p * ib, g + 1)
        elif self.q == 1:
            f = start_bits(self, 0, a)
        elif bits is None:
            f = start_bits(self, 0, a) - 1 if ib <= _DOUBLE_BITS else g
        else:
            f = max(g, _START_BITS - 1 - max(0, p * (ib - 1) // 2))
        if bits is None:
            return f
        e = self._result_bits_estimate(ib)
        ub = int((math.log2(self._c) + hi * self._a) * (1 + 2.0 ** -40)
                 + 2.0 ** -40) + 1
        return min(f, max(bits - 3 - min(e, ub), start_bits(self, ib, a) - 3
                          - e) - self._input_pad)

    def _scaled(self, x):
        """The integer route: A = floor(u(x) * 2**_ROUTE_BITS), as an object
        array of ints, for an array of finite doubles in u's domain, with
        u(x) * 2**_ROUTE_BITS in (A - 1, A + 2); for a map with the route
        (q = 2, or c = pi).

        x = m * 2**e from np.frexp, with m a 53-bit integer, and x**p =
        m * 2**e through `_raised`. q = 2: with k = e/2 + _ROUTE_BITS, A
        = isqrt(m * 2**(2k)) for k >= 0 and isqrt(m) // 2**-k below
        (floor(floor(y)/n) = floor(y/n)), exact. c = pi:
        `_pi_power_floor` with k = 1, for x**p < 2**(p max(E, 0)), E the
        largest binary exponent in the array.
        """
        m, big = np.frexp(x)
        m, e = self._raised((m * 2.0 ** 53).astype(np.int64).astype(object),
                            (big - 53).astype(object))
        if self.q == 2:
            k = e // 2 + _ROUTE_BITS
            return _isqrt(m << np.maximum(2 * k, 0)) >> np.maximum(-k, 0)
        return _pi_power_floor(m, e, 1, self.p * int(big.max(initial=0)))

    def _from_ln(self, lh, ll, err):
        """u = 2**y, y = (a ln x + k ln pi) / ln 2, k = 1 for c = pi, for an
        ascending array of ln x >= 0 (a sequence's terms are at least 1):
        a ln x + k ln pi and that times 1/ln 2 (`_fma`), then
        `_exp2`, within about u (ey ln 2 + 2**-104) for y's bound ey,
        while u <= _EXP2_U_MAX, past which that bound's fixed part alone
        fills half a 2**-80 cell. Every u from the first past it gets err
        1, which no cell holds, so an array that starts past the cut runs
        no `_exp2`. Below the cut y < 23.3, and ey is about a err / ln 2
        <= 2**-57 y for an err up to 2**-57 ln x: below `_exp2`'s 2**-52.
        """
        y = lh, ll, err
        if self._a != 1.0 or self.pi:
            y = _fma((self._a, 0.0, 0.0), y,
                     _quick_ln_pi() if self.pi else None)
        yh, yl, ey = _fma(y, _quick_inv_ln(2))
        past = np.flatnonzero(yh > math.log2(_EXP2_U_MAX))
        k = past[0] if past.size else yh.size
        uh, ul, err = np.zeros(yh.size), np.zeros(yh.size), np.ones(yh.size)
        if k:
            uh[:k], ul[:k], err[:k] = _exp2(yh[:k], yl[:k], ey[:k])
        return uh, ul, err

    def _quick(self, x):
        """u(x) = uh + ul in double-double and err >= |uh + ul - u(x)|,
        for an array of doubles in _quick_range (sqrt and pi*x**2 only),
        faster and tighter on doubles than `_from_ln`'s exp2.

        sqrt: s = RN(sqrt(x)) leaves x - s*s exactly representable, so
        x - p - pe is exact with s*s = p + pe; d = RN((x - s*s)/(2 s))
        rounds once. With δ = (x - s*s)/(2 s), sqrt(x) = s + δ - δ**2/(2 s)
        (1 + O(2**-51)), so s + d is within 2**-53 |d| + d**2/(2 s).
        pi*x**2: x*x = x2h + x2l exactly, times pi's double-double
        (`_fma`). Relative slack below 2**-50 is left to the certifier's
        factor 1 + 2**-40, as for Log.
        """
        if self.q == 2:
            s = np.sqrt(x)
            p, pe = _two_prod(s, s)
            d = (x - p - pe) / (s + s)
            uh, ul = _two_sum(s, d)
            return uh, ul, _HALF_ULP * np.abs(d) + 0.5 * d * d / s
        x2h, x2l = _two_prod(x, x)
        return _fma((x2h, x2l, 0.0), _quick_pi())


IDENTITY = Power(1)
LOG10 = Log(10)
LOG2 = Log(2)
LOGLOG = LogLog()
SQRT = Power(1, 2)
PI_SQUARE = Power(2, pi=True)


# ---------------------------------------------------------------------------
# escalating evaluation

# starting working precision (32 digits), pad above a result's integer
# bits (15 digits) and near-integer band (12 digits), in bits
_START_BITS = 107
_GUARD_BITS = 50
_NEAR_INTEGER_BITS = 40
_CAP_DIGITS = 30000  # the cap on w and on a term's bits, in digits


def start_bits(transform, int_bits, a):
    """Bits to evaluate u at first, for an input of `int_bits` integer bits
    and `a` certified fractional bits of u: u's estimated integer bits,
    the guard bits and `a`. The same count sizes a generated input, whose
    significant bits then cover the first working precision.
    """
    return max(_START_BITS,
               transform._result_bits_estimate(int_bits) + _GUARD_BITS + a)


class _Certifier:
    """The certified path for one transform and policy. frac_sample and
    analyze_dataset hold one per cell or dataset; eval_transform makes one
    for a batch of one term.

    The policy's bits are taken once per certifier. It keeps no other
    state, so a result depends only on its input: start_bits is
    recomputed per value, and each `_eval_at` reads the constants it needs
    at a working precision w from the caches keyed by w (the kernels'
    bucketed constants, `_log_constants`).
    """

    def __init__(self, transform, policy):
        self.transform = transform
        # fractional bits certified, and the near-integer band at scale
        # 2**-a
        self.a = digits_to_bits(policy.agreement)
        self.band = 1 << max(0, self.a - _NEAR_INTEGER_BITS)
        self.cap = digits_to_bits(_CAP_DIGITS)
        # one extraction per result serves both the claim check (a bits)
        # and the double frac hands out (80 bits)
        self._bits = max(self.a, _FRAC_OUT_BITS)

    def check_cap(self, bits, what):
        """PrecisionCapExceeded when `bits`, the bits `what` needs, pass
        the cap: the one refusal at the cap, for the working precision
        here and for a sequence term in `_term_frac`."""
        if bits > self.cap:
            raise PrecisionCapExceeded(
                f"{what} needs {bits} bits, past the cap of "
                f"{_CAP_DIGITS} digits ({self.cap} bits)")

    def certify(self, x):
        """(u(x), floor({u(x)} * 2**b)), b = max(agreement bits, 80).

        Ziv's strategy in bits: one evaluation per working precision w,
        starting at start_bits. The result is accepted as soon as its own
        claimed precision vouches for the first `policy.agreement`
        fractional digits, converted to bits, so the certificate rests on
        each evaluator's claimed bits. Near-integer results get one extra
        doubling before acceptance. Otherwise w doubles: for an exact
        input up to the cap, for an inexact one while a doubling gains
        certified bits. Raises DomainError outside the transform's domain,
        PrecisionCapExceeded when w passes the cap, and
        InsufficientPrecision when a doubling gains an inexact input
        nothing, its own bits being the limit.
        """
        transform = self.transform
        transform._check_domain(x)
        r = transform._try_exact(x)
        if r is not None:
            return r, r.frac_scaled(self._bits)  # exact: every bit holds

        a, band = self.a, self.band
        mod = 1 << a
        w = start_bits(transform, x.integer_bits(), a)
        escalated_for_near_integer = False
        refused = None  # certified fractional bits of the last refusal
        while True:
            self.check_cap(w, "the working precision")
            r = transform._eval_at(x, w)
            got = -1 if r is None else r.precision - r.integer_bits()
            if got < a:
                # no claim (LogLog's vanished inner log) is the working
                # precision's limit, never evidence of the input's
                if not x.exact and r is not None:
                    if refused is not None and got <= refused:
                        raise InsufficientPrecision(
                            f"{got} certified fractional bits available, "
                            f"{a} requested")
                    refused = got
                w *= 2
                continue
            f = r._frac_bits(self._bits)
            q = f >> (self._bits - a)
            if (q < band or q >= mod - band) and \
                    not escalated_for_near_integer:
                escalated_for_near_integer = True
                w *= 2
                continue
            return r, f

    def frac(self, x):
        """{u(x)} as a certified double in [0, 1)."""
        f = self.certify(x)[1]
        return _frac_double(f >> (self._bits - _FRAC_OUT_BITS))

    def fracs(self, xs):
        """(fracs, outside) for an array of doubles: {u(x)} as the doubles
        `frac` certifies, and the mask of the x outside u's domain, whose
        entries in fracs read 0.0. Raises what `frac` raises, but
        DomainError.

        Ziv's two phases, one block of _QUICK_BLOCK values at a time: the
        quick routes (`_hand_out`: the transform's double-double `_quick`,
        then a power map's integer route) hand a double out where they
        can prove it equals the certifier's; every other x goes to `frac`.
        """
        xs = np.asarray(xs, dtype=np.float64)
        out = np.zeros(xs.size)
        outside = np.zeros(xs.size, dtype=bool)
        for lo in range(0, xs.size, _QUICK_BLOCK):
            s = slice(lo, lo + _QUICK_BLOCK)
            self._settle(xs[s], out[s], outside[s],
                         self._hand_out(xs[s], out[s]),
                         lambda v: self.frac(BigReal.from_float(v)))
        return out, outside

    def terms(self, sequence, n_max, keep=None):
        """(fracs, excluded, requested) for the terms x_n of `sequence`,
        n = 1..n_max where keep(n) holds (every n without `keep`): {u(x_n)}
        as the doubles `_term_frac` certifies, in order of n, the count of
        terms outside u's domain, left out of fracs, and the count of n.

        The two phases of `fracs`, one block of _QUICK_BLOCK indices at a
        time: `_hand_out_terms` hands out the terms the transform's route
        on the terms vouches for, and every other term takes the per-term
        route.
        """
        frac = functools.partial(self._term_frac, sequence)
        parts, excluded, requested = [], 0, 0
        for lo in range(1, n_max + 1, _QUICK_BLOCK):
            hi = min(lo + _QUICK_BLOCK, n_max + 1)
            n = np.arange(lo, hi) if keep is None else np.array(
                [i for i in range(lo, hi) if keep(i)], dtype=np.int64)
            out = np.zeros(n.size)
            outside = np.zeros(n.size, dtype=bool)
            self._settle(n, out, outside,
                         self._hand_out_terms(sequence, n, out), frac)
            parts.append(out[~outside])
            excluded += int(outside.sum())
            requested += n.size
        return np.concatenate(parts), excluded, requested

    def _settle(self, x, out, outside, handed, frac):
        """The second phase on one block: out[i] = frac(x[i]) for each x
        the quick phase did not hand out, or outside[i] where that raises
        DomainError."""
        left = np.flatnonzero(~handed)
        for i, v in zip(left.tolist(), x[left].tolist()):
            try:
                out[i] = frac(v)
            except DomainError:
                outside[i] = True

    def _term_frac(self, sequence, n):
        """{u(x_n)} as a certified double, the per-term route: x_n is
        generated at the start_bits of its estimated integer bits and
        regenerated at doubled bits while the transform refuses it.
        PrecisionCapExceeded is raised before a term would be generated
        past the cap."""
        bits = self._term_bits(sequence, n)
        while True:
            if bits > self.cap:
                self.check_cap(bits, f"term {n} of {sequence.name} under "
                                     f"{self.transform.label()}")
            try:
                return self.frac(sequence.nth_term(n, bits))
            except InsufficientPrecision:
                bits *= 2

    @functools.cached_property
    def _quick_int_bits(self):
        """The most integer bits a double may have for certify to double
        its first working precision within the cap, as a near-integer
        result makes it do. The first precision only grows with the
        integer bits, and is at most 157 for x < 2 at 80 agreement bits."""
        return bisect.bisect_right(
            range(1025), self.cap,
            key=lambda b: 2 * start_bits(self.transform, b, self.a)) - 1

    def _width(self, lo, hi, ib, bits):
        """2**-b, b the transform's `_claim_floor` on the inputs a route
        takes, bounded by lo <= log2 x <= hi and ib integer bits, and
        exact (bits None) or generated at least at bits; so b is at most
        the fractional bits certify's first evaluation (start_bits of the
        input's integer bits, then `_eval_at`) claims on any of them, and
        nothing is evaluated. None where a quick route must hand nothing
        out: past 80 agreement bits, where the first precision at ib,
        doubled as a near-integer result makes certify do, would pass the
        cap, or for a b short of the agreement bits.

        A claim only grows with the working precision, so every result
        certify accepts for an input the route takes lies within this
        width of u(x). Each route adds its own error on top: err for the
        double-double route, A's units for the integer route (`_scaled`)."""
        t, a = self.transform, self.a
        if a > _FRAC_OUT_BITS or 2 * start_bits(t, ib, a) > self.cap:
            return None
        claim = t._claim_floor(lo, hi, ib, bits, a)
        return None if claim < a else 2.0 ** -claim

    @functools.cached_property
    def _quick_width(self):
        """`_width` on the doubles the quick routes take, None without a
        route: from 0.0 to the largest double of `_quick_int_bits` integer
        bits under the integer route, which takes every double its
        double-double phase does, else `_quick_range`; each double exact,
        and the top one's integer bits the most."""
        t = self.transform
        ends = (0.0, math.ldexp(_ONE_MINUS, self._quick_int_bits)) \
            if t._integer_route else t._quick_range
        if ends is None:
            return None
        lo, hi = ends
        return self._width(math.log2(lo) - 2.0 ** -30 if lo else -math.inf,
                           math.log2(hi) + 2.0 ** -30,
                           max(0, math.frexp(hi)[1]), None)

    def _term_width(self, sequence, n):
        """`_width` on the terms x_n of an ascending array of indices n,
        from what the sequence states of them, with no term generated.
        The terms grow with n, so on a piece n[i:j] their log2
        (`Sequence._log2_term`, within 2**-45 relatively) at its first and
        last index bound log2 x_n, its last index's integer bits
        (`_term_int_bits`) bound theirs, and they are generated at least at
        its first index's bits (`_term_bits`); where its last term is
        exact, so are the terms before it. `_width` on those bounds holds
        for every term of the piece, and the widest over the pieces of a
        split of n for every term of n.

        A block that spans many term sizes claims fewer bits at its first
        terms' bits and its last terms' integer bits than any of its terms
        does, so the pieces are the runs of n generated at the same bits,
        each run's end found by doubling steps, then bisection: e**n's
        terms step up their bits at nearly every n, pi n's once a power of
        two. A run's bounds are no looser than the block's, so its width
        is no wider, and the runs stop at one as wide as the block's own
        (e**n's first, where the block's floor loses nothing)."""
        def bits(k):
            return self._term_bits(sequence, int(k))

        def piece(i, j):
            first, last = int(n[i]), int(n[j - 1])
            return self._width(
                sequence._log2_term(first) * (1 - 2.0 ** -40),
                sequence._log2_term(last) * (1 + 2.0 ** -40),
                self._term_int_bits(sequence, last),
                None if sequence._exact_term(last) else bits(first))

        block, widest, i = piece(0, n.size), 0.0, 0
        while i < n.size and widest != block:
            b, k = bits(n[i]), 1
            while i + k < n.size and bits(n[i + k]) == b:
                k *= 2
            j = bisect.bisect_right(n, b, i + (k + 1) // 2,
                                    min(i + k, n.size), key=bits)
            w = piece(i, j)
            if w is None:
                return None
            widest, i = max(widest, w), j
        return widest

    def _term_int_bits(self, sequence, n):
        """A bound on the integer bits of term n: int_bits_estimate, or for
        an exact term, whose bits it ignores, from its log2."""
        if sequence._exact_term(n):
            return int(sequence._log2_term(n) * (1 + 2.0 ** -40)) + 1
        return sequence.int_bits_estimate(n)

    def _term_bits(self, sequence, n):
        """The bits term n is generated at first: start_bits of its
        estimated integer bits."""
        return start_bits(self.transform, sequence.int_bits_estimate(n),
                          self.a)

    def _hand_out(self, x, out):
        """The quick routes on one block of doubles: write into `out` each
        {u(x)} they vouch for and return the mask of those x.

        A route takes only an x of at most _quick_int_bits integer bits,
        for which certify never raises.
        """
        if self._quick_width is None:
            return np.zeros(x.size, dtype=bool)
        return self._routes(self.transform, x, out,
                            np.frexp(x)[1] <= self._quick_int_bits,
                            lambda room: self._quick_width)

    def _hand_out_terms(self, sequence, n, out):
        """The quick routes on one block of indices n: write into `out`
        each {u(x_n)} they vouch for and return the mask of those n.

        Terms the sequence states as exact doubles (the primes) take the
        routes of a block of doubles (`_hand_out`): the per-term route's
        BigReal.from_int(p) is from_float's BigReal of the double p, so
        the doubles' contract holds.
        Every other sequence's terms take the transform's one route on
        them (`_OnTerms`, on the indices as doubles, where it has a
        phase), with the per-term route's width on the indices whose
        route error leaves room in a cell (`_term_width`). A route takes
        the indices whose terms' first precision, doubled, stays within
        the cap; the terms grow with n, and so does that precision. Past 80
        agreement bits no route hands out (`_width`), and none runs.
        """
        if not n.size or self.a > _FRAC_OUT_BITS:
            return np.zeros(n.size, dtype=bool)
        x = sequence._doubles(n)
        if x is not None:
            return self._hand_out(x, out)
        route = _OnTerms(self.transform, sequence)
        if route._quick_range is None and not route._integer_route:
            return np.zeros(n.size, dtype=bool)
        fit = bisect.bisect_right(range(n.size), self.cap, key=lambda i: 2 * (
            start_bits(self.transform,
                       self._term_int_bits(sequence, int(n[i])), self.a)))
        return self._routes(route, n.astype(np.float64), out,
                            np.arange(n.size) < fit,
                            lambda room: self._term_width(sequence, n[room]))

    def _routes(self, t, x, out, fits, width):
        """The quick routes of t on one block: the double-double phase for
        the x in t's _quick_range (sqrt's and pi*x**2's while u <= 2**20,
        where it is the faster), then the integer route for what is left
        of the domain of a map with one (q = 2, or c = pi). `fits` masks
        the x a route may take. A route's cells come first; width(room),
        for the indices `room` of the x whose route error leaves room in a
        cell, is the certifier's width on them, or None for none to be
        handed out.
        """
        handed = np.zeros(x.size, dtype=bool)

        def take(cells, mask):
            took = np.flatnonzero(mask)
            if not took.size:
                return
            inside, doubles = cells(x[took], t)
            room = inside(0.0)
            w = width(took[room]) if room.any() else None
            if w is not None:
                keep = inside(w)
                out[took[keep]] = doubles(keep)
                handed[took[keep]] = True

        if t._quick_range is not None:
            lo, hi = t._quick_range
            take(self._double_double_cells, fits & (x >= lo) & (x <= hi))
        if t._integer_route:
            take(self._integer_cells, fits & ~handed & np.isfinite(x)
                 & (x >= 0.0))
        return handed

    def _double_double_cells(self, x, t):
        """(inside, doubles) from t's double-double phase, for doubles in
        t's _quick_range: inside(width) masks the x whose u lies strictly
        inside one cell [j, j + 1) * 2**-80 of {u} within err (times 1 +
        2**-40 for the roundings of err itself) widened by the certifier's
        width, and doubles(mask) is {u} of the masked x. Every result
        certify accepts then floors to j as well, and the double handed
        out is frac's: j * 2**-80 rounded once, and 1 - 2**-53 where that
        rounds to 1. An exact power of the base, and any other u whose {u}
        is 0, has an integer inside its interval and falls back.
        """
        uh, ul, err = t._quick(x)
        # {u} = fh + fl: uh - floor(uh) = a + ae exactly, where ae is 0
        # unless -1 < uh < 0; so ae + ul rounds only there, and that
        # rounding joins err. ul is at most half an ulp of uh, so only a
        # negative low part under an integer uh borrows a one
        a, ae = _two_sum(uh, -np.floor(uh))
        low = ae + ul
        err = err * (1.0 + 2.0 ** -40) + _HALF_ULP * np.abs(low) * (ae != 0.0)
        fh, fl = _two_sum(a + ((a == 0.0) & (low < 0.0)), low)
        # the cell j = jh + jl: where 2**80 fh is an integer the low
        # part's floor counts too, -1 for a negative one
        h, l = fh * 2.0 ** 80, fl * 2.0 ** 80
        jh = np.floor(h)
        jl = np.where(jh == h, np.floor(l), 0.0)
        # in cells; pos, the sum in margin and 1 - margin round once each,
        # below 2**-53 cells while margin < 1, which the 2**-50 covers
        pos = (h - jh) + (l - jl)

        def inside(width):
            margin = (err + width) * 2.0 ** 80 + 2.0 ** -50
            return (pos > margin) & (pos < 1.0 - margin)

        return inside, lambda keep: _cell_doubles(jh[keep], jl[keep])

    def _integer_cells(self, x, t):
        """(inside, doubles) from a power map's integer route
        (`Power._scaled`), for finite doubles in t's domain, as
        `_double_double_cells` gives them.

        In units of 2**-_ROUTE_BITS, u lies in (A - 1, A + 2) and every
        result certify accepts within W = width of u, so all of
        them lie in (A - 1 - W, A + 2 + W). Where A's low _ROUTE_GUARD
        bits, pos, leave 1 + W below and 2 + W above, inside the cell c =
        A >> _ROUTE_GUARD, they all floor to c, and the double handed out
        is frac's own for the cell c mod 2**80 (`_cell_doubles`), whose
        two 40-bit halves hi and lo pass as the exact doubles hi 2**40 and
        lo. In cell 0 the lower margin goes: the route's maps take x >= 0,
        so a certified result there is never negative. pos, an integer
        below 2**40, and the margins add exactly in doubles: W counts as
        at least 2**-10, a wider width and so a safe one.
        """
        a = t._scaled(x)
        cell = a >> _ROUTE_GUARD
        pos = (a & ((1 << _ROUTE_GUARD) - 1)).astype(np.float64)
        first = cell == 0

        def inside(width):
            margin = max(width, 2.0 ** -(_ROUTE_BITS + 10)) \
                * 2.0 ** _ROUTE_BITS + 1.0
            return ((pos >= margin) | first) \
                & (pos + margin + 1.0 <= 2.0 ** _ROUTE_GUARD)

        def doubles(keep):
            c = cell[keep] & ((1 << _FRAC_OUT_BITS) - 1)
            half = _FRAC_OUT_BITS // 2
            return _cell_doubles((c >> half).astype(np.float64) * 2.0 ** half,
                                 (c & ((1 << half) - 1)).astype(np.float64))

        return inside, doubles


def eval_transform(x, transform, policy=DEFAULT_POLICY):
    """u(x) as a BigReal whose fractional part is certified (see
    _Certifier.certify)."""
    return _Certifier(transform, policy).certify(x)[0]
