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
near-integer guard band. All precisions here are bits; decimal digits
enter only through the policy, in _policy_bits.

An array of doubles (analyze_dataset, the sampled row of table3) goes
through _Certifier.fracs in two phases, after Ziv, a block of
_QUICK_BLOCK values at a time. The quick phase has two routes. The
double-double route evaluates Log (every base), and sqrt and pi*x**2
while u <= 2**20, in numpy, with a proved bound err on each value's
error (below 2**-92 for a log, about 2**-105 u for sqrt and 2**-104 u
for pi*x**2; the proofs are in the `_quick` methods). The integer route
(`Power._scaled`) takes what the power maps with an inexact result
(q = 2, or c = pi) leave, at any size: A = floor(u * 2**120) in Python
ints, exact but for pi's few units. A double is handed out only where
its u, widened by its route's error and by the fewest bits the
certifier's own evaluator claims (`_quick_width`), lies inside one
2**-80 cell of {u}; the policy certifies at most 80 bits, and certify
could double the x's first precision within the cap. The double is
then the one certify would return. Every other value falls back to
the certifier: one outside both routes (nonpositive or subnormal for
Log, LogLog, the identity and x**p without pi everywhere), an exact
power of the base, and any u that lies near a cell edge or, for Log,
an integer. Below 2**-80 the integer route needs no lower margin: its
maps' certified results are never negative.
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
from .kernels import digits_to_bits, ln2_fixed, ln10_fixed, ln_int_fixed, \
    pi_fixed

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


def _log_constants(base, w):
    """What _log_at needs at working precision w: ln 2 and ln(base) at
    scale 2**-w, and the ulps by which that ln(base) may be off."""
    ln2 = ln2_fixed(w)
    if base in (2, 10):
        return ln2, ln2 if base == 2 else ln10_fixed(w), 1
    return ln2, ln_int_fixed(base, w, ln2), base.bit_length()


def _log_at(x, w, constants):
    ln2, ln_base, c = constants
    m, e = x.mantissa, x.exponent
    # x = m * 2**e = (ms / 2**w) * 2**k with ms / 2**w in [1, 2)
    lv = ln_int_fixed(m, w, ln2) + e * ln2
    k = m.bit_length() - 1 + e
    q = (lv << w) // ln_base
    int_bits = max(0, q.bit_length() - w)
    # error of lv in ulps of 2**-w: |k| from ln 2, one each from ln_fixed
    # and the mantissa cut, two per 2**-w of an inexact input's relative
    # error; ln(base) is off by c ulps, which costs c per unit of |u|;
    # dividing by ln(base) scales it all, and the floors of q and of this
    # bound add one each
    err = abs(k) + 2 + c * ((abs(q) >> w) + 1)
    if not x.exact:
        err += 1 << max(0, w + 1 - x.significant_bits())
    err = (err << w) // ln_base + 2
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
_QUICK_BLOCK = 4096  # values per numpy pass, which bounds its temporaries
_QUICK_U_MAX = 2.0 ** 20  # a power map's double-double phase stops here
# the integer route's A = floor(u * 2**_ROUTE_BITS) keeps _ROUTE_GUARD bits
# below the 2**-80 cell
_ROUTE_GUARD = 40
_ROUTE_BITS = _FRAC_OUT_BITS + _ROUTE_GUARD
_isqrt = np.frompyfunc(isqrt, 1, 1)


def _frac_doubles(cells):
    """_frac_double of each cell of an object array of ints below 2**80.

    A cell's halves c >> 40 and c mod 2**40 are below 2**40, so they and
    their scaled values (c >> 40) * 2**-40 and (c mod 2**40) * 2**-80 are
    exact doubles, and their sum rounds once: to the correctly rounded
    c / 2**80, as int / int true division does.
    """
    half = _FRAC_OUT_BITS // 2
    hi = (cells >> half).astype(np.float64)
    lo = (cells & ((1 << half) - 1)).astype(np.float64)
    return np.minimum(hi * 2.0 ** -half + lo * 2.0 ** -_FRAC_OUT_BITS,
                      _ONE_MINUS)


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


# ---------------------------------------------------------------------------
# the transforms

class Transform:
    """A rescaling map u; one subclass per kind of map: Log, LogLog and
    Power.

    Double-precision side, on the log10 axis only (no map takes a double
    x to u(x) in doubles; a sample's {u(x)} is certified):
    `u_float_from_log10` (u from log10 x, inf where a double overflows);
    `inverse_log10` (vectorized log10 of the preimage, -inf below the
    image); `power`, the pair (k, factor) of a power map, whose
    u' = x**-k / factor, so that `sup_ratio` (sup of pdf/u' for a
    distribution, a float) is the family's one closed form
    sup_x_pow_pdf(k, factor); `formula`, the map as the refusal names it
    where k < 0 leaves that sup unbounded; a map that is no power
    (LogLog) overrides `sup_ratio`; `lg_domain_lo`, log10 of the domain's
    open lower edge on the positive axis (0 for the iterated log, -inf
    for the rest); `check_support`, the one support rule, which the law
    (bounds.mod1_law) and LogLog's ceiling read. Certified side, for the
    certifier: `_check_domain`, `_try_exact` (exact result or None),
    `_constants` (what `_eval_at` needs at one working precision, taken
    once per w), `_fewest_claim` (which sizes the quick routes' width),
    `_eval_at`
    (u(x) floor-accurate at scale 2**-w from those constants, certified
    bits as precision; it never raises, a value it cannot vouch for gets
    a short claim) and `_result_bits_estimate` (integer bits of u for an
    input of `int_bits` integer bits), which start_bits turns into the
    first working precision and the precision a sequence term is
    generated at.
    """

    kind = None
    lg_domain_lo = -math.inf
    _quick_range = None  # no double-double phase
    _integer_route = False  # no integer route (Power._scaled)

    def _constants(self, w):
        return None

    def _fewest_claim(self, a):
        """The fewest fractional bits `_eval_at` claims, at its first
        working precision for `a` agreement bits, for a double a quick
        route takes; None without a quick route."""
        return None

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

    def inverse_log10(self, y):
        return y * math.log10(self.base)

    def _check_domain(self, x):
        if x.sign() <= 0:
            raise DomainError(f"{self.label()} requires x > 0")

    def _try_exact(self, x):
        return _exact_log(x, self.base) if x.exact else None

    def _constants(self, w):
        return _log_constants(self.base, w)

    def _eval_at(self, x, w, constants):
        return _log_at(x, w, constants)

    def _result_bits_estimate(self, int_bits):
        return 27

    # every normal double; |u| stays below 1,075 on it
    _quick_range = (2.0 ** -1022, sys.float_info.max)

    def _fewest_claim(self, a):
        # the error count grows with |k| and |u|, and the first precision
        # is one for every double, so the claim is fewest at a range end
        claims = []
        for v in self._quick_range:
            x = BigReal.from_float(v)
            w = start_bits(self, x.integer_bits(), a)
            r = self._eval_at(x, w, self._constants(w))
            claims.append(r.precision - r.integer_bits())
        return min(claims)

    def _quick(self, x):
        """u(x) = uh + ul in double-double and err >= |uh + ul - u(x)|,
        for an array of doubles in _quick_range.

        x = m 2**k with m in [1, 2), c the centre of m's cell of [1, 2)
        (width 2**-8), t = (m - c)/(m + c) with |t| <= 2**-10, and
        ln x = k ln 2 + ln c + 2 atanh(t), atanh(t) = t + t g,
        g = t**2/3 + t**4 (1/5 + t**2/7 + t**4/9 + t**6/11) + O(t**10).

        The bound, M = ln c + 2 atanh(t) first:
        - m - c is exact, m + c = dh + dl exactly and num - th dh is the
          exactly representable remainder of th = RN(num/dh); so th + tl
          is t within 2**-112 (roundings below 2**-113, and dividing by
          dh, not dh + dl, costs 2**-53 of a correction below 2**-61),
          which 2 atanh's slope (< 2.0001) makes 2**-110.9.
        - sh + sl is t*t within 2**-121 (tl**2 and two roundings), gh +
          gl, before q joins it, is t*t/3 within 2**-121.
        - q stands for t**4 (1/5 + ...): z = RN(sh + sl) is t*t within
          2**-53 relative, the polynomial in z within 2**-52 relative
          (the double 0.2 and the last addition; its tail is below
          2**-80 relative), and two products round once each: 2**-50 |q|.
        - atanh(t) = th + tl + th gh + th gl + tl gh (+ tl gl < 2**-134),
          th gh = p + pe exactly and th + p = ah + r exactly; the six
          roundings in al act on partial sums below 2**-60.5.
        So 2 atanh(t) is within 2**-49 |th q| + 2**-109.5 (|t| <= |th|
        (1 + 2**-51)), and then: ln c_j's double-double is off by at most
        the table's err; ml = (r + cl) + 2 al rounds twice.
        Then L = k ln 2 + M: k ln2h = a1 + a2 and a1 + mh = lh + r
        exactly, b = RN(k ln2l) rounds once, ll = ((r + a2) + b) + ml
        three times, and ln 2's double-double is off by its err, k times.
        Then u = L R with R = 1/ln(base) = rh + rl up to its err: lh rh =
        ph + pe exactly, m1 = RN(lh rl) and m2 = RN(ll rh) round once each
        and low = (pe + m1) + m2 twice; ll rl (left out) is added whole,
        L's error is scaled by rh and R's by |lh| + |ll|; uh + ul =
        ph + low exactly. Relative slack below 2**-50 per term (rh for R,
        |th| for |t|, the rounding of err itself) is left to the factor
        1 + 2**-40 the certifier puts on err.
        """
        ln2, cell_hi, cell_lo, cell_err = _quick_log_tables()
        rh, rl, r_err = _quick_inv_ln(self.base)
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
        ph, pe = _two_prod(lh, rh)
        m1 = lh * rl
        m2 = ll * rh
        s1 = pe + m1
        low = s1 + m2
        err = (err * rh + (np.abs(lh) + np.abs(ll)) * r_err
               + np.abs(ll * rl) + _HALF_ULP * (
                   np.abs(m1) + np.abs(m2) + np.abs(s1) + np.abs(low)))
        uh, ul = _two_sum(ph, low)
        return uh, ul, err


@dataclass(frozen=True)
class LogLog(Transform):
    """u(x) = log10(log10(x)), defined for x > 1."""

    kind = "loglog"
    lg_domain_lo = 0.0

    def u_float_from_log10(self, lg):
        if lg <= 0:
            raise DomainError("iterated log requires x > 1")
        return math.log10(lg)

    def inverse_log10(self, y):
        return np.power(10.0, y)

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

    def _constants(self, w):
        return _log_constants(10, w + 14), _log_constants(10, w)

    def _eval_at(self, x, w, constants):
        inner, outer = constants
        y = _log_at(x, w + 14, inner)
        if y.sign() <= 0:
            # the inner log cancelled to nothing at this precision: a
            # zero-bit claim, which the certifier answers by doubling w
            return BigReal(0, -w, 0, False)
        return _log_at(y, w, outer)

    def _result_bits_estimate(self, int_bits):
        return 14


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

    def inverse_log10(self, y):
        lg = np.where(y > 0.0, np.log10(np.maximum(y, 1e-320)), -np.inf)
        return (lg - math.log10(math.pi) if self.pi else lg) / self._a

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
            r = isqrt(m)
            if r * r != m:
                return None
            m, e = r, e // 2
        return BigReal(m, e, max(53, m.bit_length()), True)

    def _constants(self, w):
        return pi_fixed(w) if self.pi else None

    def _eval_at(self, x, w, pi):
        m, e = self._raised(x.mantissa, x.exponent)
        if self.q == 2:
            e //= 2
            # the root is floor-exact at scale 2**(e - w)
            m, e, floor_bits = isqrt(m << 2 * w), e - w, w - 1 - max(0, e)
        elif self.pi:
            # absolute error <= x**p * 2**-w from the truncated pi bits
            m, e, floor_bits = (pi * m, e - w,
                                w - self.p * x.integer_bits() - 1)
        else:
            floor_bits = w  # x**p itself is exact
        int_bits = max(0, m.bit_length() + e)
        frac_cert = min(floor_bits,
                        _input_frac_limit(x, int_bits) - self._input_pad)
        return BigReal(m, e, int_bits + frac_cert, False)

    def _result_bits_estimate(self, int_bits):
        return self.p * int_bits // self.q + (self.q == 2) + 2 * self.pi

    def _fewest_claim(self, a):
        """_GUARD_BITS + a, for every double, where the integer route runs.
        A double is m * 2**e with e <= 0 (an integer-valued one has e =
        0), and certify starts at w >= est + _GUARD_BITS + a, est =
        _result_bits_estimate(ib) for x's ib integer bits. So the root's
        exponent, half x**p's, is <= 0 and the root claims w - 1 >= est -
        1 + _GUARD_BITS + a, with est >= 1; pi*x**p claims w - p*ib - 1 >=
        _GUARD_BITS + a + 1, est being p*ib + 2. An exact input's own
        limit, 10**9 bits, never binds below the cap.
        """
        return _GUARD_BITS + a if self._integer_route else None

    def _scaled(self, x):
        """The integer route: A = floor(u(x) * 2**_ROUTE_BITS), as an object
        array of ints, for an array of finite doubles in u's domain, with
        u(x) * 2**_ROUTE_BITS in (A - 1, A + 2); for a map with the route
        (q = 2, or c = pi).

        x = m * 2**e from np.frexp, with m a 53-bit integer, and x**p =
        m * 2**e through `_raised`. q = 2: with k = e/2 + _ROUTE_BITS, A
        = isqrt(m * 2**(2k)) for k >= 0 and isqrt(m) // 2**-k below
        (floor(floor(y)/n) = floor(y/n)), exact. c = pi: A = floor(pi_L
        m 2**(e + _ROUTE_BITS - L)) for the constant pi_L = pi_fixed(L),
        within 2 of pi * 2**L (kernels), a right shift for every double.
        Then A is off from u * 2**_ROUTE_BITS, before its floor, by at
        most 2 x**p 2**(_ROUTE_BITS - L) < 2**(p E + _ROUTE_BITS + 1 - L)
        for every x < 2**E, which L = p max(E, 0) + _ROUTE_BITS + 2, E the
        largest in the array, keeps below 1/2. Only pi's bits near u's
        binary point reach A (Payne and Hanek, SIGNUM Newsletter 18,
        1983): the shift drops the rest.
        """
        m, big = np.frexp(x)
        m, e = self._raised((m * 2.0 ** 53).astype(np.int64).astype(object),
                            (big - 53).astype(object))
        if self.q == 2:
            k = e // 2 + _ROUTE_BITS
            return _isqrt(m << np.maximum(2 * k, 0)) >> np.maximum(-k, 0)
        bits = self.p * int(big.max(initial=0)) + _ROUTE_BITS + 2
        return m * pi_fixed(bits) >> (bits - _ROUTE_BITS - e)

    def _quick(self, x):
        """u(x) = uh + ul in double-double and err >= |uh + ul - u(x)|,
        for an array of doubles in _quick_range (sqrt and pi*x**2 only).

        sqrt: s = RN(sqrt(x)) leaves x - s*s exactly representable, so
        x - p - pe is exact with s*s = p + pe; d = RN((x - s*s)/(2 s))
        rounds once. With δ = (x - s*s)/(2 s), sqrt(x) = s + δ - δ**2/(2 s)
        (1 + O(2**-51)), so s + d is within 2**-53 |d| + d**2/(2 s).
        pi*x**2: x*x = x2h + x2l and x2h pih = ph + pe exactly; m1 =
        RN(x2h pil) and m2 = RN(x2l pih) round once each and low =
        (pe + m1) + m2 twice; x2l pil (left out) is added whole, and pi's
        double-double is off by its err, x*x times. uh + ul = ph + low
        exactly. Relative slack below 2**-50 is left to the certifier's
        factor 1 + 2**-40, as for Log.
        """
        if self.q == 2:
            s = np.sqrt(x)
            p, pe = _two_prod(s, s)
            d = (x - p - pe) / (s + s)
            uh, ul = _two_sum(s, d)
            return uh, ul, _HALF_ULP * np.abs(d) + 0.5 * d * d / s
        pih, pil, pi_err = _quick_pi()
        x2h, x2l = _two_prod(x, x)
        ph, pe = _two_prod(x2h, pih)
        m1 = x2h * pil
        m2 = x2l * pih
        s1 = pe + m1
        low = s1 + m2
        uh, ul = _two_sum(ph, low)
        return uh, ul, (x2h * pi_err + np.abs(x2l * pil) + _HALF_ULP * (
            np.abs(m1) + np.abs(m2) + np.abs(s1) + np.abs(low)))


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


@functools.lru_cache(maxsize=None)
def _policy_bits(policy):
    """(a, mod, band, cap) of a policy, in bits.

    a: fractional bits certified; mod = 2**a; band: near-integer band at
    scale 2**-a; cap: working-precision ceiling.
    """
    a = digits_to_bits(policy.agreement)
    band = 1 << max(0, a - _NEAR_INTEGER_BITS)
    return a, 1 << a, band, digits_to_bits(policy.cap)


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

    What depends on the cell rather than the term is taken once: the
    policy's bits, and start_bits and the transform's constants for the
    last integer-bit count and working precision w. A dense cell
    evaluates every term at one w, so these one-entry caches serve the
    whole cell; where w moves per term, they still hold a single set.
    """

    def __init__(self, transform, policy):
        self.transform = transform
        self.policy = policy
        self.a, self.mod, self.band, self.cap = _policy_bits(policy)
        # one extraction per result serves both the claim check (a bits)
        # and the double frac hands out (80 bits)
        self._bits = max(self.a, _FRAC_OUT_BITS)
        self._start = (None, None)
        self._w = None
        self._constants = None

    def start_bits(self, int_bits):
        """start_bits for this transform and policy."""
        if int_bits != self._start[0]:
            self._start = int_bits, start_bits(self.transform, int_bits,
                                               self.a)
        return self._start[1]

    def check_cap(self, bits, what):
        """PrecisionCapExceeded when `bits`, the bits `what` needs, pass
        policy.cap: the one refusal at the cap, for the working precision
        here and for a regenerated sequence term in frac_sample."""
        if bits > self.cap:
            raise PrecisionCapExceeded(
                f"{what} needs {bits} bits, past the cap of "
                f"{self.policy.cap} digits ({self.cap} bits)")

    def certify(self, x):
        """(u(x), floor({u(x)} * 2**b)), b = max(agreement bits, 80).

        Ziv's strategy in bits: one evaluation per working precision w,
        starting at start_bits. The result is accepted as soon as its own
        claimed precision vouches for the first `policy.agreement`
        fractional digits, converted to bits, so the certificate rests on
        each evaluator's claimed bits. Near-integer results get one extra
        doubling before acceptance. Otherwise w doubles: for an exact
        input up to policy.cap, for an inexact one while a doubling gains
        certified bits. Raises DomainError outside the transform's domain,
        PrecisionCapExceeded when w passes policy.cap, and
        InsufficientPrecision when a doubling gains an inexact input
        nothing, its own bits being the limit.
        """
        transform = self.transform
        transform._check_domain(x)
        r = transform._try_exact(x)
        if r is not None:
            return r, r.frac_scaled(self._bits)  # exact: every bit holds

        a, mod, band = self.a, self.mod, self.band
        w = self.start_bits(x.integer_bits())
        escalated_for_near_integer = False
        refused = None  # certified fractional bits of the last refusal
        while True:
            self.check_cap(w, "the working precision")
            if w != self._w:
                self._w, self._constants = w, transform._constants(w)
            r = transform._eval_at(x, w, self._constants)
            got = r.precision - r.integer_bits()
            if got < a:
                # a claim of no bits at all (LogLog's vanished inner log) is
                # the working precision's limit, never evidence of the
                # input's
                if not x.exact and r.precision:
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
            x, got = xs[lo:lo + _QUICK_BLOCK], out[lo:lo + _QUICK_BLOCK]
            handed = self._hand_out(x, got)
            for i in np.flatnonzero(~handed):
                try:
                    got[i] = self.frac(BigReal.from_float(x[i].item()))
                except DomainError:
                    outside[lo + i] = True
        return out, outside

    @functools.cached_property
    def _quick_int_bits(self):
        """The most integer bits a double may have for certify to double
        its first working precision within the cap, as a near-integer
        result makes it do; -1 where no double may. The first precision
        only grows with the integer bits."""
        return bisect.bisect_right(
            range(1025), self.cap,
            key=lambda b: 2 * start_bits(self.transform, b, self.a)) - 1

    @functools.cached_property
    def _quick_width(self):
        """2**-b, b the transform's `_fewest_claim`, or None where the quick
        routes hand nothing out: more than 80 agreement bits, no double
        whose first precision could double within the cap, no quick
        route, or a claim short of the agreement bits, which would make
        certify escalate.

        A claim only grows with the working precision, so every result
        certify accepts for a double the routes take lies within this
        width of u(x). Each route adds its own error on top: err for the
        double-double route, A's units for the integer route (`_scaled`).
        """
        if self.a > _FRAC_OUT_BITS or self._quick_int_bits < 0:
            return None
        claim = self.transform._fewest_claim(self.a)
        return None if claim is None or claim < self.a else 2.0 ** -claim

    def _hand_out(self, x, out):
        """The quick routes on one block: write into `out` each {u(x)} they
        vouch for and return the mask of those x.

        A route takes only an x of at most _quick_int_bits integer bits,
        for which certify never raises. The double-double phase takes the
        x in the transform's _quick_range (sqrt's and pi*x**2's while u <=
        2**20, where it is the faster); the integer route takes what is
        left of the domain of a map with one (q = 2, or c = pi).
        """
        handed = np.zeros(x.size, dtype=bool)
        if self._quick_width is None:
            return handed

        def take(cells, mask):
            took = np.flatnonzero(mask)
            inside, f = cells(x[took])
            out[took[inside]] = f
            handed[took[inside]] = True

        t = self.transform
        fits = np.frexp(x)[1] <= self._quick_int_bits  # x < 2**E
        if t._quick_range is not None:
            lo, hi = t._quick_range
            take(self._double_double_cells, fits & (x >= lo) & (x <= hi))
        if t._integer_route:
            take(self._integer_cells,
                 fits & ~handed & np.isfinite(x) & (x >= 0.0))
        return handed

    def _double_double_cells(self, x):
        """(inside, {u} of the inside x) from the double-double phase, for
        doubles in the transform's _quick_range.

        u +- err (times 1 + 2**-40 for the roundings of err itself),
        widened by _quick_width, must lie strictly inside one cell
        [j, j + 1) * 2**-80 of {u}. Then every result certify accepts
        floors to j as well, and the double handed out is frac's:
        j * 2**-80 rounded once, and 1 - 2**-53 where that rounds to 1.
        An exact power of the base, and any other u whose {u} is 0, has
        an integer inside its interval and falls back.
        """
        uh, ul, err = self.transform._quick(x)
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
        margin = (err + self._quick_width) * 2.0 ** 80 + 2.0 ** -50
        inside = (pos > margin) & (pos < 1.0 - margin)
        return inside, np.minimum((jh + jl)[inside] * 2.0 ** -80, _ONE_MINUS)

    def _integer_cells(self, x):
        """(inside, {u} of the inside x) from a power map's integer route
        (`Power._scaled`), for finite doubles in u's domain.

        In units of 2**-_ROUTE_BITS, u lies in (A - 1, A + 2) and every
        result certify accepts within W = _quick_width of u, so all of
        them lie in (A - 1 - W, A + 2 + W). Where A's low _ROUTE_GUARD
        bits, pos, leave 1 + W below and 2 + W above, inside the cell c =
        A >> _ROUTE_GUARD, they all floor to c, and the double handed out
        is _frac_double(c mod 2**80), frac's own. In cell 0 the lower
        margin goes: the route's maps take x >= 0, so a certified result
        there is never negative. pos, an integer below 2**40, and the
        margins, multiples of 2**-10 while a <= 80, add exactly in
        doubles.
        """
        a = self.transform._scaled(x)
        cell = a >> _ROUTE_GUARD
        pos = (a & ((1 << _ROUTE_GUARD) - 1)).astype(np.float64)
        margin = self._quick_width * 2.0 ** _ROUTE_BITS + 1.0
        inside = ((pos >= margin) | (cell == 0)) \
            & (pos + margin + 1.0 <= 2.0 ** _ROUTE_GUARD)
        return inside, _frac_doubles(
            cell[inside] & ((1 << _FRAC_OUT_BITS) - 1))


def eval_transform(x, transform, policy=DEFAULT_POLICY):
    """u(x) as a BigReal whose fractional part is certified (see
    _Certifier.certify)."""
    return _Certifier(transform, policy).certify(x)[0]
