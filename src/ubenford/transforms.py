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
"""

import functools
import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .bigreal import _FRAC_OUT_BITS, DEFAULT_POLICY, BigReal, _frac_double
from .errors import DomainError, HypothesisViolated, InsufficientPrecision, \
    InvalidParameter, NotUnimodal, PrecisionCapExceeded
from .kernels import digits_to_bits, ln2_fixed, ln10_fixed, ln_fixed, \
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
    if x.exact:
        return 10 ** 9
    return x.significant_digits() - result_int_bits - 2


def _log_constants(base, w):
    """What _log_at needs at working precision w: ln 2 and ln(base) at
    scale 2**-w, and the ulps by which that ln(base) may be off."""
    ln2 = ln2_fixed(w)
    if base in (2, 10):
        return ln2, ln2 if base == 2 else ln10_fixed(w), 1
    d = base.bit_length()
    return ln2, ln_fixed(base << (w + 1 - d), w) + (d - 1) * ln2, d


def _log_at(x, w, constants):
    ln2, ln_base, c = constants
    m, e = x.mantissa, x.exponent
    d = m.bit_length()
    # x = (ms / 2**w) * 2**k with ms / 2**w in [1, 2)
    ms = m << (w + 1 - d) if d <= w + 1 else m >> (d - w - 1)
    lv = ln_fixed(ms, w)
    k = d - 1 + e
    if k:
        lv += k * ln2
    q = (lv << w) // ln_base
    int_bits = max(0, q.bit_length() - w)
    # error of lv in ulps of 2**-w: |k| from ln 2, one each from ln_fixed
    # and the mantissa cut, two per 2**-w of an inexact input's relative
    # error; ln(base) is off by c ulps, which costs c per unit of |u|;
    # dividing by ln(base) scales it all, and the floors of q and of this
    # bound add one each
    err = abs(k) + 2 + c * ((abs(q) >> w) + 1)
    if not x.exact:
        err += 1 << max(0, w + 1 - x.significant_digits())
    err = (err << w) // ln_base + 2
    frac_cert = min(w - err.bit_length(), _input_frac_limit(x, int_bits))
    return BigReal(q, -w, int_bits + frac_cert, False)


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
    once per w), `_eval_at`
    (u(x) floor-accurate at scale 2**-w from those constants, certified
    bits as precision; it never raises, a value it cannot vouch for gets
    a short claim) and `_result_bits_estimate` (integer bits of u for an
    input of `int_bits` integer bits), which start_bits turns into the
    first working precision and the precision a sequence term is
    generated at.
    """

    kind = None
    lg_domain_lo = -math.inf

    def _constants(self, w):
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
        t = text.strip().lower().replace("-", "_")
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
        if t.startswith("log") and t[3:].isdigit():
            return Log(int(t[3:]))
        raise InvalidParameter(f"unknown transform {text!r}")


@dataclass(frozen=True)
class Log(Transform):
    """u(x) = log_base(x) for an integer base >= 2, defined for x > 0."""

    base: int = 10
    kind = "log"

    def __post_init__(self):
        if not isinstance(self.base, int) or self.base < 2:
            raise InvalidParameter("log base must be an integer >= 2")

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
            slack = 1 << max(0, -e - x.precision + x.integer_digits())
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
        p, q, pi = self.p, self.q, self.pi
        if not (isinstance(p, int) and p >= 1 and isinstance(pi, bool)
                and (q == 1 or q == 2 and p % 2 and not pi)):
            raise InvalidParameter(
                "a power map needs integers p >= 1 and q in (1, 2), p/q in "
                "lowest terms, pi only if q = 1")
        a, c = p / q, math.pi if pi else 1.0
        formula = ("pi*" if pi else "") + (
            f"x**{p}" if q == 1 else f"x**({p}/2)")
        # x**p multiplies an inexact input's relative error by p, which
        # costs ceil(log2 p) bits; _input_frac_limit's pad covers one
        for name, value in (
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

    def _try_exact(self, x):
        if self._identity:
            return x
        if not x.exact or self.pi and x.mantissa:
            return None  # pi*x**p is irrational for every x > 0
        m, e = x.mantissa ** self.p, x.exponent * self.p
        if self.q == 2:
            if e % 2:
                m <<= 1
                e -= 1
            r = isqrt(m)
            if r * r != m:
                return None
            m, e = r, e // 2
        return BigReal(m, e, max(53, m.bit_length()), True)

    def _constants(self, w):
        return pi_fixed(w) if self.pi else None

    def _eval_at(self, x, w, pi):
        p = self.p
        m, e = x.mantissa ** p, x.exponent * p
        if self.q == 2:
            if e % 2:
                m <<= 1
                e -= 1
            e //= 2
            # the root is floor-exact at scale 2**(e - w)
            m, e, floor_bits = isqrt(m << 2 * w), e - w, w - 1 - max(0, e)
        elif self.pi:
            # absolute error <= x**p * 2**-w from the truncated pi bits
            m, e, floor_bits = pi * m, e - w, w - p * x.integer_digits() - 1
        else:
            floor_bits = w  # x**p itself is exact
        int_bits = max(0, m.bit_length() + e)
        frac_cert = min(floor_bits,
                        _input_frac_limit(x, int_bits) - self._input_pad)
        return BigReal(m, e, int_bits + frac_cert, False)

    def _result_bits_estimate(self, int_bits):
        return self.p * int_bits // self.q + (self.q == 2) + 2 * self.pi


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
        w = self.start_bits(x.integer_digits())
        escalated_for_near_integer = False
        refused = None  # certified fractional bits of the last refusal
        while True:
            if w > self.cap:
                raise PrecisionCapExceeded(
                    f"needed working precision {w} bits exceeds cap "
                    f"{self.policy.cap} digits ({self.cap} bits)")
            if w != self._w:
                self._w, self._constants = w, transform._constants(w)
            r = transform._eval_at(x, w, self._constants)
            got = r.precision - r.integer_digits()
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


def eval_transform(x, transform, policy=DEFAULT_POLICY):
    """u(x) as a BigReal whose fractional part is certified (see
    _Certifier.certify)."""
    return _Certifier(transform, policy).certify(x)[0]
