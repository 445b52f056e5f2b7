"""Positive continuous families, each stated once: its law on the log10
axis and the supremum of pdf/u' as a value.

mod1_law reads a family only through cdf_log10/sf_log10 (the law at
x = 10**lg, written into the law's buffer, out=), ppf_log10/isf_log10
(its window) and support_lo, the one edge the support rule
Transform.check_support reads. On the log10 axis
the law stays finite where x overflows a double: heavy Pareto tails at
survival 1e-14 live thousands of decades up. ppf and sample are for
sampling. The discrepancy bounds are built from the supremum of pdf/u'
over the support. For every power map u' is a constant times x**-k, so
that supremum is the constant times sup x**k * pdf(x); each family gives
it as one closed form in k and the constant, `sup_x_pow_pdf(k, factor)`,
and ParetoI, the one family the iterated log may take, `sup_loglog`. The
tests check both against mpmath and a golden-section maximizer of their
own. Every parameter is a finite double.
"""

import inspect
import math
import sys

import numpy as np

from .errors import InvalidParameter, count, real, string
from .special import _erfc, probit

_LN10 = math.log(10.0)
_LN10_40 = "2.302585092994045684017991454684364207601"  # ln 10, 40 digits
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_DOUBLE_MIN = sys.float_info.min  # smallest normal double
_LN_DOUBLE_MIN = math.log(_DOUBLE_MIN)


def _pow10(lg, scale=1.0, out=None):
    """10**lg / scale for an array of log10 abscissae, inf where it
    overflows (a subnormal scale included), into out where given."""
    with np.errstate(over="ignore"):
        return np.divide(np.power(10.0, lg, out=out), scale, out=out)


def _pow(x, y):
    """x**y for doubles, inf where it overflows."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _float(v):
    """v, or a Python float where v is 0-d."""
    return v if v.shape else float(v)


def _half(v):
    """v / 2, in place, as _float gives it."""
    v *= 0.5
    return _float(v)


def _normal(v):
    """True for a finite double at or above the smallest normal one."""
    return _DOUBLE_MIN <= v < math.inf


class Distribution:
    """Base for positive continuous families.

    Each family defines its law on the log10 axis, cdf_log10(lg) or
    sf_log10(lg) at x = 10**lg or both (exactly 0 and 1 at lg = -inf; the
    base gives a missing one as the complement), and its
    quantiles ppf (x for sampling) and ppf_log10/isf_log10 (log10 x for
    the window). Each of these is one numpy expression: an array gives an
    array, a scalar a float or a 0-d array. cdf_log10 and sf_log10 take
    out=, an array of lg's shape that receives the values and is
    returned, as a numpy ufunc's out does, and may be lg itself;
    mod1_law passes its own buffer there, so a family maps no block of
    its own. sup_x_pow_pdf returns
    the supremum as a float. support_lo, the left edge of the support, is
    what the support rule (Transform.check_support) compares with a map's
    domain.
    """

    name = "?"
    support_lo = 0.0
    density_positive_at_origin = False

    def label(self):
        return self.name

    def cdf_log10(self, lg, out=None):
        return np.subtract(1.0, self.sf_log10(lg, out), out=out)

    def sf_log10(self, lg, out=None):
        return np.subtract(1.0, self.cdf_log10(lg, out), out=out)

    def ppf(self, q):
        raise NotImplementedError

    def ppf_log10(self, q):
        with np.errstate(divide="ignore"):  # -inf where ppf underflows
            return np.log10(self.ppf(q))

    def isf_log10(self, p):
        """log10 of the upper quantile with survival mass p."""
        return self.ppf_log10(1.0 - p)

    def sample(self, n, seed):
        return SeededSampler(self, seed).draw(n)

    # closed-form suprema, each a float
    def sup_x_pow_pdf(self, k, factor):
        """sup over the support of factor * x**k * pdf(x), for the exponent
        k and the constant factor of a power map (Transform.sup_ratio);
        k >= 0 where the density reaches the origin. A factor below 1 can
        bring a sup past the largest double back into range."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.label()}>"


class ParetoI(Distribution):
    """Power tail starting at x0: sf(x) = (x0/x)**alpha for x >= x0."""

    def __init__(self, alpha, x0=1.0):
        self.alpha = real("ParetoI alpha", alpha)
        self.x0 = real("ParetoI x0", x0)
        self.support_lo = self.x0
        self.name = f"pareto_i(alpha={self.alpha:g}, x0={self.x0:g})"
        # log10(X/x0) is exponential with rate alpha * ln 10, applied as two
        # factors: the rate and 1, or ln 10 and alpha apart where the rate
        # overflows (alpha above 7.8e307)
        rate = self.alpha * _LN10
        self._rate_a, self._rate_b = ((rate, 1.0) if rate < math.inf
                                      else (_LN10, self.alpha))

    def ppf(self, q):
        with np.errstate(over="ignore"):
            return self.x0 * np.exp(-np.log1p(-q) / self.alpha)

    def ppf_log10(self, q):
        return math.log10(self.x0) - np.log1p(-q) / self._rate_a / self._rate_b

    def isf_log10(self, p):
        return math.log10(self.x0) - np.log(p) / self._rate_a / self._rate_b

    def sf_log10(self, lg, out=None):
        # below the support the clamped exponent gives exp(0) = 1
        d = np.subtract(math.log10(self.x0), lg, out=out)
        d = np.minimum(d, 0.0, out=out)
        with np.errstate(over="ignore"):  # exp(-inf) = 0 far above it
            d = np.multiply(self._rate_b, d, out=out)
            return np.exp(np.multiply(d, self._rate_a, out=out), out=out)

    def sup_x_pow_pdf(self, k, factor):
        # x**k * pdf = alpha * x0**alpha * x**(k - alpha - 1) falls for
        # every k < alpha + 1: the sup is alpha * x0**(k - 1) at the left
        # edge, taken in log10 space where x0**(1 - k) alone or the product
        # with the map's factor leaves the normal doubles
        lg = math.log10(self.alpha) - (1.0 - k) * math.log10(self.x0)
        power = _pow(self.x0, 1.0 - k)
        value = (self.alpha / power if _normal(power)
                 else _pow(10.0, lg)) * factor
        return value if _normal(value) else _pow(10.0, lg + math.log10(factor))

    def sup_loglog(self):
        """sup over the support of pdf(x) * x * ln x * ln 10, the ratio
        for the iterated log; x0 >= 1, so that the map is defined on the
        whole support (Transform.check_support)."""
        # ratio = ln 10 * alpha * (x0/x)**alpha * ln x peaks where
        # ln x = 1/alpha; only ln x enters, so x itself may lie past the
        # largest double
        ln_x0 = math.log(self.x0)
        ln_xs = max(ln_x0, 1.0 / self.alpha)
        return (self._rate_a * math.exp(self.alpha * (ln_x0 - ln_xs))
                * ln_xs * self._rate_b)


class ParetoII(Distribution):
    """Lomax: sf(x) = (1 + x)**-b on x >= 0."""

    density_positive_at_origin = True

    def __init__(self, b):
        self.b = real("ParetoII b", b)
        self.name = f"pareto_ii(b={self.b:g})"

    def ppf(self, q):
        with np.errstate(over="ignore"):
            return np.expm1(-np.log1p(-q) / self.b)

    def ppf_log10(self, q):
        with np.errstate(over="ignore", divide="ignore"):
            out = np.log10(np.expm1(-np.log1p(-q) / self.b))
            # far in the upper tail, 1 + x ~ x: switch to the exact log form
            big = -np.log1p(-q) / self.b > 300.0 * _LN10
            return np.where(big, -np.log1p(-q) / (self.b * _LN10), out)

    def isf_log10(self, p):
        t = -np.log(p) / self.b  # ln(1+x)
        with np.errstate(over="ignore"):
            return np.where(t > 300.0 * _LN10, t / _LN10,
                            np.log10(np.expm1(np.minimum(t, 700.0))))

    def sf_log10(self, lg, out=None):
        # ln(1 + 10^lg) without overflow: lg ln 10 past lg = 30. Each side
        # reads only its own entries of lg, so out may be lg
        lg = np.asarray(lg, dtype=np.float64)
        far = lg > 30.0
        near = ~far
        ln1px = np.multiply(lg, _LN10, where=far,
                            out=np.empty_like(lg) if out is None else out)
        np.minimum(lg, 30.0, out=ln1px, where=near)
        np.power(10.0, ln1px, out=ln1px, where=near)
        np.log1p(ln1px, out=ln1px, where=near)
        out = np.exp(np.multiply(-self.b, ln1px, out=ln1px), out=ln1px)
        return out if lg.shape else float(out)

    def sup_x_pow_pdf(self, k, factor):
        # d/dx ln(x**k * (1 + x)**-(b + 1)) vanishes at k/(b + 1 - k); the
        # origin for k = 0. log1p keeps 1 + xs from rounding at large b
        xs = k / (self.b + (1.0 - k))
        return (self.b * xs ** k * math.exp(-(self.b + 1.0) * math.log1p(xs))
                * factor)


class LognormalBase10(Distribution):
    """log10(X) ~ Normal(mu, sigma**2)."""

    def __init__(self, mu, sigma):
        self.mu = real("LognormalBase10 mu", mu, low=-math.inf)
        self.sigma = real("LognormalBase10 sigma", sigma)
        self.name = f"lognormal10(mu={self.mu:g}, sigma={self.sigma:g})"

    def ppf(self, q):
        with np.errstate(over="ignore"):
            return np.power(10.0, self.ppf_log10(q))

    def ppf_log10(self, q):
        return self.mu + self.sigma * probit(q)

    def isf_log10(self, p):
        return self.mu - self.sigma * probit(p)

    def cdf_log10(self, lg, out=None):
        z = np.divide(np.subtract(lg, self.mu, out=out), self.sigma, out=out)
        return _half(_erfc(np.negative(z, out=out), 0.5, out))

    def sf_log10(self, lg, out=None):
        z = np.divide(np.subtract(lg, self.mu, out=out), self.sigma, out=out)
        return _half(_erfc(z, 0.5, out))

    def sup_x_pow_pdf(self, k, factor):
        """x**k * pdf = x**-c * exp(-z**2/2) / (sigma*ln 10*sqrt(2*pi)),
        c = 1 - k, z = (log10 x - mu)/sigma.

        Its log10 is a parabola in log10 x with its vertex at
        log10 x = mu - c*sigma**2*ln 10, where the Gaussian factor is
        exp(-(c*sigma*ln 10)**2 / 2). The product is taken in doubles;
        where x**-c, that factor or the product leaves the normal double
        range, or the argmax x itself does, the same closed form is taken
        in log10 space instead, and so is its product with the map's
        factor where that leaves the range.
        """
        c = 1.0 - k
        lg = self.mu - c * self.sigma * self.sigma * _LN10
        g = c * self.sigma * _LN10
        gauss_ln = -0.5 * g * g
        scale = self.sigma * _LN10 * _SQRT_2PI
        xs = _pow(10.0, lg)
        # 0.0 ** -c raises and a subnormal xs has lost bits; x**0 is 1
        # wherever x lies, so the log10 scale keeps its exact 1/scale
        power = _pow(xs, -c) if c == 0.0 or _normal(xs) else 0.0
        value = power * math.exp(gauss_ln) / scale

        def lg_value():
            # its log10, whose terms can cancel from 1e4 down to 308: summed
            # exactly and rounded once, kept within +-400 (no double)
            from fractions import Fraction as F  # not with the package
            lg = (F(c) * F(self.sigma)) ** 2 * F(_LN10_40) / 2 \
                - F(c) * F(self.mu) - F(math.log10(self.sigma)) \
                - F(math.log10(_LN10 * _SQRT_2PI))
            return float(min(max(lg, -400), 400))

        if not (_normal(power) and gauss_ln >= _LN_DOUBLE_MIN
                and _normal(value)):
            value = _pow(10.0, lg_value())
        value *= factor
        if not _normal(value):
            value = _pow(10.0, lg_value() + math.log10(factor))
        return value


class UniformOnZeroK(Distribution):
    """Uniform on (0, k]."""

    density_positive_at_origin = True

    def __init__(self, k):
        self.k = real("UniformOnZeroK k", k)
        self.name = f"uniform(0,{self.k:g}]"

    def cdf_log10(self, lg, out=None):
        return np.clip(_pow10(lg, self.k, out), 0.0, 1.0, out=out)

    def ppf(self, q):
        return q * self.k

    def sup_x_pow_pdf(self, k, factor):
        # x**k times the flat density rises for k > 0 and is flat at k = 0:
        # the sup is at the right edge
        return 1.0 / _pow(self.k, 1.0 - k) * factor


class Exponential(Distribution):
    """Rate lam: sf(x) = exp(-lam*x)."""

    density_positive_at_origin = True

    def __init__(self, lam):
        self.lam = real("Exponential lam", lam)
        self.name = f"exponential(lam={self.lam:g})"

    def cdf_log10(self, lg, out=None):
        x = np.multiply(-self.lam, _pow10(lg, out=out), out=out)
        return np.negative(np.expm1(x, out=out), out=out)

    def sf_log10(self, lg, out=None):
        return np.exp(np.multiply(-self.lam, _pow10(lg, out=out), out=out),
                      out=out)

    def ppf(self, q):
        with np.errstate(over="ignore"):  # inf for a subnormal lam
            return -np.log1p(-q) / self.lam

    def isf_log10(self, p):
        with np.errstate(over="ignore"):  # inf for a subnormal lam
            return np.log10(-np.log(p) / self.lam)

    def sup_x_pow_pdf(self, k, factor):
        # x**k * lam * exp(-lam*x) peaks at k/lam: (k/e)**k * lam**(1 - k)
        return (k / math.e) ** k * self.lam ** (1.0 - k) * factor


class HalfNormal(Distribution):
    """|Normal(0, sigma**2)|."""

    density_positive_at_origin = True

    def __init__(self, sigma):
        self.sigma = real("HalfNormal sigma", sigma)
        self.name = f"half_normal(sigma={self.sigma:g})"

    def cdf_log10(self, lg, out=None):
        return _float(_erfc(_pow10(lg, self.sigma * _SQRT2, out), 1.0, out,
                            erf=True))

    def sf_log10(self, lg, out=None):
        return _float(_erfc(_pow10(lg, self.sigma * _SQRT2, out), 1.0, out))

    def ppf(self, q):
        return self.sigma * probit((1.0 + q) / 2.0)

    def ppf_log10(self, q):
        # probit((1+q)/2) loses all resolution once q/2 dips below the
        # spacing of doubles at 0.5; switch to the linearization
        # probit(1/2 + h) ~ h*sqrt(2*pi) there
        direct = self.ppf(q)
        with np.errstate(divide="ignore"):
            return np.where(
                q < 1e-12,
                np.log10(self.sigma * q * (_SQRT_2PI / 2.0)),
                np.log10(np.maximum(direct, 1e-320)))

    def isf_log10(self, p):
        # -probit(p/2) keeps the tail resolved where 1 - p/2 rounds to 1
        return np.log10(self.sigma * -probit(p / 2.0))

    def sup_x_pow_pdf(self, k, factor):
        # x**k * exp(-x**2/(2*sigma**2)) peaks at sigma*sqrt(k)
        return (_SQRT_2_OVER_PI * (k / math.e) ** (0.5 * k)
                / self.sigma ** (1.0 - k) * factor)


DISTRIBUTIONS = {
    "pareto_i": ParetoI,
    "pareto_ii": ParetoII,
    "lognormal10": LognormalBase10,
    "uniform": UniformOnZeroK,
    "exponential": Exponential,
    "half_normal": HalfNormal,
}


def build_distribution(name, args):
    """The family `name` at the positional parameters `args` (numbers, or
    their text), refusing an unknown name and a parameter count the family
    does not take; the family refuses a parameter that is no real."""
    head = string("distribution", name).strip().lower()
    if head not in DISTRIBUTIONS:
        raise InvalidParameter(f"unknown distribution {name!r}")
    family = DISTRIBUTIONS[head]
    params = inspect.signature(family).parameters.values()
    names = [p.name for p in params]
    least = sum(p.default is p.empty for p in params)
    if not least <= len(args) <= len(names):
        count = (f"{least}" if least == len(names)
                 else f"{least} to {len(names)}")
        point = ",".join(names)
        raise InvalidParameter(
            f"{head} takes {count} parameter(s) ({', '.join(names)}), got "
            f"{len(args)}; a path of points is written '{point};{point}'")
    return family(*args)


def parse_distribution(text):
    """"name:arg1,arg2" with positional numeric arguments."""
    head, _, argpart = string("distribution", text).partition(":")
    return build_distribution(head, [a for a in argpart.split(",") if a])


# ---------------------------------------------------------------------------
# deterministic sampling: counter-based splitmix64 through the inverse CDF

_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SeededSampler:
    """Reproducible sampler: draw k is a pure function of (seed, k).

    Uniform variates come from splitmix64 evaluated at consecutive counter
    values, mapped to (0, 1) open on both sides, then pushed through the
    family's inverse CDF. Streams are stateless apart from the counter, so
    any prefix of a stream is independent of how it was chunked.
    """

    def __init__(self, distribution, seed):
        self.seed = count("seed", seed, 0)
        if self.seed >= 2 ** 64:
            raise InvalidParameter(f"seed must fit in 64 bits, got {seed!r}")
        self.distribution = distribution
        self._counter = 0

    def uniforms(self, n):
        n = count("draw count", n, 0)
        try:
            idx = np.arange(self._counter + 1, self._counter + n + 1,
                            dtype=np.uint64)
        # numpy refuses the size (ValueError) or fails to allocate it at
        # once (MemoryError), before it writes anything
        except (ValueError, MemoryError):
            raise InvalidParameter(
                f"draw count {n} is more than one array can hold") from None
        self._counter += n
        z = np.uint64(self.seed) + idx * _GOLDEN_GAMMA
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53

    def draw(self, n):
        """n draws, refusing a family whose quantiles leave the doubles."""
        with np.errstate(over="ignore"):
            x = self.distribution.ppf(self.uniforms(n))
        bad = x[~np.isfinite(x)]
        if bad.size:
            raise InvalidParameter(
                f"{self.distribution.label()}: draw {bad[0]} is not finite")
        return x


# ---------------------------------------------------------------------------
# sup of pdf/u' over the support

def sup_ratio(distribution, transform):
    """sup of pdf/u' over the support, for the discrepancy bounds.

    For a power map this is the family's one closed form
    sup_x_pow_pdf(k, factor) (Transform.sup_ratio); the iterated
    log has its own, sup_loglog. Raises NotUnimodal when the ratio is
    unbounded (k < 0, as for pi*x**2, with density reaching the origin),
    HypothesisViolated when u is undefined on part of the support
    (Transform.check_support: the iterated log with mass below 1) and
    InvalidParameter when a normal double cannot hold the supremum.
    """
    value = transform.sup_ratio(distribution)
    if not _normal(value):
        raise InvalidParameter(
            f"{distribution.name}: the supremum lies outside the double "
            f"range")
    return value
