"""Sample-side statistics: KS distance on the unit interval, the
Kolmogorov limit law, exact leading digits, and first-digit chi-square
reports.

ks_uniform keeps ties and applies no small-sample correction; the returned
z is sqrt(N) * D, fed straight into kolmogorov_q.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptySample, InvalidParameter, count, real
from .special import erfc


def ks_uniform(values):
    """Two-sided KS distance of a sample against Uniform(0, 1).

    Returns (statistic, z) with z = sqrt(N) * statistic. Values must lie
    in [0, 1] (a NaN is refused); ties are legitimate and kept. The
    sample is read as a 1-D array of doubles, numeric text included;
    anything else is refused before the sort.
    """
    try:
        x = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidParameter(
            f"KS sample must be numbers, got {type(values).__name__}") \
            from None
    if x.ndim != 1:
        raise InvalidParameter(
            f"KS sample must be a 1-D array, got shape {x.shape}")
    x = np.sort(x)
    n = x.size
    if n == 0:
        raise EmptySample("KS statistic of an empty sample")
    # np.sort puts NaN last, and a NaN fails the comparison
    if not (x[0] >= 0.0 and x[-1] <= 1.0):
        raise DomainError("KS against Uniform(0,1) needs values in [0, 1]")
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = float(np.max(i / n - x))
    d_minus = float(np.max(x - (i - 1.0) / n))
    d = max(d_plus, d_minus)
    return d, math.sqrt(n) * d


def kolmogorov_q(z):
    """Limit tail Q(z) = 2*sum_k (-1)**(k-1) * exp(-2*k**2*z**2).

    The alternating series converges fast only for large z; below z = 1
    the Jacobi-theta dual form of the cdf, sqrt(2*pi)/z * sum over odd k
    of exp(-(2k-1)**2 * pi**2 / (8 z**2)), takes over. Each side reaches
    machine precision in a handful of terms and they agree at the seam.
    """
    if not z >= 0.0:
        raise DomainError(f"z must be nonnegative, got {z}")
    if z <= 1e-12:
        return 1.0
    if z >= 1.0:
        total = 0.0
        for j in range(1, 200):
            term = math.exp(-2.0 * j * j * z * z)
            total += term if j % 2 else -term
            if term < 1e-18:
                break
        return min(max(2.0 * total, 0.0), 1.0)
    w = math.pi * math.pi / (8.0 * z * z)
    cdf = 0.0
    for j in range(1, 200):
        term = math.exp(-(2.0 * j - 1.0) ** 2 * w) if (2.0 * j - 1.0) ** 2 \
            * w < 745.0 else 0.0
        cdf += term
        if term < 1e-18 * max(cdf, 1e-280):
            break
    cdf *= math.sqrt(2.0 * math.pi) / z
    return min(max(1.0 - cdf, 0.0), 1.0)


def leading_digit(value, base=10):
    """First digit of value in the given base, by exact integer compares.

    Floats are treated as the exact binary rationals they are; the float
    log only seeds the exponent, which is then verified and nudged so
    values within an ulp of a power of the base still land correctly.
    """
    base = count("base", base, 2)
    if isinstance(value, float):
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError("leading digit needs a finite positive value")
    elif isinstance(value, int):
        if value <= 0:
            raise DomainError("leading digit needs a positive integer")
    else:
        raise InvalidParameter(f"unsupported type {type(value).__name__}")
    num, den = value.as_integer_ratio()
    # bit lengths seed the exponent without ever materializing a float,
    # so arbitrarily large integers are fine
    e = math.floor((num.bit_length() - den.bit_length())
                   * math.log(2.0) / math.log(base))
    # exact adjustment: find e with base**e <= num/den < base**(e+1)
    while True:
        if e >= 0:
            n, d = num, den * base ** e
        else:
            n, d = num * base ** -e, den
        if n < d:
            e -= 1
        elif n >= d * base:
            e += 1
        else:
            return n // d


def _chi2_sf(x, dof):
    """Survival of chi-square via the regularized upper gamma.

    Built from Q(1/2, t) = erfc(sqrt(t)) and Q(1, t) = exp(-t) with the
    forward recursion Q(s+1, t) = Q(s, t) + t**s * exp(-t) / Gamma(s+1),
    so both parities of dof are exact to machine precision.
    """
    dof = count("dof", dof, 1)
    t = x / 2.0
    if t <= 0.0:
        return 1.0
    if dof % 2 == 0:
        s, q = 1.0, math.exp(-t)
    else:
        s, q = 0.5, erfc(math.sqrt(t))
    # term = t**s * exp(-t) / Gamma(s+1) maintained multiplicatively
    lg = s * math.log(t) - t - math.lgamma(s + 1.0)
    term = math.exp(lg) if lg > -700.0 else 0.0
    while 2.0 * s < dof:
        q += term
        s += 1.0
        term *= t / s
    return min(max(q, 0.0), 1.0)


def benford_expected(base=10):
    """Benford first-digit proportions log_base(1 + 1/d), d = 1..base-1."""
    base = count("base", base, 3)
    d = np.arange(1, base)
    return np.log1p(1.0 / d) / math.log(base)


@dataclass(frozen=True)
class DigitReport:
    base: int
    counts: np.ndarray
    expected: np.ndarray
    sample_size: int
    chi2: float
    dof: int
    p_value: object  # float, or None when expected cells are too thin
    alpha: float
    verdict: str


# below base * the smallest normal double, base**e can be subnormal and
# v / base**e loses the bits that decide the digit (6e-321 is a 5)
_TINY = float(np.finfo(np.float64).tiny)
# a ratio this close to an integer may sit on either side of it
_NEAR_INTEGER = 1e-9


def _leading_digits(values, base):
    """leading_digit of every value, as an integer array.

    A one-dimensional float64 array is estimated in one numpy pass: the
    exponent from the log, the digit from floor(v / base**e). The estimate
    is kept only where it cannot be wrong; leading_digit verifies every
    value below base times the smallest normal double, every ratio within
    1e-9 (relative) of an integer, and every ratio that is not finite or
    whose digit falls outside 1..base-1 (a nonpositive or nonfinite value
    among them raises there). float16 and float32 arrays are widened to
    float64, which is exact, and integer arrays become Python ints; any
    other input goes through leading_digit value by value.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu":
            values = values.tolist()
        elif values.dtype in (np.float16, np.float32):
            values = values.astype(np.float64)
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.ndim == 1):
        return np.array([leading_digit(v, base) for v in values],
                        dtype=np.intp)
    with np.errstate(all="ignore"):
        e = np.floor(np.log(values) / math.log(base))
        ratio = values / np.power(float(base), e)
        digit = np.floor(ratio)
        sure = ((values >= base * _TINY) & (digit >= 1.0)
                & (digit <= base - 1)
                & (np.abs(ratio - np.rint(ratio)) > _NEAR_INTEGER * ratio))
    digits = np.where(sure, digit, 0.0).astype(np.intp)
    for i in np.flatnonzero(~sure).tolist():
        digits[i] = leading_digit(float(values[i]), base)
    return digits


def digit_report(values, base=10, alpha=0.05):
    """First-digit tally against the Benford proportions.

    Digits are those of each value's exact binary rational (1e23 is
    9.999...e22, a 9). A float array is read in one numpy pass and only
    the values the estimate could get wrong go through the exact
    leading_digit (see _leading_digits).

    The chi-square p-value is suppressed (None) when the smallest expected
    cell count falls below 5, i.e. when N < 5 / min proportion; the verdict
    is then "insufficient-sample" rather than a coin flip on bad asymptotics.
    """
    alpha = real("alpha", alpha, 0.0, 1.0)
    probs = benford_expected(base)  # refuses a base that is no integer
    base = int(base)
    digits = _leading_digits(values, base)
    n = len(digits)
    if n == 0:
        raise EmptySample("digit report of an empty sample")
    counts = np.bincount(digits, minlength=base)[1:base]
    expected = n * probs
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = base - 2
    if expected.min() < 5.0:
        p = None
        verdict = "insufficient-sample"
    else:
        p = _chi2_sf(chi2, dof)
        verdict = "consistent" if p >= alpha else "inconsistent"
    return DigitReport(base=base, counts=counts, expected=expected,
                       sample_size=n, chi2=chi2, dof=dof, p_value=p,
                       alpha=alpha, verdict=verdict)
