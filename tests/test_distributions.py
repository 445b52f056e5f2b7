"""Distribution families, their log10-stable tails, and the pdf/u' suprema.

scipy.stats supplies independent pdf/cdf/ppf references; a family's law
is checked on the log10 axis, at x = 10**lg. The closed-form
suprema are checked three ways: against the golden-section route, against a
dense grid built from scipy densities, and for exception parity on the
degenerate (family, transform) pairs.
"""

import hashlib
import inspect
import math
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from mpmath import mp, mpf

from oracles import argmax, density, sup_ratio_numeric, support_hi
from ubenford.bounds import discrepancy_bound

from ubenford.distributions import (DISTRIBUTIONS, Exponential, HalfNormal,
                                    LognormalBase10, ParetoI, ParetoII,
                                    SeededSampler, UniformOnZeroK,
                                    parse_distribution, sup_ratio)
from ubenford.errors import (HypothesisViolated, InvalidParameter,
                             NotUnimodal)
from ubenford.transforms import (IDENTITY, LOG2, LOG10, LOGLOG, PI_SQUARE,
                                 SQRT)

_LN10 = math.log(10.0)


def scipy_twin(d):
    """The same law expressed through scipy.stats."""
    if isinstance(d, ParetoI):
        return scipy.stats.pareto(b=d.alpha, scale=d.x0)
    if isinstance(d, ParetoII):
        return scipy.stats.lomax(c=d.b)
    if isinstance(d, LognormalBase10):
        return scipy.stats.lognorm(s=d.sigma * _LN10,
                                   scale=math.exp(d.mu * _LN10))
    if isinstance(d, UniformOnZeroK):
        return scipy.stats.uniform(0.0, d.k)
    if isinstance(d, Exponential):
        return scipy.stats.expon(scale=1.0 / d.lam)
    if isinstance(d, HalfNormal):
        return scipy.stats.halfnorm(scale=d.sigma)
    raise AssertionError(d)


INSTANCES = [
    ParetoI(1.0, 1.0),
    ParetoI(2.5, 3.0),
    ParetoI(0.5, 2.0),
    ParetoII(1.0),
    ParetoII(0.5),
    ParetoII(3.0),
    LognormalBase10(0.0, 2.0),
    LognormalBase10(1.0, 0.5),
    UniformOnZeroK(100.0),
    UniformOnZeroK(0.25),
    Exponential(1.0),
    Exponential(0.01),
    HalfNormal(1.0),
    HalfNormal(10.0),
]

TRANSFORMS = [IDENTITY, LOG10, LOG2, LOGLOG, SQRT, PI_SQUARE]


@pytest.fixture(params=INSTANCES, ids=lambda d: d.label())
def dist(request):
    return request.param


class TestAgainstScipy:
    def test_pdf(self, dist):
        ref = scipy_twin(dist)
        x = ref.ppf(np.linspace(0.01, 0.99, 99))
        np.testing.assert_allclose(density(dist, x), ref.pdf(x), rtol=1e-12)

    def test_cdf_sf(self, dist):
        ref = scipy_twin(dist)
        lg = np.log10(ref.ppf(np.linspace(0.001, 0.999, 99)))
        x = 10.0 ** lg
        np.testing.assert_allclose(dist.cdf_log10(lg), ref.cdf(x),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(dist.sf_log10(lg), ref.sf(x),
                                   rtol=1e-12, atol=1e-15)

    def test_ppf(self, dist):
        ref = scipy_twin(dist)
        q = np.linspace(1e-6, 1.0 - 1e-6, 97)
        np.testing.assert_allclose(dist.ppf(q), ref.ppf(q), rtol=1e-9)

    def test_mean(self, dist):
        # the first moment from the family's own log10-domain tail:
        # E X = x_lo + ln 10 * integral of sf(10**t) * 10**t dt over
        # t >= lg(x_lo), where x_lo = ppf(1e-16) has sf = 1 below it
        ref = float(scipy_twin(dist).mean())
        if not math.isfinite(ref):
            # an infinite mean: far out, sf falls at most a decade a decade
            t = float(dist.isf_log10(1e-12))
            drop = dist.sf_log10(t + 1.0) / dist.sf_log10(t)
            assert drop >= 0.1 * (1 - 1e-9)
            return
        t_lo = float(dist.ppf_log10(1e-16))
        t_hi = float(dist.isf_log10(1e-300))
        tail, err = scipy.integrate.quad(
            lambda t: float(dist.sf_log10(t)) * 10.0 ** t * _LN10,
            t_lo, t_hi, limit=300)
        assert 10.0 ** t_lo + tail == pytest.approx(ref, rel=1e-7)


class TestShapeAndSupport:
    def test_pdf_normalizes(self, dist):
        # substitute x = 10**t so heavy tails spanning many decades keep
        # the quadrature well conditioned; truncation leaves <= 2e-10 mass
        ref = scipy_twin(dist)
        lo = max(dist.support_lo, float(ref.ppf(1e-10)))
        hi = support_hi(dist)
        if not math.isfinite(hi):
            hi = float(ref.isf(1e-10))
        t_lo = math.log10(max(lo, 1e-280))
        t_hi = math.log10(hi)
        total, err = scipy.integrate.quad(
            lambda t: density(dist, 10.0 ** t) * 10.0 ** t * _LN10,
            t_lo, t_hi, limit=300)
        assert total == pytest.approx(1.0, abs=max(1e-7, 4 * err))

    def test_pdf_zero_outside_support(self, dist):
        assert density(dist, dist.support_lo - 1.0) == 0.0
        # a decade below the support, or x = 0 where the support starts
        # at the origin
        below = (math.log10(dist.support_lo) - 1.0 if dist.support_lo > 0.0
                 else -math.inf)
        assert dist.cdf_log10(below) == 0.0
        assert dist.sf_log10(below) == 1.0
        hi = support_hi(dist)
        if math.isfinite(hi):
            assert density(dist, hi * 1.5) == 0.0
            assert dist.cdf_log10(math.log10(hi * 1.5)) == 1.0

    def test_cdf_ppf_roundtrip(self, dist):
        q = np.linspace(1e-10, 1.0 - 1e-10, 201)
        np.testing.assert_allclose(dist.cdf_log10(dist.ppf_log10(q)), q,
                                   rtol=5e-12, atol=5e-14)

    def test_cdf_plus_sf(self, dist):
        lg = dist.ppf_log10(np.linspace(0.01, 0.99, 51))
        np.testing.assert_allclose(dist.cdf_log10(lg) + dist.sf_log10(lg),
                                   1.0, rtol=0, atol=1e-14)

    def test_scalar_passthrough(self, dist):
        x = float(dist.ppf(0.37))
        assert isinstance(x, float)
        lg = float(dist.ppf_log10(0.37))
        assert isinstance(dist.sf_log10(lg), float)
        assert isinstance(dist.cdf_log10(lg), float)
        arr = dist.sf_log10(np.array([lg, lg]))
        assert isinstance(arr, np.ndarray)


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


class TestOut:
    """cdf_log10 and sf_log10 with out= write the allocating call's
    doubles into the caller's array and return it, as mod1_law calls
    them: a column slice of its preimage block into a contiguous buffer;
    out may be lg itself."""

    @staticmethod
    def grid(dist):
        q = np.linspace(1e-10, 1.0 - 1e-10, 201)
        return np.concatenate([
            dist.ppf_log10(q), dist.isf_log10(np.array([1e-14, 1e-300])),
            [-np.inf, np.inf, np.nan, -400.0, 400.0, 30.0,
             math.nextafter(30.0, 31.0), 0.0, -0.0]])

    @pytest.mark.parametrize("side", ["cdf_log10", "sf_log10"])
    def test_matches_the_allocating_call(self, dist, side):
        f = getattr(dist, side)
        lg = self.grid(dist)
        with np.errstate(all="ignore"):
            want = f(lg)
            buf = np.full_like(lg, 7.0)
            assert f(lg, out=buf) is buf and _bits(buf) == _bits(want)
            block = np.tile(lg, (3, 1))[:, 2:-2]
            values = np.empty(block.shape)
            assert f(block, out=values) is values
            assert _bits(values) == _bits(np.tile(want, (3, 1))[:, 2:-2])
            same = lg.copy()
            assert f(same, out=same) is same and _bits(same) == _bits(want)


# the two families the error functions serve: sha256 of (cdf_log10,
# sf_log10) over _erf_grid, first 16 hex digits, the same fresh and with
# out=lg; recorded while they called special.erf, erfc, normal_cdf and
# normal_sf
PINNED_ERF_FAMILIES = [
    (HalfNormal(1e-3), "3d4b19c66f94460b", "0ff4e5a8da44d096"),
    (HalfNormal(6.68552), "a62726956163d893", "8f7d49ad3e1bc0b1"),
    (HalfNormal(51.7755), "40596bad36c58b0f", "65d5c603dfdb7d0d"),
    (HalfNormal(1e4), "dba157023f07426f", "48d9542a92712e16"),
    (LognormalBase10(0.91579, 1.89314), "0af36a3d8bd26bde",
     "8b70a8419d0002c4"),
    (LognormalBase10(1e6, 0.3), "70b3d620f34b4fba", "cedf75c808013e34"),
    (LognormalBase10(-40.0, 3.0), "e7c467f89245acc9", "f52a01ab78962524"),
]


def _erf_grid(d):
    # dense over the family's 16 scales, coarse over +-400, and the edges
    c, w = (math.log10(d.sigma), 1.0) if isinstance(d, HalfNormal) \
        else (d.mu, d.sigma)
    return np.concatenate([np.linspace(c - 8.0 * w, c + 8.0 * w, 40001),
                           np.linspace(-400.0, 400.0, 8001),
                           [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0]])


@pytest.mark.parametrize("d, cdf, sf", PINNED_ERF_FAMILIES,
                         ids=[d.label() for d, *_ in PINNED_ERF_FAMILIES])
def test_erf_families_pinned_bits(d, cdf, sf):
    for side, want in (("cdf_log10", cdf), ("sf_log10", sf)):
        f = getattr(d, side)
        lg = _erf_grid(d)
        with np.errstate(all="ignore"):
            assert hashlib.sha256(_bits(f(lg))).hexdigest()[:16] == want
            assert f(lg, out=lg) is lg
        assert hashlib.sha256(_bits(lg)).hexdigest()[:16] == want
        # np.float64 is a float subclass, so isinstance would pass it
        for x in (0.3, np.float64(-1.5), np.array(2.0)):
            assert type(f(x)) is float
            assert _bits(f(x)) == _bits(f(np.array([x]))[0])


class TestLog10Forms:
    def test_match_plain_forms_in_range(self, dist):
        q = np.linspace(1e-6, 1 - 1e-6, 61)
        np.testing.assert_allclose(dist.ppf_log10(q),
                                   np.log10(dist.ppf(q)), atol=1e-10)

    def test_isf_inverts_sf(self, dist):
        # near a finite right endpoint the log10 axis cannot resolve
        # survival below ~1e-11 (1 - 10**lg cancels), so stop at 1e-5 there
        deep = math.isinf(support_hi(dist))
        p = np.logspace(-12 if deep else -5, -1, 45)
        lg = dist.isf_log10(p)
        np.testing.assert_allclose(dist.sf_log10(lg), p, rtol=1e-9)

    def test_deep_tail_stays_finite(self, dist):
        # survival 1e-250 is far beyond any double-valued quantile for the
        # heavy families; the log10 forms must still resolve it
        lg = dist.isf_log10(1e-250)
        assert math.isfinite(lg)
        hi = support_hi(dist)
        if math.isfinite(hi):
            assert abs(10.0 ** lg - hi) <= 1e-6 * hi
        else:
            assert dist.sf_log10(lg) == pytest.approx(1e-250, rel=1e-8)

    def test_heavy_tail_reaches_thousands_of_decades(self):
        d = ParetoII(0.5)
        lg = float(d.isf_log10(1e-250))
        assert lg == pytest.approx(500.0, abs=1e-9)
        assert float(d.sf_log10(500.0)) == pytest.approx(1e-250, rel=1e-9)

    def test_half_normal_lower_quantile_below_probit_resolution(self):
        # probit((1+q)/2) saturates at 0 once q/2 drops under the double
        # spacing at one half; the log10 form must keep resolving, and
        # match the closed form x ~ sigma*q*sqrt(2*pi)/2 of the flat start
        d = HalfNormal(1e4)
        for q in (1e-13, 1e-16, 1e-30, 1e-200):
            lg = float(d.ppf_log10(q))
            assert math.isfinite(lg)
            expected = math.log10(d.sigma * q * math.sqrt(2 * math.pi) / 2)
            assert lg == pytest.approx(expected, abs=1e-9)
        # the branch seam agrees with the direct evaluation
        assert float(d.ppf_log10(2e-12)) == pytest.approx(
            math.log10(float(d.ppf(2e-12))), abs=1e-10)


# closed-form sups worked out independently of the implementation
FROZEN_SUPS = [
    (ParetoI(1.0, 1.0), LOG10, _LN10),
    (ParetoI(2.0, 1.0), IDENTITY, 2.0),
    (UniformOnZeroK(100.0), SQRT, 0.2),
    (UniformOnZeroK(100.0), LOG10, _LN10),
    (Exponential(1.0), SQRT, math.sqrt(2.0 / math.e)),
    (Exponential(2.0), IDENTITY, 2.0),
    (Exponential(1.0), LOG10, _LN10 / math.e),
    (LognormalBase10(0.0, 2.0), LOG10,
     1.0 / (2.0 * math.sqrt(2.0 * math.pi))),
    (ParetoII(1.0), IDENTITY, 1.0),
    (HalfNormal(1.0), IDENTITY, math.sqrt(2.0 / math.pi)),
    (ParetoI(1.0, 1.0), PI_SQUARE, 1.0 / (2.0 * math.pi)),
]


class TestSupRatio:
    @pytest.mark.parametrize("d,t,expected", FROZEN_SUPS,
                             ids=lambda v: getattr(v, "kind", None) and None)
    def test_frozen_values(self, d, t, expected):
        assert sup_ratio(d, t) == pytest.approx(expected, rel=1e-12)

    def test_closed_forms_match_golden_section(self):
        checked = 0
        for d in INSTANCES:
            for t in TRANSFORMS:
                try:
                    a_val = sup_ratio(d, t)
                except (NotUnimodal, HypothesisViolated) as exc:
                    with pytest.raises(type(exc)):
                        sup_ratio_numeric(d, t)
                    continue
                n_val, _ = sup_ratio_numeric(d, t)
                assert n_val == pytest.approx(a_val, rel=5e-8), (
                    d.label(), t.label())
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("d,t", [
        (ParetoI(1.0, 1.0), SQRT),
        (ParetoII(2.0), SQRT),
        (LognormalBase10(0.0, 2.0), PI_SQUARE),
        (LognormalBase10(1.0, 0.5), SQRT),
        (Exponential(0.01), LOG10),
        (HalfNormal(10.0), SQRT),
        (UniformOnZeroK(0.25), IDENTITY),
        (ParetoI(2.5, 3.0), LOGLOG),
    ], ids=lambda v: getattr(v, "label", lambda: getattr(v, "kind", ""))())
    def test_scipy_grid_oracle(self, d, t):
        # dense scipy-density grid around the quantile window, widened to
        # cover the oracle's argmax; checks both routes against a third
        ref = scipy_twin(d)
        val = sup_ratio(d, t)
        xs = float(argmax(d, t))
        lo = float(ref.ppf(1e-12))
        hi = float(ref.isf(1e-12))
        if xs > 0.0:
            lo, hi = min(lo, xs / 100.0), max(hi, xs * 100.0)
        lo = max(lo, d.support_lo if d.support_lo > 0 else lo)
        if t.kind == "loglog":
            lo = max(lo, 1.0 + 1e-9)
        lg = np.linspace(math.log10(max(lo, 1e-300)), math.log10(hi),
                         400001)
        x = 10.0 ** lg
        if t.kind == "identity":
            up = np.ones_like(x)
        elif t.kind == "log":
            up = 1.0 / (x * math.log(t.base))
        elif t.kind == "loglog":
            up = 1.0 / (x * np.log(x) * _LN10)
        elif t.kind == "sqrt":
            up = 0.5 / np.sqrt(x)
        else:
            up = 2.0 * math.pi * x
        grid_max = float(np.max(ref.pdf(x) / up))
        assert grid_max <= val * (1.0 + 1e-9)
        assert grid_max >= val * (1.0 - 1e-6)

    @pytest.mark.parametrize("d", [UniformOnZeroK(1.0), Exponential(1.0),
                                   ParetoII(1.0), HalfNormal(1.0)],
                             ids=lambda d: d.label())
    def test_pi_square_unbounded_near_origin(self, d):
        with pytest.raises(NotUnimodal):
            sup_ratio(d, PI_SQUARE)
        with pytest.raises(NotUnimodal):
            sup_ratio_numeric(d, PI_SQUARE)

    @pytest.mark.parametrize("d", [UniformOnZeroK(100.0), Exponential(1.0),
                                   ParetoII(1.0), HalfNormal(1.0),
                                   LognormalBase10(0.0, 1.0),
                                   ParetoI(1.0, 0.5)],
                             ids=lambda d: d.label())
    def test_loglog_needs_support_above_one(self, d):
        with pytest.raises(HypothesisViolated):
            sup_ratio(d, LOGLOG)
        with pytest.raises(HypothesisViolated):
            sup_ratio_numeric(d, LOGLOG)

    def test_scale_ratio_is_identity_sup(self):
        # x * pdf(x) peaks at x = 1/lam, where it is 1/e for every lam
        d = Exponential(3.0)
        val = d.sup_x_pow_pdf(1.0, 1.0)
        xs = float(argmax(d, LOG10))
        assert val == pytest.approx(1.0 / math.e, rel=1e-12)
        assert xs == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert val == pytest.approx(xs * density(d, xs), rel=1e-12)


class TestLognormalSupremaRange:
    """LognormalBase10 suprema once the argmax 10**(mu - c*sigma**2*ln 10)
    nears or leaves the edge of the double range: a value a double holds,
    or InvalidParameter where the value itself does not fit; never 0,
    never a traceback."""

    # transform, c in the argmax exponent, the factor k*x**(1-c) on pdf
    CASES = ((IDENTITY, 1, lambda x: 1),
             (SQRT, mpf(1) / 2, lambda x: 2 * mp.sqrt(x)),
             (PI_SQUARE, 2, lambda x: 1 / (2 * mp.pi * x)))

    @staticmethod
    def mp_sup(mu, sigma, c, factor):
        """k*x**(1-c)*pdf at its closed-form argmax, in mpmath."""
        with mp.workdps(40):
            mu, sigma = mpf(mu), mpf(sigma)
            lg = mu - c * sigma ** 2 * mp.log(10)
            x = mpf(10) ** lg
            z = (lg - mu) / sigma
            pdf = mp.exp(-z * z / 2) / (
                x * sigma * mp.log(10) * mp.sqrt(2 * mp.pi))
            return float(factor(x) * pdf)

    @pytest.mark.parametrize("mu", (-3.0, 0.0, 30.0))
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0].label())
    def test_sigma_8_to_45(self, case, mu):
        transform, c, factor = case
        refused = 0
        for sigma in np.arange(8.0, 45.0 + 1e-9, 0.05):
            d = LognormalBase10(mu, float(sigma))
            try:
                val = sup_ratio(d, transform)
            except InvalidParameter:
                with pytest.raises(InvalidParameter):
                    discrepancy_bound(d, transform)
                # refused only where a normal double cannot hold it
                assert not (sys.float_info.min
                            <= self.mp_sup(mu, sigma, c, factor) < math.inf)
                refused += 1
                continue
            assert sys.float_info.min <= val < math.inf
            assert val == pytest.approx(
                self.mp_sup(mu, sigma, c, factor), rel=1e-12)
            if math.isfinite(2.0 * val):
                assert discrepancy_bound(d, transform) == 2.0 * val
            else:
                # a supremum above half the largest double: its ceiling
                # 2*sup is refused rather than handed out as inf
                with pytest.raises(InvalidParameter):
                    discrepancy_bound(d, transform)
        # the supremum leaves the double range well before sigma = 45
        assert refused > 0

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0].label())
    def test_in_range_values_keep_the_direct_form(self, case):
        # where the double route works it is the one used, bit for bit
        # (x**-c times the Gaussian factor over the normalizer, then the
        # transform's constant factor), not the log10-space form
        transform, c, _ = case
        c = float(c)
        factor = transform.power[1]
        for mu in (-1.0, 0.0, 1.0):
            for sigma in np.arange(1.5, 2.5 + 1e-9, 0.1):
                d = LognormalBase10(mu, float(sigma))
                xs = 10.0 ** (mu - c * d.sigma * d.sigma * _LN10)
                g = c * d.sigma * _LN10
                direct = (xs ** -c * math.exp(-0.5 * g * g)
                          / (d.sigma * _LN10 * math.sqrt(2 * math.pi)))
                assert sup_ratio(d, transform) == direct * factor

    @pytest.mark.parametrize("sigma", (0.5, 1.0, 2.0))
    def test_log_scale_mu_minus_400_to_400(self, sigma):
        # under log10 the ratio is ln 10 * x * pdf, peaking at x = 10**mu;
        # its value 1/(sigma*sqrt(2*pi)) never leaves the double range,
        # and is the same double wherever the argmax lies
        peak = 1.0 / (sigma * _LN10 * math.sqrt(2 * math.pi)) * math.log(10)
        for mu in np.arange(-400.0, 400.0 + 1e-9, 0.25):
            d = LognormalBase10(float(mu), sigma)
            val = sup_ratio(d, LOG10)
            assert val == peak, mu
            assert discrepancy_bound(d, LOG10) == 2.0 * val


class TestSampler:
    def test_splitmix_matches_integer_oracle(self):
        # pure-int splitmix64 reimplementation, compared bit for bit
        mask = (1 << 64) - 1

        def oracle(seed, k):
            z = (seed + k * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            return ((z >> 11) + 0.5) * 2.0 ** -53

        s = SeededSampler(UniformOnZeroK(1.0), 987654321)
        got = s.uniforms(257)
        want = np.array([oracle(987654321, k) for k in range(1, 258)])
        np.testing.assert_array_equal(got, want)

    def test_frozen_first_draws(self):
        s = SeededSampler(UniformOnZeroK(1.0), 42)
        np.testing.assert_array_equal(
            s.uniforms(4),
            np.array([0.7415648787718234, 0.15991039287692016,
                      0.2786011302551387, 0.3441907165236376]))

    def test_chunking_independence(self):
        a = SeededSampler(Exponential(1.0), 7)
        b = SeededSampler(Exponential(1.0), 7)
        one = a.draw(1000)
        two = np.concatenate([b.draw(137), b.draw(600), b.draw(263)])
        np.testing.assert_array_equal(one, two)

    def test_seed_sensitivity(self):
        u1 = SeededSampler(UniformOnZeroK(1.0), 1).uniforms(100)
        u2 = SeededSampler(UniformOnZeroK(1.0), 2).uniforms(100)
        assert np.abs(u1 - u2).min() > 0.0

    def test_uniformity_dkw(self):
        n = 100000
        u = np.sort(SeededSampler(UniformOnZeroK(1.0), 2024).uniforms(n))
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        # DKW at failure mass 1e-6 gives 0.0085; a healthy stream sits
        # near 0.86/sqrt(n) ~ 0.003
        assert d < 0.0085
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.001

    def test_open_interval(self):
        u = SeededSampler(UniformOnZeroK(1.0), 11).uniforms(10000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_draw_in_support(self, dist):
        x = dist.sample(500, seed=5)
        assert x.shape == (500,)
        assert np.all(x >= dist.support_lo)
        if math.isfinite(support_hi(dist)):
            assert np.all(x <= support_hi(dist))

    def test_sample_matches_ppf_of_uniforms(self):
        d = LognormalBase10(0.0, 2.0)
        got = d.sample(64, seed=99)
        want = d.ppf(SeededSampler(d, 99).uniforms(64))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("family", [
        HalfNormal(1e308), ParetoI(1e-3), ParetoII(1e-3),
        LognormalBase10(300.0, 10.0)],
        ids=["half_normal", "pareto_i", "pareto_ii", "lognormal10"])
    def test_draws_past_the_doubles_are_refused(self, family):
        # their upper quantiles overflow: the sampler handed out inf,
        # the half-normal with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter,
                               match=rf"^{re.escape(family.label())}: "
                                     "draw inf is not finite"):
                family.sample(2000, 0)

    def test_bad_seed(self):
        with pytest.raises(InvalidParameter):
            SeededSampler(UniformOnZeroK(1.0), -1)
        with pytest.raises(InvalidParameter):
            SeededSampler(UniformOnZeroK(1.0), 1 << 64)


class TestParse:
    def test_roundtrip_examples(self):
        d = parse_distribution("pareto_i:2,5")
        assert isinstance(d, ParetoI) and d.alpha == 2.0 and d.x0 == 5.0
        d = parse_distribution("exponential:0.5")
        assert isinstance(d, Exponential) and d.lam == 0.5
        d = parse_distribution("lognormal10:1,0.25")
        assert d.mu == 1.0 and d.sigma == 0.25

    def test_registry_covers_all_families(self):
        assert set(DISTRIBUTIONS) == {"pareto_i", "pareto_ii", "lognormal10",
                                      "uniform", "exponential", "half_normal"}

    def test_errors(self):
        with pytest.raises(InvalidParameter):
            parse_distribution("cauchy:1")
        with pytest.raises(InvalidParameter):
            parse_distribution("pareto_i:1,2,3")
        with pytest.raises(InvalidParameter):
            parse_distribution("exponential:-2")
        with pytest.raises(InvalidParameter):
            parse_distribution("exponential:abc")
        with pytest.raises(InvalidParameter):
            parse_distribution("uniform:abc")
        with pytest.raises(InvalidParameter, match="got 5"):
            parse_distribution(5)


# one valid point per family; each position in turn takes a bad value
_VALID_POINT = {ParetoI: (2.0, 3.0), ParetoII: (1.5,),
                LognormalBase10: (-1.0, 2.0), UniformOnZeroK: (4.0,),
                Exponential: (0.5,), HalfNormal: (2.0,)}


@pytest.mark.parametrize("family, position", [
    (family, i) for family, point in _VALID_POINT.items()
    for i in range(len(point))],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_constructors_refuse_non_finite_parameters(family, position, bad):
    names = list(inspect.signature(family).parameters)
    args = list(_VALID_POINT[family])
    family(*args)
    args[position] = bad
    with pytest.raises(InvalidParameter,
                       match=f"{names[position]} must be"):
        family(*args)
