"""Error function, complementary error function, and normal quantile.

Reference values are frozen from mpmath at 40 digits. Live comparisons of
the error function family are made against mpmath at 50 digits, in ulp of
the correctly rounded result: scipy's erfc is itself hundreds of ulp off
near x = 23 (it exponentiates the rounded x*x), so it cannot judge a few-ulp
kernel there. scipy stays the oracle for erf on [-6, 6] and the quantile.

The package reads erf and the normal laws only through the one dispatch,
special._erfc(t, s, out, erf); the shims below state each as its family
calls it (HalfNormal erf and erfc at s = 1, LognormalBase10 half of erfc
at s = 1/2), and normal_central, erf at s = 1/2, completes both flags at
both scales. The public erfc, without out=, is checked beside them.
"""

import hashlib
import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ubenford.special import _CUT, _cut_below, _erfc, erfc, probit


def _float(x, out):
    return out if x.shape else float(out)


def erf(x, out=None):
    x = np.asarray(x, dtype=np.float64)
    return _float(x, _erfc(x, 1.0, out, erf=True))


def erfc_out(x, out=None):
    x = np.asarray(x, dtype=np.float64)
    return _float(x, _erfc(x, 1.0, out))


def normal_cdf(z, out=None):
    # -z into out before the dispatch reads it, as LognormalBase10 does
    z = np.asarray(z, dtype=np.float64)
    out = _erfc(np.negative(z, out=out), 0.5, out)
    out *= 0.5
    return _float(z, out)


def normal_sf(z, out=None):
    z = np.asarray(z, dtype=np.float64)
    out = _erfc(z, 0.5, out)
    out *= 0.5
    return _float(z, out)


def normal_central(z, out=None):
    # P(|Z| < z) = erf(z / sqrt(2))
    z = np.asarray(z, dtype=np.float64)
    return _float(z, _erfc(z, 0.5, out, erf=True))


# mpmath, 40 dps
ERF_HALF = 0.52049987781304653768
ERF_ONE = 0.84270079294971486934
ERF_2P5 = 0.99959304798255504106
ERFC_2 = 4.6777349810472658379e-3
ERFC_5 = 1.5374597944280348502e-12
ERFC_10 = 2.088487583762544757e-45
ERFC_20 = 5.3958656116079009289e-176
ERFC_26P6 = 1.0885125885443088847e-309
PROBIT_975 = 1.9599639845400542355
PROBIT_03 = -0.52440051270804078404
PROBIT_1E12 = -7.0344838253011319298
PHI_MINUS_5 = 2.8665157187919391167e-7
PHI_SF_8 = 6.2209605742717841235e-16


ULP_BOUND = 8.0  # worst measured: 5.2 ulp here, 5.6 on a 12,003-point grid
_TINY = np.finfo(np.float64).tiny


def ulp_errors(ours, exact):
    """|ours - exact| in ulp of the rounded exact value, normal results only.

    exact holds mpmath values; points whose result is zero or subnormal
    (where a ulp is no longer relative) are left out.
    """
    errs = []
    for o, r in zip(np.asarray(ours, dtype=np.float64), exact):
        rf = float(r)
        if abs(rf) >= _TINY:
            errs.append(float(abs(mpmath.mpf(float(o)) - r)) / math.ulp(rf))
    return np.array(errs)


def _around(points):
    # each point, its two neighbouring doubles, and a few steps either side
    out = []
    for c in points:
        out += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf),
                c - 1e-9, c + 1e-9, c - 1e-3, c + 1e-3]
    return np.array(out)


# the kernel cut at 0.5 and the former 1.5 and 3.0 cuts, on both sides of 0
_CUTS = _around([s * c for c in (0.5, 1.5, 3.0) for s in (-1.0, 1.0)])
SWEEP = np.concatenate([np.linspace(-6.0, 27.0, 3301), _CUTS])
# the same cuts on the z scale, where x = z / sqrt(2)
SWEEP_Z = np.concatenate([np.linspace(-6.0, 27.0, 3301),
                          _CUTS * math.sqrt(2.0)])


@pytest.fixture(scope="module")
def mp50():
    with mpmath.workdps(50):
        yield


@pytest.mark.parametrize("fn, oracle, grid", [
    (erf, mpmath.erf, SWEEP),
    (erfc, mpmath.erfc, SWEEP),
    (normal_cdf, mpmath.ncdf, SWEEP_Z),
    (normal_sf, lambda z: mpmath.ncdf(-z), SWEEP_Z),
    (normal_central, lambda z: mpmath.erf(z / mpmath.sqrt(2)), SWEEP_Z),
], ids=["erf", "erfc", "normal_cdf", "normal_sf", "normal_central"])
def test_dense_ulp_sweep(mp50, fn, oracle, grid):
    exact = [oracle(mpmath.mpf(float(x))) for x in grid]
    errs = ulp_errors(fn(grid), exact)
    assert errs.size > 0.9 * grid.size
    assert errs.max() <= ULP_BOUND


_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                   -5e-324, 1e308, -1e308])
_OUT_CASES = [(erf, SWEEP), (erfc_out, SWEEP), (normal_cdf, SWEEP_Z),
              (normal_sf, SWEEP_Z), (normal_central, SWEEP_Z)]
_OUT_IDS = ["erf", "erfc", "normal_cdf", "normal_sf", "normal_central"]


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


@pytest.mark.parametrize("fn, grid", _OUT_CASES, ids=_OUT_IDS)
class TestOut:
    """out= writes the allocating call's doubles, bit for bit (nan signs
    included), into the caller's array and returns it; out may be the
    input itself, and a block wholly above the cut, which goes to the
    kernel whole, matches the same entries of a mixed one."""

    def test_fresh_buffer(self, fn, grid):
        x = np.concatenate([grid, _EDGES])
        buf = np.full_like(x, 7.0)
        got = fn(x, out=buf)
        assert got is buf and _bits(got) == _bits(fn(x))

    def test_in_place(self, fn, grid):
        x = np.concatenate([grid, _EDGES])
        want = fn(x)
        got = fn(x, out=x)
        assert got is x and _bits(got) == _bits(want)

    def test_strided_view(self, fn, grid):
        x = np.concatenate([grid, _EDGES])[:3300].reshape(-1, 30)[:, 3:27]
        buf = np.full((x.shape[0], 40), 7.0)
        got = fn(x, out=buf[:, 5:29])
        assert got.base is buf and _bits(got) == _bits(fn(x))
        assert np.all(buf[:, :5] == 7.0) and np.all(buf[:, 29:] == 7.0)

    def test_wholly_above_the_cut(self, fn, grid):
        x = np.concatenate([grid, _EDGES])
        up = np.abs(x) >= 1.0  # both sides of erf and the normal laws
        for side in (x > 0.0, x < 0.0):
            block = x[up & side]
            assert _bits(fn(block, out=np.empty_like(block))) == \
                _bits(fn(x)[up & side])


# a log-spaced grid from the subnormals to 1e3, both signs
_LOG = np.logspace(-320.0, 3.0, 3231)
_LOG = np.concatenate([-_LOG[::-1], _LOG])
_GRIDS = {"SWEEP": SWEEP, "SWEEP_Z": SWEEP_Z, "EDGES": _EDGES, "LOG": _LOG}

# sha256 of each function's doubles on each grid, first 16 hex digits,
# recorded while erf kept a side dispatch of its own beside erfc's
PINNED_DIGESTS = {
    "erf": {"SWEEP": "d7540cd90b247126", "SWEEP_Z": "bd4d7eb1d2de9437",
            "EDGES": "dce691b268e9d9c5", "LOG": "272b61829297d121"},
    "erfc": {"SWEEP": "7ca521eaa013c539", "SWEEP_Z": "5d361f3677826c35",
             "EDGES": "fce475f97aa54de0", "LOG": "5739de402723abca"},
    "normal_cdf": {"SWEEP": "2edef99877c24e4a", "SWEEP_Z": "1ee0a5340049e618",
                   "EDGES": "72dc7f0977467175", "LOG": "b6f018b71156ab32"},
    "normal_sf": {"SWEEP": "93552cbf74dc2cc1", "SWEEP_Z": "15c554e4f34ff619",
                  "EDGES": "6e6af96f66c7a0a0", "LOG": "ae8d95c43a01bb33"},
}


def _digest(v):
    return hashlib.sha256(_bits(v)).hexdigest()[:16]


@pytest.mark.parametrize("fn", [erf, erfc, normal_cdf, normal_sf],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("grid", list(_GRIDS))
def test_pinned_digests(fn, grid):
    assert _digest(fn(_GRIDS[grid])) == PINNED_DIGESTS[fn.__name__][grid]


@pytest.mark.parametrize("fn", [erf, erfc, normal_cdf, normal_sf],
                         ids=lambda fn: fn.__name__)
def test_scalar_gives_a_python_float(fn):
    # np.float64 is a float subclass, so isinstance would let it through
    for x in (0.3, np.float64(0.7), -2.0, np.array(1.5)):
        assert type(fn(x)) is float
        assert _bits(fn(x)) == _bits(fn(np.array([x]))[0])


@pytest.mark.parametrize("s", [1.0, 0.5])
def test_cut_below_is_the_least_double_past_the_cut(s):
    r = math.sqrt(s)
    t = _cut_below(s)
    assert t * r >= _CUT and math.nextafter(t, 0.0) * r < _CUT
    assert -t * r <= -_CUT and math.nextafter(-t, 0.0) * r > -_CUT


class TestErf:
    def test_frozen_anchors(self):
        assert erf(0.5) == pytest.approx(ERF_HALF, rel=5e-16, abs=0)
        assert erf(1.0) == pytest.approx(ERF_ONE, rel=5e-16, abs=0)
        assert erf(2.5) == pytest.approx(ERF_2P5, rel=5e-16, abs=0)

    def test_against_scipy_grid(self):
        # both sides carry ~1 ulp; allow their sum
        x = np.linspace(-6.0, 6.0, 481)
        np.testing.assert_allclose(erf(x), scipy.special.erf(x),
                                   rtol=0, atol=2e-15)

    def test_scalar_and_array_types(self):
        assert isinstance(erf(1.2), float)
        out = erf(np.array([0.1, 0.2]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_odd_symmetry_is_exact(self):
        x = np.linspace(0.0, 8.0, 257)
        np.testing.assert_array_equal(erf(-x), -erf(x))

    def test_limits(self):
        assert erf(0.0) == 0.0
        assert erf(10.0) == 1.0
        assert erf(-10.0) == -1.0


class TestErfc:
    def test_frozen_anchors(self):
        assert erfc(2.0) == pytest.approx(ERFC_2, rel=4e-16, abs=0)
        assert erfc(5.0) == pytest.approx(ERFC_5, rel=4e-16, abs=0)
        assert erfc(10.0) == pytest.approx(ERFC_10, rel=5e-16, abs=0)
        assert erfc(20.0) == pytest.approx(ERFC_20, rel=8e-16, abs=0)

    def test_subnormal_tail_keeps_relative_accuracy(self):
        # scipy flushes this to 0; the continued fraction keeps ~5 digits
        # even below the normal/subnormal boundary
        assert erfc(26.6) == pytest.approx(ERFC_26P6, rel=1e-10, abs=0)

    def test_against_mpmath_moderate_range(self, mp50):
        x = np.linspace(-6.0, 25.0, 311)
        errs = ulp_errors(erfc(x), [mpmath.erfc(mpmath.mpf(float(v)))
                                    for v in x])
        assert errs.size == x.size
        assert errs.max() <= ULP_BOUND

    def test_special_values(self):
        assert erfc(np.inf) == 0.0
        assert erfc(-np.inf) == 2.0
        assert erfc(1e308) == 0.0
        assert erfc(28.0) == 0.0
        assert math.isnan(erfc(np.nan)) and math.isnan(erf(np.nan))
        assert normal_sf(np.inf) == 0.0 and normal_cdf(np.inf) == 1.0

    def test_reflection(self):
        x = np.linspace(0.0, 5.0, 101)
        np.testing.assert_allclose(erfc(-x), 2.0 - erfc(x),
                                   rtol=0, atol=2e-15)

    def test_scalar_passthrough(self):
        assert isinstance(erfc(3.0), float)


class TestNormalCdf:
    def test_frozen_anchors(self):
        assert normal_cdf(-5.0) == pytest.approx(PHI_MINUS_5, rel=4e-16)
        assert normal_sf(8.0) == pytest.approx(PHI_SF_8, rel=4e-16)
        assert normal_cdf(0.0) == 0.5
        assert normal_sf(0.0) == 0.5

    def test_against_scipy(self):
        z = np.linspace(-8.0, 8.0, 641)
        np.testing.assert_allclose(normal_cdf(z), scipy.stats.norm.cdf(z),
                                   rtol=2e-14, atol=0)
        np.testing.assert_allclose(normal_sf(z), scipy.stats.norm.sf(z),
                                   rtol=2e-14, atol=0)

    def test_cdf_sf_mirror(self):
        z = np.linspace(-30.0, 30.0, 101)
        np.testing.assert_array_equal(normal_sf(z), normal_cdf(-z))

    def test_complement_sums_to_one(self):
        z = np.linspace(-3.0, 3.0, 61)
        np.testing.assert_allclose(normal_cdf(z) + normal_sf(z), 1.0,
                                   rtol=0, atol=3e-16)


class TestProbit:
    def test_frozen_anchors(self):
        assert probit(0.975) == pytest.approx(PROBIT_975, rel=2e-15, abs=0)
        assert probit(0.3) == pytest.approx(PROBIT_03, rel=2e-15, abs=0)
        assert probit(1e-12) == pytest.approx(PROBIT_1E12, rel=2e-15, abs=0)
        assert probit(0.5) == 0.0

    def test_against_scipy_all_branches(self):
        # central |q| <= 0.425, middle wing, and far tail r > 5
        p = np.concatenate([
            np.linspace(1e-4, 1 - 1e-4, 301),   # central + middle
            np.logspace(-300, -5, 60),          # far tail
            1.0 - np.logspace(-15, -5, 40),     # upper wing
        ])
        np.testing.assert_allclose(probit(p), scipy.stats.norm.ppf(p),
                                   rtol=4e-15, atol=1e-15)

    def test_antisymmetry(self):
        # representing 1-p caps tail resolution at eps/p, so stay central
        p = np.linspace(0.01, 0.5, 97)
        np.testing.assert_allclose(probit(p), -probit(1.0 - p),
                                   rtol=0, atol=2e-14)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.25, 1.5):
            with pytest.raises(ValueError):
                probit(bad)
        with pytest.raises(ValueError):
            probit(np.array([0.5, 1.0]))

    def test_roundtrip_through_cdf(self):
        # lower tail: cdf is small and exactly representable
        z = np.linspace(-8.0, 2.0, 201)
        np.testing.assert_allclose(probit(normal_cdf(z)), z,
                                   rtol=2e-13, atol=1e-13)
        # upper tail through sf, which keeps the tail mass resolved
        z = np.linspace(2.0, 8.0, 121)
        np.testing.assert_allclose(probit(normal_sf(z)), -z, rtol=2e-13)

    def test_scalar_passthrough(self):
        assert isinstance(probit(0.25), float)
        out = probit(np.array([0.25, 0.75]))
        assert isinstance(out, np.ndarray)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-250, max_value=1.0, exclude_max=True))
def test_probit_cdf_roundtrip_property(p):
    # d(log p)/dz = -z in the tail bounds the error amplification
    z = probit(p)
    back = normal_cdf(z)
    assert back == pytest.approx(p, rel=5e-12, abs=0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_erf_bounded_and_monotone_step(x):
    y = erf(x)
    assert -1.0 <= y <= 1.0
    assert erf(x + 0.125) >= y
