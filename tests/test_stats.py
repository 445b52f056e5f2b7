"""KS machinery, the Kolmogorov limit law, and exact first digits."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ubenford.errors import DomainError, EmptySample, InvalidParameter
from ubenford.stats import (_chi2_sf, _leading_digits, benford_expected,
                            digit_report, kolmogorov_q, ks_uniform,
                            leading_digit)

# mpmath, 30 dps
Q_044 = 0.99026960815455634
Q_080 = 0.54414241157419815
Q_136 = 0.04948587675537791
Q_200 = 0.00067092525577969535
Q_050 = 0.96394524366487509
Q_100 = 0.26999967167735452


class TestKsUniform:
    def test_single_point(self):
        d, z = ks_uniform([0.5])
        assert d == 0.5 and z == 0.5
        d, _ = ks_uniform([0.3])
        assert d == pytest.approx(0.7, abs=1e-15)

    def test_evenly_spaced_midpoints(self):
        n = 40
        x = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        d, z = ks_uniform(x)
        assert d == pytest.approx(1.0 / (2.0 * n), abs=1e-15)
        assert z == pytest.approx(math.sqrt(n) / (2.0 * n), abs=1e-15)

    def test_order_invariance(self):
        rng = np.random.RandomState(3)
        x = rng.uniform(size=201)
        assert ks_uniform(x) == ks_uniform(np.sort(x)[::-1])

    def test_ties_are_kept(self):
        d, z = ks_uniform([0.5, 0.5, 0.5, 0.5])
        assert d == 0.5 and z == 1.0

    def test_matches_scipy_exactly(self):
        rng = np.random.RandomState(11)
        for n in (5, 50, 500):
            x = rng.uniform(size=n)
            d, _ = ks_uniform(x)
            ref = scipy.stats.kstest(x, "uniform").statistic
            assert d == pytest.approx(ref, abs=1e-15)

    def test_errors(self):
        with pytest.raises(EmptySample):
            ks_uniform([])
        with pytest.raises(DomainError):
            ks_uniform([0.2, 1.2])
        with pytest.raises(DomainError):
            ks_uniform([-0.1])

    @pytest.mark.parametrize("values", [[0.5, math.nan], [math.nan],
                                        [math.nan, 0.0, 1.0]])
    def test_nan_rejected(self, values):
        # NaN fails every comparison, so a check written as "x < 0 or
        # x > 1" let it through and returned (nan, nan)
        with pytest.raises(DomainError):
            ks_uniform(values)

    def test_boundary_values_allowed(self):
        d, _ = ks_uniform([0.0, 1.0])
        assert d == 0.5


class TestKolmogorovQ:
    def test_frozen_anchors(self):
        assert kolmogorov_q(0.44) == pytest.approx(Q_044, rel=1e-12)
        assert kolmogorov_q(0.80) == pytest.approx(Q_080, rel=1e-12)
        assert kolmogorov_q(1.36) == pytest.approx(Q_136, rel=1e-12)
        assert kolmogorov_q(2.00) == pytest.approx(Q_200, rel=1e-12)
        assert kolmogorov_q(0.50) == pytest.approx(Q_050, rel=1e-12)
        assert kolmogorov_q(1.00) == pytest.approx(Q_100, rel=1e-12)

    def test_against_scipy_grid(self):
        for z in np.linspace(0.05, 4.0, 160):
            assert kolmogorov_q(float(z)) == pytest.approx(
                float(scipy.special.kolmogorov(z)), rel=1e-9, abs=1e-15)

    def test_tiny_z_saturates(self):
        assert kolmogorov_q(0.0) == 1.0
        assert kolmogorov_q(1e-3) == 1.0
        assert kolmogorov_q(5e-3) == pytest.approx(1.0, abs=1e-12)

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            kolmogorov_q(-0.1)

    def test_nan_z_rejected(self):
        with pytest.raises(DomainError):
            kolmogorov_q(math.nan)

    def test_clamped_to_unit_interval(self):
        assert 0.0 <= kolmogorov_q(8.0) <= 1.0
        assert kolmogorov_q(8.0) < 1e-50


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=1e-3, max_value=3.9),
       st.floats(min_value=1e-4, max_value=0.1))
def test_kolmogorov_q_monotone(z, dz):
    assert kolmogorov_q(z + dz) <= kolmogorov_q(z) + 1e-14


class TestLeadingDigit:
    def test_small_integers(self):
        assert [leading_digit(v) for v in (1, 9, 10, 99, 123456789)] == \
            [1, 9, 1, 9, 1]

    def test_huge_integers_match_string_oracle(self):
        for v in (7 ** 77, math.factorial(200), 2 ** 1000,
                  10 ** 500, 10 ** 500 - 1):
            assert leading_digit(v) == int(str(v)[0])

    def test_floats(self):
        assert leading_digit(0.002) == 2
        assert leading_digit(1.0) == 1
        assert leading_digit(10.0) == 1
        assert leading_digit(0.1) == 1
        assert leading_digit(math.pi) == 3

    def test_one_ulp_below_a_power(self):
        # 0.999...9 and friends must resolve by exact rational compare,
        # not by a float log that rounds to the wrong decade
        x = math.nextafter(1.0, 0.0)
        assert leading_digit(x) == 9
        assert leading_digit(math.nextafter(10.0, 0.0)) == 9
        assert leading_digit(math.nextafter(1.0, 2.0)) == 1
        assert leading_digit(math.nextafter(0.1, 0.0)) == 9

    def test_other_bases(self):
        assert leading_digit(255, base=16) == 15
        assert leading_digit(64, base=8) == 1
        assert leading_digit(7, base=2) == 1
        assert leading_digit(5.5, base=2) == 1

    def test_errors(self):
        with pytest.raises(DomainError):
            leading_digit(0)
        with pytest.raises(DomainError):
            leading_digit(-3.0)
        with pytest.raises(DomainError):
            leading_digit(math.inf)
        with pytest.raises(DomainError):
            leading_digit(math.nan)
        with pytest.raises(InvalidParameter):
            leading_digit(5, base=1)
        with pytest.raises(InvalidParameter):
            leading_digit(5, base=math.inf)
        with pytest.raises(InvalidParameter):
            leading_digit("12")


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1e300))
def test_leading_digit_matches_decimal_expansion(x):
    # Decimal(float) is the exact binary value in decimal form
    digits = str(Decimal(x)).lstrip("0.").lstrip("0")
    assert leading_digit(x) == int(digits[0])


def fraction_leading_digit(value, base):
    """Oracle: walk the exact rational by powers of the base."""
    r = Fraction(value)
    while r >= base:
        r /= base
    while r < 1:
        r *= base
    return int(r)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False,
                     allow_subnormal=True),
           st.integers(min_value=1, max_value=10 ** 400)),
       base=st.integers(min_value=2, max_value=36))
def test_leading_digit_matches_fraction_oracle(value, base):
    assert leading_digit(value, base) == fraction_leading_digit(value, base)


@pytest.mark.filterwarnings("error")
class TestLeadingDigitsPass:
    """The one-pass numpy estimate against the exact leading_digit."""

    @staticmethod
    def check(values, base):
        got = _leading_digits(np.array(values, dtype=np.float64), base)
        assert got.tolist() == [leading_digit(v, base) for v in values]

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
               st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False, allow_subnormal=True),
               min_size=1, max_size=40),
           base=st.integers(min_value=3, max_value=36))
    def test_matches_exact_digits(self, values, base):
        self.check(values, base)

    def test_exact_binary_values(self):
        # the double nearest 1e23 is 99999999999999991611392, and the one
        # nearest 6e-321 is 5.99...e-321
        assert _leading_digits(np.array([1e23, 6e-321]), 10).tolist() == \
            [9, 5]

    @pytest.mark.parametrize("base", range(3, 37))
    def test_extremes_of_the_doubles(self, base):
        subnormals = [5e-324 * 3 ** j for j in range(34)]
        self.check(subnormals + [2.2250738585072014e-308,
                                 1.7976931348623157e308], base)

    @pytest.mark.parametrize("base", [3, 7, 10, 16, 36])
    def test_neighbours_of_digit_boundaries(self, base):
        values = []
        for k in (-300, -40, -3, -1, 0, 1, 2, 17, 200):
            for d in range(1, base + 1):
                exact = Fraction(d) * Fraction(base) ** k
                if exact > sys.float_info.max:
                    continue
                x = float(exact)
                if x > 0.0:
                    values += [math.nextafter(x, 0.0), x,
                               math.nextafter(x, math.inf)]
        self.check(values, base)

    def test_python_ints_past_int64(self):
        values = [2 ** 63, 2 ** 64 + 1, 3 ** 200, 10 ** 30 - 1]
        for base in (3, 10, 36):
            assert _leading_digits(values, base).tolist() == \
                [leading_digit(v, base) for v in values]

    def test_digit_report_reads_arrays_as_lists(self):
        values = [2.0 ** n for n in range(-1000, 1000, 3)] + [1e23]
        for base in (3, 10, 17):
            assert np.array_equal(
                digit_report(np.array(values), base).counts,
                digit_report(values, base).counts)

    def test_nonpositive_and_nonfinite_values_are_refused(self):
        for bad in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                _leading_digits(np.array([3.0, bad]), 10)

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8,
                                       np.uint64, np.float16, np.float32])
    def test_integer_and_narrow_float_arrays(self, dtype):
        # these were refused as "unsupported type int64", "float32", ...
        values = np.array([1, 2, 3, 9, 10, 19, 64, 99, 100, 127], dtype=dtype)
        for base in (3, 10):
            counts = digit_report(values, base).counts
            assert np.array_equal(counts,
                                  digit_report(values.tolist(), base).counts)
            assert np.array_equal(
                counts, digit_report(values.astype(np.float64), base).counts)

    def test_large_integer_arrays_are_read_exactly(self):
        # 2**63 - 1 is 9.22e18; as a double it would round up to 2**63
        values = np.array([2 ** 63 - 1, 10 ** 18 - 1], dtype=np.int64)
        assert _leading_digits(values, 10).tolist() == [9, 9]
        assert _leading_digits(np.array([2 ** 64 - 1], dtype=np.uint64),
                               10).tolist() == [1]

    @pytest.mark.parametrize("values", [np.array([True, True]),
                                        np.array([1.0 + 0.0j, 2.0]),
                                        np.array(["7"], dtype=object)])
    def test_bool_complex_and_object_arrays_are_refused(self, values):
        with pytest.raises(InvalidParameter):
            digit_report(values)


class TestChiSquareSf:
    def test_even_dof_anchors(self):
        assert _chi2_sf(3.0, 8) == pytest.approx(0.9343575456215499,
                                                 rel=1e-13)
        assert _chi2_sf(15.507313055865453, 8) == pytest.approx(0.05,
                                                                rel=1e-12)
        assert _chi2_sf(26.124481558376132, 8) == pytest.approx(0.001,
                                                                rel=1e-12)

    def test_odd_dof_anchor(self):
        assert _chi2_sf(5.0, 7) == pytest.approx(0.6599632296942824,
                                                 rel=1e-13)

    def test_against_scipy_grid(self):
        for dof in (1, 2, 3, 8, 15):
            for x in (0.1, 1.0, 5.0, 20.0, 60.0):
                assert _chi2_sf(x, dof) == pytest.approx(
                    float(scipy.stats.chi2.sf(x, dof)),
                    rel=1e-11, abs=1e-300)

    def test_edges(self):
        assert _chi2_sf(0.0, 8) == 1.0
        with pytest.raises(InvalidParameter):
            _chi2_sf(1.0, 0)


class TestDigitReport:
    def test_expected_proportions(self):
        p = benford_expected(10)
        assert p.shape == (9,)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        assert p[0] == pytest.approx(math.log10(2.0), rel=1e-15)
        assert p[8] == pytest.approx(math.log10(10.0 / 9.0), rel=1e-15)

    def test_conforming_sample(self):
        # powers of 2 are classically Benford-conforming
        values = [2 ** n for n in range(1, 1001)]
        rep = digit_report(values)
        assert rep.sample_size == 1000
        assert rep.counts.sum() == 1000
        assert rep.dof == 8
        assert rep.p_value is not None and rep.p_value > 0.2
        assert rep.verdict == "consistent"

    def test_nonconforming_sample(self):
        rep = digit_report([1.0 + 1e-9 * i for i in range(1000)])
        assert rep.p_value is not None and rep.p_value < 1e-10
        assert rep.verdict == "inconsistent"

    def test_small_sample_suppresses_p(self):
        rep = digit_report([float(i) for i in range(1, 60)])
        assert rep.p_value is None
        assert rep.verdict == "insufficient-sample"

    def test_threshold_is_smallest_expected_cell(self):
        # min proportion log10(10/9) = 0.0458 puts the cut at N = 110
        values = [2 ** n for n in range(1, 112)]
        assert digit_report(values[:109]).p_value is None
        assert digit_report(values[:110]).p_value is not None

    def test_chi2_matches_scipy(self):
        values = [2 ** n for n in range(1, 500)]
        rep = digit_report(values)
        ref = scipy.stats.chisquare(rep.counts, rep.expected)
        assert rep.chi2 == pytest.approx(float(ref.statistic), rel=1e-12)
        assert rep.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)

    def test_errors(self):
        with pytest.raises(EmptySample):
            digit_report([])
        with pytest.raises(InvalidParameter):
            digit_report([1, 2], alpha=0.0)
        with pytest.raises(InvalidParameter, match="got 10.5"):
            digit_report([1, 2], base=10.5)
        with pytest.raises(InvalidParameter, match="got inf"):
            digit_report([1, 2], base=math.inf)
        with pytest.raises(InvalidParameter, match="got nan"):
            digit_report([1, 2], base=math.nan)
        with pytest.raises(InvalidParameter, match="got 10.0"):
            digit_report([1, 2], base=10.0)
        # numeric text reads as the number it spells
        assert digit_report([1, 2], alpha="0.5").alpha == 0.5
        with pytest.raises(InvalidParameter):
            benford_expected(2)
