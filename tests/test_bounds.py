"""Mod-1 law measurement, discrepancy ceilings, and the fraction laws.

The frozen constants come from two independent sources: explicit geometric
closed forms (Pareto/exponential sums that telescope) and mpmath summation
at 30 digits. The two pi*x**2 series are additionally cross-checked against
mod1_law, which computes the same probabilities through cdf differences
rather than through square roots.
"""

import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import support_hi
import ubenford.bounds as bounds_module
from ubenford.bounds import (_BLOCK, _CHUNK, _EPS, _TAIL, BoundCertificate,
                             _enveloped, _exp_tail, _pairwise_sums,
                             certify_mod1_bound, default_z_grid,
                             discrepancy_bound, mod1_law,
                             p_delta_exponential,
                             p_delta_exponential_envelope, p_delta_uniform,
                             p_delta_uniform_envelope)
from ubenford.distributions import (Exponential, HalfNormal,
                                    LognormalBase10, ParetoI, ParetoII,
                                    UniformOnZeroK)
from ubenford.distributions import sup_ratio
from ubenford.experiments import DELTA_GRID, pdelta_curve
from ubenford.errors import (CertificateViolation, HypothesisViolated,
                             InvalidParameter, NotUnimodal,
                             TruncationFailure)
from ubenford.transforms import (IDENTITY, LOG2, LOG10, LOGLOG, PI_SQUARE,
                                 SQRT)

QUARTERS = np.array([0.25, 0.5, 0.75])

# mpmath, 30 dps
P_EXP_1_50 = 0.63299469833062945
P_EXP_1_25 = 0.4036943764980014
P_EXP_2_10 = 0.34164768139160313
P_EXP_05_75 = 0.7917490106248602
P_UNI_1_50 = 0.64271346926402771
P_UNI_1_25 = 0.4198831294440911
P_UNI_5_30 = 0.33420268431168241
P_UNI_20_70 = 0.70530812818123534


class TestMod1Law:
    def test_default_grid_hits_exact_quarters(self):
        zs = default_z_grid()
        assert zs.shape == (1023,)
        for q in (0.25, 0.5, 0.75):
            assert q in zs
        assert zs.min() > 0.0 and zs.max() < 1.0

    def test_pareto_log10_closed_form(self):
        # sf(x) = 1/x makes the cell sum telescope:
        # P(z) = (1 - 10**-z) * 10/9
        d = ParetoI(1.0, 1.0)
        res = mod1_law(d, LOG10)
        expected = (1.0 - 10.0 ** -res.zs) * 10.0 / 9.0
        np.testing.assert_allclose(res.probs, expected, rtol=1e-10)
        assert res.discrepancy == pytest.approx(
            np.max(np.abs(expected - res.zs)), rel=1e-9)

    def test_exponential_identity_closed_form(self):
        # geometric cells: P(z) = (1 - e**(-lam*z)) / (1 - e**(-lam))
        lam = math.log(2.0)
        res = mod1_law(Exponential(lam), IDENTITY)
        expected = -np.expm1(-lam * res.zs) / -math.expm1(-lam)
        np.testing.assert_allclose(res.probs, expected, rtol=1e-10)

    def test_quarter_anchors(self):
        # rate ln 2 gives P(z) = 2*(1 - 2**-z) exactly
        got = mod1_law(Exponential(math.log(2.0)), IDENTITY,
                       zs=QUARTERS).probs
        np.testing.assert_allclose(
            got, [2.0 * (1.0 - 2.0 ** -0.25), 2.0 - math.sqrt(2.0),
                  2.0 * (1.0 - 2.0 ** -0.75)], rtol=1e-10)

    def test_lognormal_sigma2_is_flat(self):
        # Poisson summation puts the deviation near exp(-2*pi**2*sigma**2)
        res = mod1_law(LognormalBase10(0.0, 2.0), LOG10)
        assert res.discrepancy < 1e-12

    @pytest.mark.parametrize("d, t, cells", [
        (HalfNormal(10.0), SQRT, range(0, 12)),
        (HalfNormal(2.0), PI_SQUARE, range(0, 1200)),
        (LognormalBase10(0.0, 2.0), LOG10, range(-20, 20)),
        (LognormalBase10(0.5, 0.5), SQRT, range(0, 400)),
    ], ids=["half_normal-sqrt", "half_normal-pi_square", "lognormal10-log10",
            "lognormal10-sqrt"])
    def test_erfc_laws_against_mpmath_cell_sum(self, d, t, cells):
        # the cells cover all but 1e-20 of the mass; each is summed in
        # mpmath at 30 digits from the x-scale edges of its u-cell
        zs = np.array([0.1875, 0.5, 0.8125])
        res = mod1_law(d, t, zs=zs)
        with mpmath.workdps(30):
            def x_of(u):  # the preimage of u under the transform
                if t == SQRT:
                    return u * u
                if t == PI_SQUARE:
                    return mpmath.sqrt(u / mpmath.pi)
                return mpmath.power(10, u)

            def cdf(x):
                if isinstance(d, HalfNormal):
                    return mpmath.erf(x / (d.sigma * mpmath.sqrt(2)))
                if x == 0:
                    return mpmath.mpf(0)
                lg = (mpmath.log10(x) - d.mu) / d.sigma
                return mpmath.erfc(-lg / mpmath.sqrt(2)) / 2

            for z, got in zip(zs, res.probs):
                want = mpmath.fsum(cdf(x_of(j + mpmath.mpf(z))) - cdf(x_of(j))
                                   for j in cells)
                assert abs(got - want) <= res.error_budget

    def test_uniform_sqrt_quarters(self):
        got = mod1_law(UniformOnZeroK(100.0), SQRT, zs=QUARTERS).probs
        np.testing.assert_allclose(got, [0.23125, 0.475, 0.73125],
                                   rtol=1e-12)

    def test_z_grid_validation(self):
        d = Exponential(1.0)
        with pytest.raises(ValueError):
            mod1_law(d, IDENTITY, zs=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            mod1_law(d, IDENTITY, zs=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            mod1_law(d, LOG10, zs=np.array([0.25, math.nan]))
        with pytest.raises(InvalidParameter, match=r"shape \(0,\)"):
            mod1_law(d, IDENTITY, zs=[])
        with pytest.raises(InvalidParameter, match=r"shape \(1, 1\)"):
            mod1_law(d, IDENTITY, zs=[[0.5]])
        with pytest.raises(InvalidParameter, match="got 'abc'"):
            mod1_law(d, IDENTITY, zs="abc")

    def test_cell_budget(self):
        # the 1e-14 window reaches x = 1e28
        with pytest.raises(TruncationFailure):
            mod1_law(ParetoI(0.5, 1.0), IDENTITY, zs=QUARTERS)

    def test_heavy_tail_log_cells_stay_small(self):
        res = mod1_law(ParetoII(0.5), LOG10, zs=QUARTERS)
        # the 1e-14 window spans lg -13.7 .. 28, so ~42 log cells
        assert res.cells < 50
        assert res.error_budget < 1e-9

    @pytest.mark.parametrize("d", [ParetoII(1.0), Exponential(0.01),
                                   LognormalBase10(0.0, 2.0)],
                             ids=lambda d: d.label())
    def test_loglog_law_needs_support_above_one(self, d):
        # about half the mass lies below x = 1, where the iterated log is
        # undefined; dropping it gave discrepancies near 0.5 with budgets
        # of 1e-12, a law of something other than u(X)
        with pytest.raises(HypothesisViolated,
                           match="iterated log is undefined"):
            mod1_law(d, LOGLOG, zs=QUARTERS)

    @pytest.mark.parametrize("alpha", [1e3, 1e300, 1e306, 1e308])
    def test_loglog_law_of_steep_pareto_i(self, alpha):
        # log10 X is exponential with rate alpha*ln 10, so a power of ten
        # in alpha shifts log10(log10 X) by an integer and leaves its law
        # mod 1 alone. The window opens within 1e-300 decades of x = 1
        # for the steep ones, and no floor on log10 x may cut it there
        ref = mod1_law(ParetoI(1.0), LOGLOG, zs=QUARTERS)
        res = mod1_law(ParetoI(alpha), LOGLOG, zs=QUARTERS)
        assert res.cells == ref.cells
        np.testing.assert_allclose(res.probs, ref.probs, rtol=0, atol=1e-14)

    def test_budget_refusal_is_short(self):
        # 4.5e207 cells: the count goes out in three digits
        with pytest.raises(TruncationFailure,
                           match=r"^4\.47e\+207 integer cells exceed the "
                                 r"budget of 5e\+06 for"):
            mod1_law(LognormalBase10(400.0, 2.0), SQRT, zs=QUARTERS)

    def test_budget_refusal_tells_count_from_budget(self):
        # 5,000,001 cells against a budget of 5,000,000: both read 5e+06
        # at three digits, so the count takes all seven
        with pytest.raises(TruncationFailure,
                           match=r"^5000001 integer cells exceed the budget "
                                 r"of 5000000 for"):
            mod1_law(UniformOnZeroK(5000000.5), IDENTITY)


def _mod1_law_per_z(distribution, transform, zs):
    """Reference: mod1_law as one Python step per z point, at its tail.

    The library evaluates blocks of z rows at once; every row must sum its
    cells in this order and so give the same bits.
    """
    lg_lo = float(distribution.ppf_log10(_TAIL))
    lg_hi = float(distribution.isf_log10(_TAIL))
    if distribution.support_lo > 0.0:
        lg_lo = max(lg_lo, math.log10(distribution.support_lo))
    if math.isfinite(support_hi(distribution)):
        lg_hi = min(lg_hi, math.log10(support_hi(distribution)))
    j_lo = math.floor(transform.u_float_from_log10(lg_lo))
    j_hi = math.floor(transform.u_float_from_log10(lg_hi))
    cells = j_hi - j_lo + 1

    probs = np.zeros_like(zs)
    for start in range(j_lo, j_hi + 1, _CHUNK):
        j = np.arange(start, min(start + _CHUNK, j_hi + 1),
                      dtype=np.float64)
        lg_left = transform.inverse_log10(j)
        finite = np.isfinite(lg_left)
        cdf_left = np.zeros_like(j)
        sf_left = np.ones_like(j)
        if finite.any():
            cdf_left[finite] = distribution.cdf_log10(lg_left[finite])
            sf_left[finite] = distribution.sf_log10(lg_left[finite])
        use_sf = cdf_left >= 0.5
        for iz, z in enumerate(zs):
            lg_right = transform.inverse_log10(j + z)
            cdf_right = distribution.cdf_log10(lg_right)
            p = np.where(use_sf,
                         sf_left - distribution.sf_log10(lg_right),
                         cdf_right - cdf_left)
            probs[iz] += float(np.sum(np.maximum(p, 0.0)))

    errs = np.abs(probs - zs)
    i = int(errs.argmax())
    budget = 2.0 * _TAIL + 8.0 * cells * _EPS + 1e-15
    return probs, float(errs[i]), float(zs[i]), cells, budget


def _assert_matches_per_z(distribution, transform, zs):
    res = mod1_law(distribution, transform, zs=zs)
    probs, disc, worst_z, cells, budget = _mod1_law_per_z(
        distribution, transform, zs)
    assert np.array_equal(res.probs, probs)
    assert res.discrepancy == disc
    assert res.worst_z == worst_z
    assert res.cells == cells
    assert res.error_budget == budget
    return res


# every family under each transform it accepts (log2 stands for the
# non-decimal log bases); cell counts run from 1 to about 10k, so some
# blocks hold all z rows and others only a few
BLOCK_CASES = [
    (ParetoI(10.0, 1.0), IDENTITY),
    (ParetoI(10.0, 1.0), LOG10),
    (ParetoI(10.0, 1.0), LOG2),
    (ParetoI(10.0, 1.0), SQRT),
    (ParetoI(10.0, 1.0), PI_SQUARE),
    (ParetoI(0.5, 1.0), LOGLOG),
    (ParetoI(2.0, 10.0), LOGLOG),
    (ParetoII(4.0), IDENTITY),
    (ParetoII(0.5), LOG10),
    (ParetoII(4.0), LOG2),
    (ParetoII(4.0), SQRT),
    (ParetoII(8.0), PI_SQUARE),
    (LognormalBase10(0.0, 0.5), IDENTITY),
    (LognormalBase10(0.0, 2.0), LOG10),
    (LognormalBase10(1.0, 1.0), LOG2),
    (LognormalBase10(0.5, 0.5), SQRT),
    (LognormalBase10(0.0, 0.2), PI_SQUARE),
    (UniformOnZeroK(50.0), IDENTITY),
    (UniformOnZeroK(1000.0), LOG10),
    (UniformOnZeroK(1000.0), LOG2),
    (UniformOnZeroK(1e4), SQRT),
    (UniformOnZeroK(50.0), PI_SQUARE),
    (Exponential(1.0), IDENTITY),
    (Exponential(0.01), LOG10),
    (Exponential(0.01), LOG2),
    (Exponential(0.01), SQRT),
    (Exponential(1.0), PI_SQUARE),
    (HalfNormal(3.0), IDENTITY),
    (HalfNormal(100.0), LOG10),
    (HalfNormal(100.0), LOG2),
    (HalfNormal(100.0), SQRT),
    (HalfNormal(2.0), PI_SQUARE),
]


class TestMod1LawBlocks:
    ZS = np.linspace(0.0, 1.0, 41)[1:-1]

    @pytest.mark.parametrize("d,t", BLOCK_CASES,
                             ids=lambda v: v.label())
    def test_matches_per_z_reference(self, d, t):
        _assert_matches_per_z(d, t, self.ZS)

    @pytest.mark.parametrize("t", [SQRT, PI_SQUARE])
    def test_left_edge_at_minus_infinity(self, t):
        # cell j = 0 has no preimage below 0, so its left edge is -inf
        d = Exponential(0.5)
        assert t.inverse_log10(np.array([0.0]))[0] == -np.inf
        res = _assert_matches_per_z(d, t, self.ZS)
        assert res.cells > 1

    def test_two_cell_chunks_with_one_row_blocks(self):
        # pi*X**2 on (0, 200] spans ~125k cells: two chunks of more than
        # _CHUNK/2 cells, so every block holds a single z row
        res = _assert_matches_per_z(UniformOnZeroK(200.0), PI_SQUARE,
                                    QUARTERS)
        assert 1.5 * _CHUNK < res.cells <= 2 * _CHUNK

    def test_many_cells_on_default_grid(self):
        zs = default_z_grid()
        res = _assert_matches_per_z(HalfNormal(4.0), PI_SQUARE, zs)
        assert res.cells * zs.size > 10 * _CHUNK
        assert np.all(np.diff(res.probs) >= 0.0)


class _Wobble:
    """Duck-typed family for the run split: its "cdf" c + a*sin(w*x) on
    [1, hi] need not rise, so the side of the cells' left edges may
    change at any cell. Only the reads mod1_law makes are defined."""

    support_lo = 1.0

    def __init__(self, hi, c, a, w):
        self.hi, self.c, self.a, self.w = hi, c, a, w

    def label(self):
        return f"wobble({self.hi:g}, {self.c:g}, {self.a:g}, {self.w:g})"

    def ppf_log10(self, q):
        return 0.0

    def isf_log10(self, p):
        return math.log10(self.hi)

    def cdf_log10(self, lg, out=None):
        x = np.multiply(self.w, np.power(10.0, lg, out=out), out=out)
        x = np.multiply(self.a, np.sin(x, out=out), out=out)
        return np.add(self.c, x, out=out)

    def sf_log10(self, lg, out=None):
        return np.subtract(1.0, self.cdf_log10(lg, out), out=out)


def _run_lengths(distribution, transform, cells):
    """Lengths of the maximal runs of adjacent cells j = 1..cells whose
    left edges lie on one side of the median, in cell order."""
    j = np.arange(1.0, cells + 1.0)
    side = distribution.cdf_log10(transform.inverse_log10(j)) >= 0.5
    cuts = np.flatnonzero(side[1:] != side[:-1]) + 1
    return np.diff([0, *cuts, side.size]), side


class TestMod1LawRuns:
    ZS = TestMod1LawBlocks.ZS

    def test_several_runs_and_one_cell_runs(self):
        d = _Wobble(60.5, 0.5, 0.45, 2.5)
        lengths, _ = _run_lengths(d, IDENTITY, 60)
        assert lengths.size > 10 and lengths.min() == 1
        assert _assert_matches_per_z(d, IDENTITY, self.ZS).cells == 60
        _assert_matches_per_z(d, IDENTITY, default_z_grid())

    @pytest.mark.parametrize("d,t,side", [
        (UniformOnZeroK(3.0), LOG10, False),
        (_Wobble(60.5, 0.7, 0.1, 2.5), IDENTITY, True),
    ], ids=["cdf", "sf"])
    def test_every_cell_on_one_side(self, d, t, side):
        res = _assert_matches_per_z(d, t, self.ZS)
        j = np.arange(math.floor(t.u_float_from_log10(d.ppf_log10(1e-14))),
                      math.floor(t.u_float_from_log10(d.isf_log10(1e-14)))
                      + 1.0)
        assert res.cells == j.size > 10
        assert np.all((d.cdf_log10(t.inverse_log10(j)) >= 0.5) == side)

    def test_runs_across_two_chunks(self):
        # 1,000 cells past the first chunk, so the second chunk's block
        # holds every z row; a run spans the chunk boundary, and the
        # second chunk has runs of its own
        d = _Wobble(_CHUNK + 1000.5, 0.5, 0.45, math.pi / 400.5)
        lengths, side = _run_lengths(d, IDENTITY, _CHUNK + 1000)
        assert side[_CHUNK - 1] == side[_CHUNK]
        assert np.unique(side[_CHUNK:]).size == 2
        assert lengths.size > 100
        res = _assert_matches_per_z(d, IDENTITY, self.ZS)
        assert res.cells == _CHUNK + 1000


# recorded with the boolean-mask block loop that came before the run
# split; the per-z reference makes the same family calls as mod1_law, so
# only a pinned value sees a change that both share
PINNED_LAWS = [
    (HalfNormal(4.0), PI_SQUARE,
     "179555f9bf2311f49ad0c3c72979f427b71f9d13d0707ff1aa21ac5e4efbe34c",
     0.03389621227948031, 0.302734375, 3011, 5.369610443434154e-12),
    (HalfNormal(51.7755), SQRT,
     "0eab3e6b988d72988041174a0d7a01b5064f6d78e513da5073c19aa9050fe604",
     0.00024714131622161073, 0.7890625, 21, 5.830349362740526e-14),
    (ParetoII(0.0134701), LOG10,
     "437bd4a4093d41b4c8c860ea6e463c9b8b8cbc0b22e67c7c2a6b636bbc9a2793",
     1.0412936353509927e-05, 0.49609375, 1053, 1.8915037518884638e-12),
    (LognormalBase10(0.91579, 1.89314), LOG10,
     "fa01dcde40c93dbc05d9799324d9118f34233d84a4712382d53c6a756e8d8c96",
     2.7755575615628914e-15, 0.9970703125, 30, 7.429070518200751e-14),
    (UniformOnZeroK(8796.51), SQRT,
     "05f30386cd3f594c0d6f0490b88f36aaa01d66047bd7c0e3867e403961fbadf2",
     0.0017671491379838145, 0.7900390625, 94, 1.8797754290362353e-13),
    (Exponential(0.470661), LOG10,
     "eea3ec56b34a94d6a0cdf36acc82046ee4313a8c6ceca0d0f0cbf004921252fd",
     0.02397028483279129, 0.7021484375, 16, 4.942170943040401e-14),
    # recorded while every row block allocated its own arrays: seed 1's
    # two dist-laws pi*x**2 laws (7 and 9 rows a block, a cdf run beside
    # an sf run) and a second chunk of 4,465 cells, 14 rows a block
    (HalfNormal(6.68552), PI_SQUARE,
     "4f088962f1ed1c9723d843be114906afb8ca59be79734b4e5cbf40bd800f6fe7",
     0.020282919552854495, 0.302734375, 8411, 1.4961937376195506e-11),
    (HalfNormal(5.9417), PI_SQUARE,
     "cc10cce0bf6c847f98f5c1439c92b01ad5918cf65191f88d7f751c1d94af7f46",
     0.02282164103352774, 0.302734375, 6644, 1.1823114840975265e-11),
    (UniformOnZeroK(70000.5), IDENTITY,
     "47b767a4b49efa1fabd64df9ff8e65198ba6896e39dbc248bc6b76fd3c9828e0",
     3.571403102808901e-06, 0.5, 70001, 1.2436775511485693e-10),
]

# p_delta_uniform(1000, DELTA_GRID), recorded with the per-chunk arrays
# that came before the shared buffer
PINNED_P_DELTA_UNIFORM_1000 = [
    0.1001354175843382, 0.20016289375336965, 0.3001699591251237,
    0.40016508804866135, 0.500151647552869, 0.6001314191673498,
    0.7001054917643924, 0.8000746060966397, 0.900039306741281,
]


# pdelta_curve("exponential", lam) over DELTA_GRID, recorded while the
# direct sum ran as a loop of chunks: 1e-3 and 0.1 take the tail, 1.0
# returns from the direct sum; 0.183, recorded while each delta summed
# its own direct terms, returns from it at delta <= 0.3 and takes the
# tail above
PINNED_P_DELTA_EXPONENTIAL = {
    1e-3: [0.10013541363302975, 0.2001628840501774, 0.3001699437012008,
           0.4001650668977575, 0.5001516206379026, 0.6001313865006381,
           0.7001054607937498, 0.8000745863132526, 0.9000392981386529],
    0.1: [0.11347014972687784, 0.21616234402340456, 0.3168293423034975,
          0.4163184541775191, 0.5149663002346018, 0.6129509787729942,
          0.7103820720947278, 0.8073337252344814, 0.9038595030723315],
    1.0: [0.2281488315480648, 0.3503411777281834, 0.4538168521394548,
          0.5469362667360715, 0.6329946983306296, 0.7137212593355824,
          0.7901707229215502, 0.8630504376199296, 0.9328667846551161],
    0.183: [0.1245409690687348, 0.2293842626357773, 0.33054614858499637,
            0.42957668479702393, 0.5270915510446181, 0.6234164150902596,
            0.7187516081966081, 0.8132326422398923, 0.9069573889508954],
}


# p_delta_uniform(k, DELTA_GRID) at k whose cell count ceil(pi*k**2) is
# 1, 3*2**15 + 1 (one cell past a multiple of 2**14 and of 2**15), 2**20
# (one whole chunk) and 2**20 + 1 (one cell past it), recorded while each
# chunk of each delta took arrays of its own
PINNED_P_DELTA_UNIFORM_EDGES = {
    0.5: [0.35682482323055426, 0.504626504404032, 0.6180387232371033,
          0.7136496464611085, 0.7978845608028655, 0.8740387444736634,
          0.9440697438826298, 1.0, 1.0],
    176.8935: [0.10076554049459324, 0.20092091747024599, 0.300960951751702,
               0.4009335496305447, 0.5008577451486764, 0.6007433589941742,
               0.7005965816822746, 0.8004218648964192, 0.9002222387693743],
    577.73: [0.10023440041588076, 0.20028196581143992, 0.30029420397000656,
             0.4002857831455617, 0.5002625313239957, 0.6002274918404013,
             0.7001825955021477, 0.8001291336694263, 0.9000680340931836],
    577.7303: [0.10023439605051991, 0.20028195717773423, 0.3002941910862983,
               0.4002857660225763, 0.5002625099694323, 0.6002275066938023,
               0.7001826081382461, 0.8001291420896499, 0.9000680383014961],
}
UNIFORM_EDGE_CELLS = {0.5: 1, 176.8935: 3 * 2**15 + 1, 577.73: 2**20,
                      577.7303: 2**20 + 1}


class TestPinnedBits:
    @pytest.mark.parametrize("d,t,digest,disc,worst_z,cells,budget",
                             PINNED_LAWS,
                             ids=[f"{d.label()}-{t.label()}"
                                  for d, t, *_ in PINNED_LAWS])
    def test_law_on_the_default_grid(self, d, t, digest, disc, worst_z,
                                     cells, budget):
        res = mod1_law(d, t, zs=default_z_grid())
        assert hashlib.sha256(res.probs.tobytes()).hexdigest() == digest
        assert (res.discrepancy, res.worst_z, res.cells,
                res.error_budget) == (disc, worst_z, cells, budget)

    def test_p_delta_uniform_over_the_delta_grid(self):
        got = p_delta_uniform(1000, DELTA_GRID)
        assert got == PINNED_P_DELTA_UNIFORM_1000

    @pytest.mark.parametrize("k", list(PINNED_P_DELTA_UNIFORM_EDGES))
    def test_p_delta_uniform_at_the_chunk_edges(self, k):
        a = k * math.sqrt(math.pi)
        assert max(1, math.ceil(a * a)) == UNIFORM_EDGE_CELLS[k]
        got = p_delta_uniform(k, DELTA_GRID)
        assert got == PINNED_P_DELTA_UNIFORM_EDGES[k]

    @pytest.mark.parametrize("lam", list(PINNED_P_DELTA_EXPONENTIAL))
    def test_p_delta_exponential_over_the_delta_grid(self, lam):
        rows = pdelta_curve("exponential", lam).rows
        assert [r.probability for r in rows] == \
            PINNED_P_DELTA_EXPONENTIAL[lam]


def _traced_peak(call):
    """Peak bytes traced while call() runs; numpy reports its arrays to
    tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDeltaGridMemory:
    @pytest.mark.parametrize("k", [1000, 3000])
    def test_uniform_curve_takes_four_leaf_arrays(self, k):
        # iota, j, sqrt(j) and the cells, 2**15 doubles each (1 MiB),
        # whatever the count of cells: 3,141,593 at k = 1000, and
        # 28,274,334 (27 chunks) at k = 3000, which read 8.5 MiB while
        # the series filled one buffer of 2**20 cells
        peak = _traced_peak(lambda: pdelta_curve("uniform", k))
        assert peak <= 1.25 * 2**20

    def test_exponential_curve_shares_its_near_terms(self):
        # iota, j, exp(-mu*sqrt(j)) and the terms, 2**15 doubles each
        # (1 MiB); three arrays of 100,000 values read 1.9 MiB
        peak = _traced_peak(lambda: pdelta_curve("exponential", 1e-3))
        assert peak <= 1.25 * 2**20


# The series sum their cells leaf by leaf along np.sum's own pairwise
# tree. These tests hold them to np.add.reduce and to the loops that
# filled whole chunks before, bit for bit: should numpy ever sum
# differently, they fail, and the pinned P_delta bits do not drift
# silently.

def _one_chunk_uniform(k, deltas):
    """p_delta_uniform's values before the envelope check, as the series
    computed them with one buffer of 2**20 cells per chunk, each delta
    filling it anew."""
    a = k * math.sqrt(math.pi)
    n = max(1, math.ceil(a * a))
    cells = np.empty(min(n, 1 << 20))
    totals = [0.0] * len(deltas)
    for start in range(0, n, 1 << 20):
        chunk = cells[:min(n - start, 1 << 20)]
        for i, delta in enumerate(deltas):
            j = np.arange(start, start + chunk.size, dtype=np.float64)
            np.sqrt(np.add(j, delta, out=chunk), out=chunk)
            chunk -= np.sqrt(j)
            if start + chunk.size == n:
                chunk[-1] = min(math.sqrt(n - 1 + delta), a) \
                    - math.sqrt(n - 1)
            totals[i] += float(np.sum(chunk))
    return [total / a for total in totals]


def _whole_array_exponential(lam, deltas):
    """p_delta_exponential as the series computed it over arrays of all
    100,000 direct terms."""
    mu = lam / math.sqrt(math.pi)
    j = np.arange(100_000, dtype=np.float64)
    near = np.exp(-mu * np.sqrt(j))
    out = []
    for delta in deltas:
        with np.errstate(over="ignore"):
            terms = near - np.exp(np.sqrt(j + delta) * -mu)
        total = float(np.sum(terms))
        out.append(total if terms[-1] < 1e-18 * max(total, 1e-300)
                   else _exp_tail(mu, delta, total))
    return _enveloped(lam, deltas, out, p_delta_exponential_envelope)


def _outcome(series, *args):
    """series(*args), or the message of its CertificateViolation, which
    carries the first breaching value to the last bit."""
    try:
        return series(*args)
    except CertificateViolation as exc:
        return str(exc)


LEAFWISE_GRID = list(DELTA_GRID) + [1e-300, 1.0 - 2.0**-53]


class TestLeafwiseBits:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 2**15 - 1,
                                   2**15, 2**15 + 1, 3 * 2**15 + 1, 100_000,
                                   777_777, 2**20 - 1, 2**20, 2**20 + 1,
                                   1_000_003])
    def test_tree_is_np_add_reduce(self, n):
        # non-negative doubles over 36 decades, as the cells are: no cell
        # or term of the series is -0.0, so no partial sum is, and
        # numpy's 0.0 identity added to each leaf's sum (here) or to the
        # whole sum (np.add.reduce) cannot tell the two apart. Over a
        # wider range the largest values alone make the sum, in any order
        rng = np.random.default_rng(n)
        x = rng.random(n) * 2.0 ** rng.uniform(-60, 60, n)
        spans = []

        def leaf(lo, size):
            spans.append((lo, size))
            return np.array([np.add.reduce(x[lo:lo + size])])

        got = _pairwise_sums(leaf, 0, n)
        assert got[0].tobytes() == np.add.reduce(x).tobytes()
        # leaves of at most _BLOCK cells, in ascending order, cover x once
        assert all(size <= _BLOCK for _, size in spans)
        ends = [lo + size for lo, size in spans]
        assert [lo for lo, _ in spans] == [0] + ends[:-1] and ends[-1] == n

    @pytest.mark.parametrize("k", list(UNIFORM_EDGE_CELLS) + [1000])
    def test_uniform_at_the_edges(self, k):
        assert p_delta_uniform(k, LEAFWISE_GRID) == \
            _one_chunk_uniform(k, LEAFWISE_GRID)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1500.0))
    def test_uniform_matches_the_one_chunk_loops(self, k):
        assert p_delta_uniform(k, LEAFWISE_GRID) == \
            _one_chunk_uniform(k, LEAFWISE_GRID)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=10.0))
    def test_exponential_matches_the_whole_array_loops(self, lam):
        assert _outcome(p_delta_exponential, lam, LEAFWISE_GRID) == \
            _outcome(_whole_array_exponential, lam, LEAFWISE_GRID)

    @pytest.mark.parametrize("lam", [1e-3, 0.1, 0.183, 1.0, 10.0])
    def test_exponential_direct_and_tailed(self, lam):
        # 1e-3 and 0.1 take the tail, 1.0 and 10.0 return the direct sum,
        # 0.183 does each at some delta of DELTA_GRID. At 1e-3 the value
        # at delta = 1 - 2**-53 reads 1.0000000016 and both refuse it
        got = _outcome(p_delta_exponential, lam, LEAFWISE_GRID)
        assert got == _outcome(_whole_array_exponential, lam, LEAFWISE_GRID)
        if lam == 1e-3:
            assert got.startswith("P_delta(0.001, 0.9999999999999999) = "
                                  "1.000000001609648 outside [")


class TestBoundCertificates:
    T1_CASES = [
        (ParetoI(0.5, 1.0), 0.141338, 2.0 * math.log(10.0) * 0.5),
        (ParetoI(0.1, 1.0), 0.028761, 2.0 * math.log(10.0) * 0.1),
        (ParetoI(0.05, 1.0), 0.014389, 2.0 * math.log(10.0) * 0.05),
        (ParetoI(0.01, 1.0), 0.002878, 2.0 * math.log(10.0) * 0.01),
    ]

    T2_CASES = [
        (UniformOnZeroK(100.0), SQRT, 0.025000, 4.0 / 10.0),
        (UniformOnZeroK(10000.0), SQRT, 0.002500, 4.0 / 100.0),
        (Exponential(1.0), SQRT, 0.019587,
         2.0 * math.sqrt(2.0 / math.e)),
        (Exponential(0.01), SQRT, 0.000161,
         2.0 * math.sqrt(0.02 / math.e)),
    ]

    @pytest.mark.parametrize("d,disc,bound", T1_CASES,
                             ids=lambda v: None)
    def test_log_scale_certificates(self, d, disc, bound):
        cert = certify_mod1_bound(d, LOG10)
        assert isinstance(cert, BoundCertificate)
        assert cert.discrepancy == pytest.approx(disc, abs=5e-7)
        assert cert.bound == pytest.approx(bound, rel=1e-12)
        assert cert.slack > 0.0

    @pytest.mark.parametrize("d,t,disc,bound", T2_CASES,
                             ids=lambda v: None)
    def test_general_transform_certificates(self, d, t, disc, bound):
        cert = certify_mod1_bound(d, t)
        assert cert.discrepancy == pytest.approx(disc, abs=5e-7)
        assert cert.bound == pytest.approx(bound, rel=1e-12)
        assert cert.slack > 0.0

    def test_bound_shrinks_with_lighter_tail(self):
        bounds = [discrepancy_bound(ParetoI(a, 1.0), LOG10)
                  for a in (0.5, 0.1, 0.05, 0.01)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_violation_detected(self):
        class Liar(Exponential):
            def sup_x_pow_pdf(self, k, factor):
                return 1e-9

        with pytest.raises(CertificateViolation):
            certify_mod1_bound(Liar(1.0), LOG10)

    def test_ceiling_past_the_doubles_is_refused(self):
        # a finite supremum above half the largest double: 2*sup is inf
        d = ParetoI(7.7e307, 2.5)
        assert math.isfinite(sup_ratio(d, LOGLOG))
        with pytest.raises(InvalidParameter,
                           match="outside the double range"):
            discrepancy_bound(d, LOGLOG)

    def test_finite_ceiling_halves_to_the_supremum(self):
        d = ParetoI(3e307, 2.5)
        assert discrepancy_bound(d, LOGLOG) / 2.0 == sup_ratio(d, LOGLOG)

    def test_degenerate_pairs_propagate(self):
        with pytest.raises(NotUnimodal):
            certify_mod1_bound(Exponential(1.0), PI_SQUARE)
        with pytest.raises(HypothesisViolated):
            certify_mod1_bound(UniformOnZeroK(100.0), LOGLOG)


class TestFractionLawUniform:
    def test_frozen_oracle_values(self):
        assert p_delta_uniform(1.0, [0.5, 0.25]) == pytest.approx(
            [P_UNI_1_50, P_UNI_1_25], rel=1e-13)
        assert p_delta_uniform(5.0, [0.3]) == pytest.approx([P_UNI_5_30],
                                                            rel=1e-13)
        assert p_delta_uniform(20.0, [0.7]) == pytest.approx([P_UNI_20_70],
                                                             rel=1e-13)

    @pytest.mark.parametrize("k", [1.0, 5.0, 20.0])
    def test_matches_mod1_route(self, k):
        # the same probabilities through cdf differences instead of roots
        deltas = np.linspace(0.05, 0.95, 19)
        via_mod1 = mod1_law(UniformOnZeroK(k), PI_SQUARE, zs=deltas).probs
        direct = np.array(p_delta_uniform(k, deltas))
        np.testing.assert_allclose(direct, via_mod1, rtol=1e-9, atol=1e-12)

    def test_envelope_contains_series(self):
        deltas = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        for k in (0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            for d, p in zip(deltas, p_delta_uniform(k, deltas)):
                lo, hi = p_delta_uniform_envelope(k, d)
                assert lo - 1e-12 <= p <= hi + 1e-12, (k, d)

    def test_envelope_tightens_with_k(self):
        d = 0.5
        widths = [np.subtract(*p_delta_uniform_envelope(k, d)[::-1])
                  for k in (1.0, 10.0, 100.0)]
        assert widths[0] > widths[1] > widths[2]
        lo, hi = p_delta_uniform_envelope(100.0, d)
        assert hi - lo < 0.02

    @pytest.mark.parametrize("k", [1e154, 1e200, 1.7e308])
    def test_envelope_past_the_doubles(self, k):
        # a**2 overflows from k = 7.6e153 and a itself from k = 1.01e308;
        # the envelope closes on delta
        for d in (0.01, 0.25, 0.5, 0.75, 0.99):
            lo, hi = p_delta_uniform_envelope(k, d)
            assert 0.0 <= lo <= hi <= 1.0
            assert abs(lo - d) < 1e-12 and abs(hi - d) < 1e-12

    @pytest.mark.parametrize("k", [1e-5, 1e-160, 1e-200, 1e-320])
    def test_tiny_k_puts_all_mass_in_cell_zero(self, k):
        # pi*k**2 < delta; a**2 underflows from k = 1e-154, where the
        # series clamped in a**2 read 0 and a subnormal envelope nan
        deltas = (0.01, 0.25, 0.5, 0.75, 0.99)
        assert p_delta_uniform(k, deltas) == [1.0] * len(deltas)
        for d in deltas:
            assert p_delta_uniform_envelope(k, d) == (0.0, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            p_delta_uniform(1.0, [0.0])
        with pytest.raises(ValueError):
            p_delta_uniform(1.0, [1.0])
        with pytest.raises(ValueError):
            p_delta_uniform(-1.0, [0.5])
        with pytest.raises(TruncationFailure):
            p_delta_uniform(1e6, [0.5])
        # a**2 past the doubles is over budget, not an OverflowError
        for k in (1e150, 1e200):
            with pytest.raises(TruncationFailure, match=r"^\S+ cells exceed"):
                p_delta_uniform(k, [0.5])
        # numeric text reads as the number it spells
        assert p_delta_uniform("10", ["0.5"]) == p_delta_uniform(10.0, [0.5])

    @pytest.mark.parametrize("k, count", [(1e154, "3.14e+308"),
                                          (1e200, "3.14e+400"),
                                          (1.7e308, "9.08e+616"),
                                          (1.78412e154, "1e+309")])
    def test_cell_count_past_the_doubles(self, k, count):
        # a*a overflows from k = 7.6e153, where the count read "inf"; at
        # 1.78412e154 it is 9.99995e308, whose three digits carry over
        with pytest.raises(TruncationFailure) as exc:
            p_delta_uniform(k, [0.5])
        assert str(exc.value) == \
            f"{count} cells exceed the budget of 5e+07 for k={k:g}"


class TestFractionLawExponential:
    def test_frozen_oracle_values(self):
        assert p_delta_exponential(1.0, [0.5, 0.25]) == pytest.approx(
            [P_EXP_1_50, P_EXP_1_25], rel=1e-12)
        assert p_delta_exponential(2.0, [0.1]) == pytest.approx(
            [P_EXP_2_10], rel=1e-12)
        assert p_delta_exponential(0.5, [0.75]) == pytest.approx(
            [P_EXP_05_75], rel=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 0.1])
    def test_matches_mod1_route(self, lam):
        deltas = np.linspace(0.1, 0.9, 9)
        via_mod1 = mod1_law(Exponential(lam), PI_SQUARE, zs=deltas).probs
        direct = np.array(p_delta_exponential(lam, deltas))
        np.testing.assert_allclose(direct, via_mod1, rtol=1e-8)

    def test_tail_correction_matches_pure_direct(self):
        # lam small enough that the 100,000 direct terms need the
        # correction (the last is still above 1e-9), large enough that a
        # plain sum of 3,000,000 terms leaves out less than 1e-21
        mu = 0.05 / math.sqrt(math.pi)
        for d in (0.2, 0.5, 0.8):
            direct = 0.0
            for j0 in range(0, 3_000_000, 1 << 18):
                j = np.arange(j0, j0 + (1 << 18), dtype=np.float64)
                direct += float(np.sum(np.exp(-mu * np.sqrt(j))
                                       - np.exp(-mu * np.sqrt(j + d))))
            assert p_delta_exponential(0.05, [d]) == pytest.approx([direct],
                                                                   abs=5e-11)

    def test_envelope_contains_series(self):
        deltas = (0.05, 0.1, 0.5, 0.9)
        for lam in (5.0, 1.0, 0.1, 0.01):
            for d, p in zip(deltas, p_delta_exponential(lam, deltas)):
                lo, hi = p_delta_exponential_envelope(lam, d)
                assert lo - 1e-12 <= p <= hi + 1e-12, (lam, d)

    def test_flattens_toward_delta_for_small_rate(self):
        deltas = np.linspace(0.05, 0.95, 19).tolist()
        worst = {lam: max(abs(p - d) for p, d in
                          zip(p_delta_exponential(lam, deltas), deltas))
                 for lam in (1.0, 0.1, 0.01, 0.001)}
        assert worst[1.0] > worst[0.1] > worst[0.01] > worst[0.001]
        assert worst[0.001] < 2e-4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            p_delta_exponential(0.0, [0.5])
        with pytest.raises(ValueError):
            p_delta_exponential(1.0, [-0.1])


@pytest.mark.parametrize("fn", [p_delta_uniform, p_delta_uniform_envelope,
                                p_delta_exponential,
                                p_delta_exponential_envelope],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_fraction_laws_refuse_non_finite_parameters(monkeypatch, fn, bad):
    # before any work: with numpy unbound, array work would raise
    # AttributeError; the series take a grid of deltas, the envelopes one
    monkeypatch.setattr(bounds_module, "np", None)
    grid = fn in (p_delta_uniform, p_delta_exponential)
    with pytest.raises(ValueError, match="must be finite and positive"):
        fn(bad, [0.5] if grid else 0.5)


@pytest.mark.parametrize("fn", [p_delta_uniform, p_delta_exponential],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("deltas", [0.5, "0.5", [], [0.0], [1.0],
                                    [0.5, 1.0]], ids=repr)
def test_series_refuse_a_bad_grid_before_any_work(monkeypatch, fn, deltas):
    # with numpy unbound, any array work would raise AttributeError
    monkeypatch.setattr(bounds_module, "np", None)
    with pytest.raises(InvalidParameter):
        fn(1.0, deltas)


# rates where the exponential series cancels (ROADMAP item 4): of these
# 18 values, all but those at lam = 1e-5, delta = 0.5 and 0.9 lie
# outside the envelope, from -1024 to 1.07e9 at lam = 1e-9 and 1e-12
CANCELLING_RATES = (1e-5, 3e-6, 1e-6, 1e-7, 1e-9, 1e-12)
BREACHES = [(lam, delta) for lam in CANCELLING_RATES
            for delta in (0.1, 0.5, 0.9)
            if not (lam == 1e-5 and delta > 0.1)]


class TestSeriesEnvelopeCheck:
    @pytest.mark.parametrize("lam,delta", BREACHES)
    def test_value_outside_the_envelope_raises(self, lam, delta):
        with pytest.raises(CertificateViolation, match=r"^P_delta\("):
            p_delta_exponential(lam, [delta])

    def test_message_names_the_parameter_as_given(self):
        with pytest.raises(CertificateViolation) as exc:
            p_delta_exponential(1e-7, [0.1])
        assert str(exc.value).startswith(
            "P_delta(1e-07, 0.1) = -0.12499820234943415 outside [")
        with pytest.raises(CertificateViolation, match=r"^P_delta\(1e-7, "):
            p_delta_exponential("1e-7", [0.1])

    def test_first_breach_in_delta_order(self):
        # every delta is computed before the check, which reads them in
        # the caller's order
        with pytest.raises(CertificateViolation,
                           match=r"^P_delta\(1e-12, 0.5\)"):
            p_delta_exponential(1e-12, [0.5, 0.1])

    def test_values_inside_the_envelope_are_returned(self):
        got = p_delta_exponential(1e-5, [0.5, 0.9])
        for d, p in zip((0.5, 0.9), got):
            lo, hi = p_delta_exponential_envelope(1e-5, d)
            assert lo - 1e-9 <= p <= hi + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.2, max_value=50.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_uniform_envelope_property(k, delta):
    [p] = p_delta_uniform(k, [delta])
    lo, hi = p_delta_uniform_envelope(k, delta)
    assert lo - 1e-11 <= p <= hi + 1e-11
    assert 0.0 <= p <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.02, max_value=5.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_exponential_envelope_property(lam, delta):
    [p] = p_delta_exponential(lam, [delta])
    lo, hi = p_delta_exponential_envelope(lam, delta)
    assert lo - 1e-10 <= p <= hi + 1e-10
    assert 0.0 <= p <= 1.0
