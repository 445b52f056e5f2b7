"""Experiment drivers: grid structure, determinism, frozen anchors.

Full-scale table values are exercised by the acceptance suite; here the
drivers run at reduced N so regressions surface in seconds. Frozen
numbers were produced by this code under the pure-Python backend and
cross-checked against the module-level oracles in the neighboring test
files (the cells go through ks_uniform/kolmogorov_q, which have their
own independent anchors).
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from ubenford.bigreal import DEFAULT_POLICY, BigReal, PrecisionPolicy
from ubenford.distributions import HalfNormal
from ubenford.errors import (CertificateViolation, DomainError, EmptySample,
                             InvalidParameter, NotUnimodal)
from ubenford.experiments import (DELTA_GRID, TABLE1_TRANSFORMS,
                                  TABLE3_SIGMA, TABLE3_TRANSFORMS,
                                  analyze_dataset,
                                  bound_sweep, ks_cell, pdelta_curve,
                                  run_table1, run_table3, sample_cell)
from ubenford.ingest import Dataset
from ubenford.report import emit
from ubenford.sequences import odd_nonsquare, parse_sequence
from ubenford.stats import kolmogorov_q, ks_uniform
from ubenford.transforms import (IDENTITY, LOG2, LOG10, LOGLOG, PI_SQUARE,
                                 SQRT, _Certifier)


# ---------------------------------------------------------------------------
# sequence table

def test_table1_grid_shape_and_order():
    rep = run_table1(n_fast=50, n_slow=50)
    assert len(rep.cells) == 24
    assert len(rep.reruns) == 2
    sequences = [c.sequence for c in rep.cells[::4]]
    assert sequences == ["sqrt_n", "pi_n", "primes",
                         "exp_n", "factorial", "n_pow_n"]
    for i, cell in enumerate(rep.cells):
        assert cell.transform == TABLE1_TRANSFORMS[i % 4].label()
    assert rep.reruns[0].sequence == "n_pow_n_odd_nonsquare"
    assert rep.reruns[0].transform == "sqrt"
    assert rep.reruns[1].sequence == "power_law(1/pi)"
    assert rep.reruns[1].transform == "identity"


def test_table1_degraded_scale_still_valid():
    # contract: N=100 completes and every cell carries a real p value
    rep = run_table1(n_fast=100, n_slow=100)
    for cell in rep.cells + rep.reruns:
        assert 0.0 <= cell.p <= 1.0
        assert cell.z >= 0.0
        assert cell.n_used + cell.excluded == cell.n_requested
        assert cell.n_used > 0


def test_table1_loglog_excludes_unit_terms():
    rep = run_table1(n_fast=100, n_slow=100)
    excluded = {(c.sequence, c.transform): c.excluded
                for c in rep.cells if c.excluded}
    # x_1 = 1 falls outside the iterated log for exactly these rows
    assert excluded == {("sqrt_n", "loglog"): 1,
                        ("factorial", "loglog"): 1,
                        ("n_pow_n", "loglog"): 1}


# values produced by this driver at N=100 and frozen; the KS machinery
# they rest on has independent anchors in test_stats.py
TABLE1_FROZEN_N100 = [
    (0, "sqrt_n", "loglog", 99, 6.24976102349446, 2.36792641259455e-34),
    (5, "pi_n", "log10", 100, 2.7285012730586615, 6.833277572717187e-07),
    (14, "exp_n", "sqrt", 100, 1.267853027900011, 0.08031328820902876),
    (23, "n_pow_n", "pi_square", 100, 0.8685391575147294,
     0.43760058793950496),
]


@pytest.mark.parametrize("idx,seq,transform,n_used,z,p", TABLE1_FROZEN_N100)
def test_table1_frozen_cells(idx, seq, transform, n_used, z, p):
    rep = run_table1(n_fast=100, n_slow=100)
    cell = rep.cells[idx]
    assert (cell.sequence, cell.transform, cell.n_used) == \
        (seq, transform, n_used)
    assert cell.z == pytest.approx(z, rel=1e-12)
    assert cell.p == pytest.approx(p, rel=1e-9)


def test_table1_frozen_reruns():
    rep = run_table1(n_fast=100, n_slow=100)
    odd, power = rep.reruns
    assert odd.n_used == 45  # 50 odd indices minus the 5 odd squares
    assert odd.z == pytest.approx(0.5469801848883515, rel=1e-12)
    assert odd.p == pytest.approx(0.9258172915985452, rel=1e-12)
    assert power.n_used == 100
    assert power.z == pytest.approx(1.0475889645525123, rel=1e-12)
    assert power.p == pytest.approx(0.22243498311892063, rel=1e-12)


def test_table1_worker_count_does_not_change_output():
    serial = emit(run_table1(n_fast=60, n_slow=60, workers=1),
                  "structured-record")
    pooled = emit(run_table1(n_fast=60, n_slow=60, workers=2),
                  "structured-record")
    assert serial == pooled


def test_table1_pool_never_exceeds_the_cell_count(monkeypatch):
    # a pool forks all its workers at the first submit, so the request is
    # clamped before the pool exists; the fake runs the cells inline
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    serial = emit(run_table1(n_fast=20, n_slow=20), "structured-record")
    huge = emit(run_table1(n_fast=20, n_slow=20, workers=10000),
                "structured-record")
    run_table1(n_fast=20, n_slow=20, workers=3)
    assert sizes == [26, 3]  # 24 cells plus the two reruns
    assert huge == serial


def test_table1_cell_lookup():
    # each (sequence, transform) names one cell, so a dict looks it up
    rep = run_table1(n_fast=50, n_slow=50)
    cells = {(c.sequence, c.transform): c for c in rep.cells}
    assert len(cells) == len(rep.cells)
    cell = cells["primes", "sqrt"]
    assert cell.sequence == "primes" and cell.transform == "sqrt"
    assert ("primes", "identity") not in cells


@pytest.mark.parametrize("kwargs", [
    {"n_fast": 1}, {"n_slow": 0}, {"workers": 0}, {"workers": 1.5},
    {"n_fast": 2.5},
])
def test_table1_rejects_bad_config(kwargs):
    with pytest.raises(InvalidParameter):
        run_table1(**{"n_fast": 50, "n_slow": 50, **kwargs})


def test_ks_cell_filter_and_label():
    cell = ks_cell("sqrt_n", SQRT, 100, index_filter=odd_nonsquare,
                   label="restriction")
    assert cell.sequence == "restriction"
    assert cell.n_used == 45
    # accepts a live sequence object as well as a registry name
    direct = ks_cell(parse_sequence("sqrt_n"), SQRT, 100,
                     index_filter=odd_nonsquare)
    assert direct.z == cell.z
    with pytest.raises(InvalidParameter, match="got 5"):
        ks_cell(5, SQRT, 100)


@pytest.mark.parametrize("args, kwargs, message", [
    (("sqrt_n", LOGLOG, 1), {},
     "sqrt_n: no term of the first 1 is left to test under loglog "
     "(1 requested, 1 outside its domain)"),
    (("n_pow_n", SQRT, 2), {"index_filter": odd_nonsquare, "label": "odd"},
     "odd: no term of the first 2 is left to test under sqrt "
     "(0 requested, 0 outside its domain)"),
])
def test_ks_cell_with_no_term_names_the_cell(args, kwargs, message):
    # both ended in "KS statistic of an empty sample", naming no cell
    with pytest.raises(EmptySample) as info:
        ks_cell(*args, **kwargs)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# limit table

def test_table3_limit_verdicts():
    rep = run_table3(seed=0)
    assert [c.verdict for c in rep.uniform_row] == ["NO", "YES", "YES"]
    assert [c.verdict for c in rep.exponential_row] == ["YES", "YES", "YES"]
    for row in (rep.uniform_row, rep.exponential_row):
        assert [c.transform for c in row] == \
            [t.label() for t in TABLE3_TRANSFORMS]
        for cell in row:
            assert len(cell.path) == 3
            assert cell.defect == cell.path[-1][1]
            expected = "cell-gap" if cell.transform == "pi_square" \
                else "mod1-sup"
            assert cell.route == expected


def test_table3_frozen_defects():
    rep = run_table3(seed=0)
    defects = {(row, c.transform): c.defect
               for row, cells in (("uniform", rep.uniform_row),
                                  ("exponential", rep.exponential_row))
               for c in cells}
    assert defects[("uniform", "log10")] == \
        pytest.approx(0.2688433890838233, rel=1e-9)
    assert defects[("uniform", "sqrt")] == \
        pytest.approx(2.5e-4, rel=1e-6)
    assert defects[("uniform", "pi_square")] == \
        pytest.approx(0.0001699591251236865, rel=1e-9)
    assert defects[("exponential", "log10")] == \
        pytest.approx(0.030532973494515614, rel=1e-9)
    assert defects[("exponential", "sqrt")] == \
        pytest.approx(0.000160615702102046, rel=1e-9)
    assert defects[("exponential", "pi_square")] == \
        pytest.approx(0.00016994370120082536, rel=1e-9)


def test_table3_defects_shrink_along_path():
    rep = run_table3(seed=0)
    for row in (rep.uniform_row, rep.exponential_row):
        for cell in row:
            if cell.transform == "log10":
                continue  # constant defect: the family is scale-periodic
            values = [v for _, v in cell.path]
            assert values == sorted(values, reverse=True)


def test_table3_sampled_row_frozen_at_seed_zero():
    # the KS z of the mpmath fractions of the same 2,000 draws, and
    # Q(z) for pi*x**2
    rep = run_table3(seed=0)
    log10_cell, sqrt_cell, pi_cell = rep.half_normal_row
    assert log10_cell.z == pytest.approx(3.0138382278317097, rel=1e-12)
    assert log10_cell.verdict == "rejected"
    assert sqrt_cell.z == pytest.approx(1.345778172268585, rel=1e-12)
    assert sqrt_cell.verdict == "not rejected"
    assert pi_cell.z == pytest.approx(0.6957351354046326, rel=1e-12)
    assert pi_cell.p == pytest.approx(0.7183228739635867, rel=1e-12)
    assert pi_cell.verdict == "not rejected"


def _mp_frac(x, transform):
    """{u(x)} of a double x in mpmath, 60 digits past u's integer part."""
    x = mpmath.mpf(x)
    lg = abs(math.log10(x)) if x else 0.0
    with mpmath.workdps(60 + int(2 * lg + 1)):
        if transform == "log10":
            u = mpmath.log10(x)
        elif transform == "sqrt":
            u = mpmath.sqrt(x)
        else:
            u = mpmath.pi * x * x
        return float(u - mpmath.floor(u))


@pytest.mark.parametrize("sigma", [1e4, 1e7, 1e300])
def test_table3_sampled_row_matches_mpmath_fractions(sigma):
    # the sampled row used to push the draws through u in doubles: at
    # sigma = 1e7 pi*x**2 keeps no fractional digits and was rejected
    # (z = 2.33), at 1e300 it overflowed to z = nan. The table samples at
    # its own sigma; the row's cells at the others come from sample_cell
    xs = HalfNormal(sigma).sample(2000, 0)
    row = run_table3(seed=0).half_normal_row if sigma == TABLE3_SIGMA \
        else tuple(sample_cell(xs, t) for t in TABLE3_TRANSFORMS)
    for cell in row:
        _, z = ks_uniform([_mp_frac(float(v), cell.transform) for v in xs])
        assert abs(cell.z - z) <= 1e-12, (sigma, cell.transform)
        assert cell.p == kolmogorov_q(cell.z)
    if sigma == 1e7:
        assert row[2].verdict == "not rejected"


def test_table3_seed_changes_sample_not_limits():
    a = run_table3(seed=1)
    b = run_table3(seed=2)
    assert [c.z for c in a.half_normal_row] != \
        [c.z for c in b.half_normal_row]
    assert [c.defect for c in a.uniform_row] == \
        [c.defect for c in b.uniform_row]
    again = run_table3(seed=1)
    assert [c.z for c in again.half_normal_row] == \
        [c.z for c in a.half_normal_row]


def test_table3_rejects_tiny_sample():
    with pytest.raises(InvalidParameter):
        run_table3(seed=0, sample_size=1)
    with pytest.raises(InvalidParameter, match="sample_size .* got 2.5"):
        run_table3(seed=0, sample_size=2.5)
    # a seed is an integer, never rounded from a float
    for seed in (1.5, 1.0):
        with pytest.raises(InvalidParameter, match=f"seed .* got {seed}"):
            run_table3(seed=seed)


def test_sample_cell_verdict_thresholds():
    # an equidistributed comb is accepted, a clustered one rejected
    accepted = sample_cell((np.linspace(0.0005, 0.9995, 2000) + 7.0) ** 2,
                           SQRT)
    assert accepted.verdict == "not rejected"
    clustered = sample_cell(np.full(400, 123.456), SQRT)
    assert clustered.verdict == "rejected"


def test_sample_cell_uses_each_transforms_own_map():
    xs = HalfNormal(1e4).sample(2000, 0)
    cell = sample_cell(xs, LOG2)
    _, z = ks_uniform(np.mod(np.log2(xs), 1.0))
    assert cell.transform == "log2"
    assert cell.z == pytest.approx(z, rel=1e-9)
    _, z = ks_uniform(np.mod(xs, 1.0))
    assert sample_cell(xs, IDENTITY).z == z
    with pytest.raises(DomainError):
        sample_cell(np.array([0.5, 2.0, 30.0]), LOGLOG)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sample_cell_refuses_non_finite_values(bad):
    with pytest.raises(InvalidParameter, match=f"sample value {bad} is not "
                                               "finite"):
        sample_cell(np.array([2.0, bad, 3.0, math.inf]), SQRT)


# ---------------------------------------------------------------------------
# bound sweeps

def test_bound_sweep_pareto_path():
    rep = bound_sweep("pareto_i", (0.5, 0.1, 0.05, 0.01), LOG10)
    assert rep.certificate == "log-scale-density-bound"
    assert rep.transform == "log10"
    for row, alpha in zip(rep.rows, (0.5, 0.1, 0.05, 0.01)):
        assert row.bound == pytest.approx(2 * math.log(10) * alpha,
                                          rel=1e-12)
        assert row.slack > 0.0
    discrepancies = [r.discrepancy for r in rep.rows]
    assert discrepancies == sorted(discrepancies, reverse=True)


def test_bound_sweep_uniform_sqrt_certificate():
    rep = bound_sweep("uniform", (100.0, 10000.0), SQRT)
    assert rep.certificate == "u-scale-density-bound"
    assert rep.rows[0].bound == pytest.approx(0.4, rel=1e-12)
    assert rep.rows[0].ratio_sup == pytest.approx(0.2, rel=1e-12)
    assert rep.rows[1].discrepancy == pytest.approx(2.5e-3, rel=1e-6)


def test_bound_sweep_input_errors():
    with pytest.raises(InvalidParameter):
        bound_sweep("pareto_i", (), LOG10)
    with pytest.raises(InvalidParameter):
        bound_sweep("no_such_family", (1.0,), LOG10)
    with pytest.raises(NotUnimodal):
        bound_sweep("uniform", (10.0,), PI_SQUARE)
    # one string is not a path of points
    with pytest.raises(InvalidParameter, match="params .* got '12'"):
        bound_sweep("uniform", "12", LOG10)


# ---------------------------------------------------------------------------
# cell-probability curves

def test_pdelta_curve_uniform_frozen():
    rep = pdelta_curve("uniform", 100.0, deltas=(0.25, 0.5, 0.75))
    assert rep.family == "uniform" and rep.parameter == 100.0
    probs = [r.probability for r in rep.rows]
    assert probs[0] == pytest.approx(0.2516812614288789, rel=1e-12)
    assert probs[1] == pytest.approx(0.5015149939812817, rel=1e-12)
    assert probs[2] == pytest.approx(0.7509055783232349, rel=1e-12)
    for row in rep.rows:
        assert row.lower <= row.probability <= row.upper
        assert row.gap == abs(row.probability - row.delta)
    # numeric text reads as the number it spells
    assert pdelta_curve("uniform", "100", deltas=("0.25", "0.5", "0.75")) \
        == rep


def test_pdelta_curve_default_grid():
    rep = pdelta_curve("exponential", 0.5)
    assert [r.delta for r in rep.rows] == list(DELTA_GRID)
    for row in rep.rows:
        assert row.lower - 1e-9 <= row.probability <= row.upper + 1e-9


def test_pdelta_curve_huge_rate_prints_no_warning():
    # -mu*sqrt(j) overflows to -inf, whose exp is the 0 the series wants
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = pdelta_curve("exponential", 1e308)
    assert [r.probability for r in rep.rows] == [1.0] * len(DELTA_GRID)


def test_pdelta_curve_envelope_breach_raises(monkeypatch):
    # the series check their own values against the envelope
    import ubenford.bounds as bounds
    monkeypatch.setattr(bounds, "p_delta_uniform_envelope",
                        lambda k, d: (0.90, 0.91))
    with pytest.raises(CertificateViolation):
        pdelta_curve("uniform", 100.0, deltas=(0.5,))


@pytest.mark.parametrize("family, parameter, delta", [
    # the series reads 1.0000000005969432, 6e-10 past the upper end 1.0
    ("exponential", 1e-3, 1 - 5e-10),
    # the series reads 6.6e-12 past the upper end 9.8656e-9
    ("uniform", 577.73, 1e-10),
])
def test_pdelta_curve_rows_lie_in_their_envelope(family, parameter, delta):
    # within the series' 1e-9 slack its value passes the envelope, and
    # the row reports the nearest envelope point instead
    from ubenford.bounds import p_delta_exponential, p_delta_uniform
    series = {"uniform": p_delta_uniform,
              "exponential": p_delta_exponential}[family]
    raw = series(parameter, [delta])[0]
    row, = pdelta_curve(family, parameter, deltas=[delta]).rows
    assert raw > row.upper
    assert row.probability == row.upper
    assert row.gap == abs(row.upper - delta)


def test_exponential_series_returns_its_raw_value():
    from ubenford.bounds import p_delta_exponential
    assert p_delta_exponential(1e-3, [1 - 5e-10]) == [1.0000000005969432]


def test_curves_call_the_public_series(monkeypatch):
    # perfbench's tracer times the series where a module binds their
    # public names; pdelta_curve, and table3 through it, call those
    import ubenford.experiments as exp
    calls = dict.fromkeys(("p_delta_uniform", "p_delta_exponential"), 0)

    def counted(name, series):
        def call(*args):
            calls[name] += 1
            return series(*args)
        return call

    for name in calls:
        monkeypatch.setattr(exp, name, counted(name, getattr(exp, name)),
                            raising=True)
    pdelta_curve("uniform", 10.0)
    pdelta_curve("exponential", 0.5)
    assert calls == {"p_delta_uniform": 1, "p_delta_exponential": 1}
    run_table3()
    assert calls == {"p_delta_uniform": 4, "p_delta_exponential": 4}


@pytest.mark.parametrize("family,param,deltas", [
    ("normalish", 1.0, None),
    ("uniform", 100.0, (0.0,)),
    ("uniform", 100.0, (1.0,)),
    ("exponential", 1.0, (-0.5,)),
    ("uniform", -5.0, None),
    ("exponential", math.nan, None),
    ("uniform", math.inf, None),
    ("uniform", 10.0, "0.5"),
    ("uniform", 10.0, []),
])
def test_pdelta_curve_input_errors(family, param, deltas):
    with pytest.raises(InvalidParameter):
        pdelta_curve(family, param, deltas=deltas)


# ---------------------------------------------------------------------------
# dataset analysis

def _dataset(values, name="synthetic"):
    return Dataset(name=name, path=f"{name}.csv", column=1,
                   values=np.asarray(values, dtype=np.float64),
                   raw_rows=len(values), had_header=False,
                   dropped_non_numeric=0, dropped_non_positive=0)


def test_analyze_dataset_conforming_sample():
    rep = analyze_dataset(_dataset([2.0 ** n for n in range(1, 121)]))
    assert rep.verdict == "consistent"
    assert rep.p > 0.2
    assert rep.digits.verdict == "consistent"
    assert rep.sample_size == 120 and rep.dropped == 0
    assert rep.transform == "log10"
    assert list(rep.fracs) == sorted(rep.fracs)
    assert len(rep.fracs) == 120


def test_analyze_dataset_clustered_sample_rejected():
    rep = analyze_dataset(_dataset([5.0 + 0.001 * i for i in range(300)]))
    assert rep.verdict == "inconsistent"
    assert rep.p < 1e-6
    assert rep.digits.verdict == "inconsistent"


def test_analyze_dataset_small_sample_digit_verdict_suppressed():
    rep = analyze_dataset(_dataset([2.0 ** n for n in range(1, 51)]))
    assert rep.digits.p_value is None
    assert rep.digits.verdict == "insufficient-sample"


def test_analyze_dataset_certified_fracs_match_direct_floats():
    # moderate magnitudes: the double-precision route is itself exact
    # enough here, so the certified path must agree with it closely
    values = [3.7 + 11.3 * i for i in range(1, 40)]
    rep = analyze_dataset(_dataset(values), transform=PI_SQUARE)
    direct = np.sort(np.mod(np.pi * np.square(values), 1.0))
    assert np.max(np.abs(np.asarray(rep.fracs) - direct)) < 1e-9


def test_analyze_dataset_large_values_keep_certified_fracs():
    # pi*x**2 of ~1e12 entries: naive doubles carry ~1e-4 frac error, so
    # sanity there is only possible through the certified route; confirm
    # analyze feeds values through it unchanged (eval_transform itself is
    # oracle-tested in test_transforms.py)
    values = [float(10 ** 12 + k) for k in range(1, 30)]
    rep = analyze_dataset(_dataset(values), transform=PI_SQUARE)
    assert all(0.0 <= u < 1.0 for u in rep.fracs)
    from ubenford.bigreal import BigReal
    from ubenford.transforms import eval_transform
    expected = sorted(
        eval_transform(BigReal.from_float(v), PI_SQUARE).frac()
        for v in values)
    assert list(rep.fracs) == expected


def test_analyze_dataset_alpha_validation():
    with pytest.raises(InvalidParameter):
        analyze_dataset(_dataset([1.0, 2.0]), alpha=0.0)
    with pytest.raises(InvalidParameter):
        analyze_dataset(_dataset([1.0, 2.0]), alpha=1.0)
    with pytest.raises(InvalidParameter, match="got 10.5"):
        analyze_dataset(_dataset([1.0, 2.0]), base=10.5)


def _one_by_one(values, transform, policy=DEFAULT_POLICY):
    """{u(x)} one certify call per value, out-of-domain values counted:
    the route analyze_dataset and sample_cell took before the quick
    phase."""
    certifier = _Certifier(transform, policy)
    fracs, outside = [], 0
    for v in values:
        try:
            fracs.append(certifier.frac(BigReal.from_float(v)))
        except DomainError:
            outside += 1
    return fracs, outside


def test_sample_cell_and_analyze_dataset_refuse_as_before():
    with pytest.raises(InvalidParameter,
                       match=r"^sample value nan is not finite$"):
        sample_cell(np.array([2.0, math.nan, -1.0]), LOG10)
    for bad in (0.0, -0.0, -3.5):
        with pytest.raises(DomainError, match=r"^log10 requires x > 0$"):
            sample_cell(np.array([2.0, 3.0, bad, 4.0, -1.0]), LOG10)
    with pytest.raises(EmptySample,
                       match=r"^KS statistic of an empty sample$"):
        sample_cell(np.array([]), LOG10)
    # analyze_dataset counts the values outside the domain (its values
    # are positive: the digit table refuses the rest)
    values = [0.5, 1.0, 2.0, 5.0, 1e300]
    for t, dropped in ((LOG10, 0), (LOGLOG, 2)):
        rep = analyze_dataset(_dataset(values), transform=t)
        fracs, outside = _one_by_one(values, t)
        assert (rep.dropped, rep.fracs) == (dropped, tuple(sorted(fracs)))
        assert outside == dropped
    with pytest.raises(EmptySample, match=re.escape(
            "synthetic: no value lies in the domain of loglog (3 rows "
            "dropped, 3 of them outside that domain)")):
        analyze_dataset(_dataset([0.5, 1.0, 1e-300]), transform=LOGLOG)


def test_analyze_dataset_past_80_agreement_bits_certifies_each_value():
    # 30 digits are 100 bits, so no value takes the quick phase and the
    # result is the one-by-one route's
    policy = PrecisionPolicy(agreement=30)
    values = HalfNormal(1e4).sample(300, 5)
    for t in (LOG10, SQRT, PI_SQUARE):
        assert _Certifier(t, policy)._quick_width is None
        rep = analyze_dataset(_dataset(values), transform=t, policy=policy)
        fracs, _ = _one_by_one(values.tolist(), t, policy)
        assert rep.fracs == tuple(sorted(fracs))
        assert (rep.ks_statistic, rep.z) == ks_uniform(fracs)
        # and the default policy's quick doubles are the certifier's
        rep = analyze_dataset(_dataset(values), transform=t)
        assert rep.fracs == tuple(sorted(_one_by_one(values.tolist(), t)[0]))
