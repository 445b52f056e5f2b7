"""Rendering: layout of text tables, stable structured records, plot rows."""

import json
import math

import pytest

from ubenford.bounds import certify_mod1_bound, mod1_law
from ubenford.distributions import Exponential, ParetoI
from ubenford.errors import InvalidParameter
from ubenford.bounds import Mod1Result
from ubenford.experiments import (AnalyzeReport, BoundSweepReport, KsCell,
                                  LimitCell, SweepRow, Table1Report,
                                  Table3Report, analyze_dataset, bound_sweep,
                                  pdelta_curve, run_table3)
from ubenford.ingest import Dataset
from ubenford.report import _jsonable, emit
from ubenford.stats import DigitReport
from ubenford.transforms import LOG10, SQRT

import numpy as np


def _cell(sequence, transform, z, p, n=100, excluded=0):
    return KsCell(sequence=sequence, transform=transform, n_requested=n,
                  n_used=n - excluded, excluded=excluded,
                  statistic=z / n ** 0.5, z=z, p=p)


def _tiny_table1():
    cells = tuple(
        _cell("sqrt_n", t, z, p, excluded=1 if t == "loglog" else 0)
        for t, z, p in (("loglog", 68.92, 0.0), ("log10", 45.9, 0.0),
                        ("sqrt", 4.97, 0.0), ("pi_square", 0.66, 0.78)))
    reruns = (_cell("n_pow_n_odd_nonsquare", "sqrt", 0.45, 0.988, n=484),
              _cell("power_law(1/pi)", "identity", 1.33, 0.059, n=1000))
    return Table1Report(n_fast=100, n_slow=100, cells=cells, reruns=reruns)


# ---------------------------------------------------------------------------
# text tables

def test_text_table1_layout():
    text = emit(_tiny_table1(), "text-table")
    lines = text.splitlines()
    assert lines[0].split() == ["sequence", "loglog", "log10", "sqrt",
                                "pi_square"]
    assert "sqrt_n (N=100)" in lines[2]
    # published style: z to two decimals, p without its leading zero
    assert "0.66 (.780)" in lines[2]
    assert "68.92 (.000)" in lines[2]
    assert any("follow-up runs:" in ln for ln in lines)
    assert any("n_pow_n_odd_nonsquare under sqrt (N=484): 0.45 (.988)"
               in ln for ln in lines)
    assert any("excluded terms" in ln and "sqrt_n/loglog: 1" in ln
               for ln in lines)


def test_text_p_format_keeps_unit_probability():
    text = emit(_tiny_table1(), "text-table")
    assert "(.000)" in text
    rerun_text = emit(Table1Report(
        n_fast=2, n_slow=2,
        cells=tuple(_cell("pi_n", t, 0.19, 1.0)
                    for t in ("loglog", "log10", "sqrt", "pi_square")),
        reruns=()), "text-table")
    assert "0.19 (1.000)" in rerun_text


def test_text_table3_layout():
    text = emit(run_table3(seed=0), "text-table")
    lines = text.splitlines()
    assert lines[0].split() == ["family", "log10", "sqrt", "pi_square"]
    assert any(ln.startswith("uniform on (0, k]") and ln.count("YES") == 2
               and "NO" in ln for ln in lines)
    assert any(ln.startswith("exponential") and ln.count("YES") == 3
               for ln in lines)
    assert any("half_normal sigma=10000 (N=2000, seed=0)" in ln
               and "rejected" in ln for ln in lines)


def test_text_sweep_and_pdelta_and_law():
    sweep = emit(bound_sweep("pareto_i", (0.5, 0.1), LOG10), "text-table")
    assert "log-scale-density-bound" in sweep
    assert "parameter" in sweep and "discrepancy" in sweep

    curve = emit(pdelta_curve("uniform", 100.0, deltas=(0.5,)),
                 "text-table")
    assert "uniform (parameter 100)" in curve
    assert "0.501514994" in curve

    law = emit(mod1_law(ParetoI(1.0, 1.0), LOG10), "text-table")
    assert "sup |P - z|" in law

    cert = emit(certify_mod1_bound(ParetoI(1.0, 1.0), LOG10), "text-table")
    assert "<= bound" in cert and "slack" in cert


@pytest.mark.parametrize("discrepancy,budget,shown", [
    (1.44329e-15, 7.8e-14, "<7.8e-14"),
    (7.8e-14, 7.8e-14, "7.8e-14"),
    (0.0123456789, 1e-13, "0.0123457"),
])
def test_text_sweep_prints_discrepancy_above_its_budget(discrepancy, budget,
                                                        shown):
    # digits below the certificate's error budget are rounding; the record
    # keeps the float either way
    row = SweepRow(parameter=2.0, ratio_sup=0.5, bound=0.25,
                   discrepancy=discrepancy, worst_z=0.5,
                   slack=0.25 - discrepancy, error_budget=budget)
    rep = BoundSweepReport(family="lognormal10", transform="log10",
                           certificate="log-scale-density-bound",
                           rows=(row,))
    assert emit(rep, "text-table").splitlines()[3].split()[3] == shown
    body = json.loads(emit(rep, "structured-record"))
    assert body["rows"][0]["discrepancy"] == discrepancy
    assert body["rows"][0]["error_budget"] == budget


def test_text_analyze_both_digit_branches():
    big = Dataset(name="big", path="big.csv", column=1,
                  values=np.array([2.0 ** n for n in range(1, 121)]),
                  raw_rows=120, had_header=False,
                  dropped_non_numeric=0, dropped_non_positive=0)
    text = emit(analyze_dataset(big), "text-table")
    assert "dataset: big (N=120, 0 rows dropped)" in text
    assert "chi2=" in text and "digit" in text

    small = Dataset(name="small", path="small.csv", column=1,
                    values=np.array([2.0 ** n for n in range(1, 31)]),
                    raw_rows=30, had_header=False,
                    dropped_non_numeric=0, dropped_non_positive=0)
    text = emit(analyze_dataset(small), "text-table")
    assert "smallest expected cell below 5" in text


# ---------------------------------------------------------------------------
# structured records

def test_record_is_sorted_json_with_kind():
    rep = bound_sweep("pareto_i", (0.5, 0.1), LOG10)
    text = emit(rep, "structured-record")
    body = json.loads(text)
    assert body["kind"] == "bound-sweep"
    assert list(body) == sorted(body)
    assert body["certificate"] == "log-scale-density-bound"
    assert len(body["rows"]) == 2
    assert set(body["rows"][0]) == {"parameter", "ratio_sup", "bound",
                                    "discrepancy", "worst_z", "slack",
                                    "error_budget"}


@pytest.mark.parametrize("make,kind", [
    (lambda: _tiny_table1(), "sequence-table"),
    (lambda: run_table3(seed=0), "rv-table"),
    (lambda: pdelta_curve("uniform", 5.0, deltas=(0.5,)), "pdelta-curve"),
    (lambda: mod1_law(Exponential(1.0), SQRT), "mod1-law"),
    (lambda: certify_mod1_bound(Exponential(1.0), SQRT),
     "bound-certificate"),
])
def test_record_kinds_and_byte_stability(make, kind):
    first = emit(make(), "structured-record")
    second = emit(make(), "structured-record")
    assert first == second
    body = json.loads(first)
    assert body["kind"] == kind
    assert first.endswith("\n")


def test_record_certificate_carries_bound_fields():
    cert = certify_mod1_bound(ParetoI(0.5, 1.0), LOG10)
    body = json.loads(emit(cert, "structured-record"))
    assert {"bound", "discrepancy", "slack", "worst_z", "cells",
            "error_budget", "kind"} <= set(body)
    assert body["discrepancy"] <= body["bound"]


def test_record_analyze_nests_digit_report():
    ds = Dataset(name="d", path="d.csv", column=1,
                 values=np.array([2.0 ** n for n in range(1, 121)]),
                 raw_rows=120, had_header=False,
                 dropped_non_numeric=0, dropped_non_positive=0)
    body = json.loads(emit(analyze_dataset(ds), "structured-record"))
    assert body["kind"] == "data-table"
    assert body["digits"]["base"] == 10
    assert len(body["digits"]["counts"]) == 9
    assert len(body["fracs"]) == 120


_EDGES = (math.nan, math.inf, -math.inf, -0.0, 5e-324,
          1.7976931348623157e308, 0.1, 1.0)


def _analyze_report(fracs, expected, name="d"):
    digits = DigitReport(base=10, counts=np.arange(9),
                         expected=np.asarray(expected, dtype=np.float64),
                         sample_size=9, chi2=math.nan, dof=8, p_value=None,
                         alpha=0.05, verdict="too few values")
    return AnalyzeReport(dataset=name, sample_size=len(fracs), dropped=0,
                         transform="log10", base=10, alpha=0.05,
                         digits=digits, ks_statistic=0.5, z=-0.0, p=math.inf,
                         verdict="consistent", fracs=tuple(fracs))


def _dataset(n):
    return Dataset(name="d", path="d.csv", column=1,
                   values=np.array([2.0 ** k for k in range(1, n + 1)]),
                   raw_rows=n, had_header=False, dropped_non_numeric=0,
                   dropped_non_positive=0)


@pytest.mark.parametrize("make", [
    # every report kind, as computed
    _tiny_table1,
    lambda: run_table3(seed=0),
    lambda: bound_sweep("lognormal10", ((0.0, 2.0), (0.0, 3.0)), LOG10),
    lambda: pdelta_curve("uniform", 5.0, deltas=(0.5,)),
    lambda: analyze_dataset(_dataset(120)),
    lambda: mod1_law(Exponential(1.0), SQRT),
    lambda: certify_mod1_bound(Exponential(1.0), SQRT),
    # float blocks at the edges of the doubles, empty, of one float, and
    # of floats mixed with other values
    lambda: _analyze_report(_EDGES, _EDGES[::-1] + (2.5,)),
    lambda: _analyze_report((), ()),
    lambda: _analyze_report((0.25,), (math.nan,)),
    lambda: _analyze_report((0.5, 1, None, 0.25), [1.5, 2.0]),
    # nested float blocks: pairs inside a tuple, tuples as parameters
    lambda: Table3Report(
        seed=1, sigma=math.inf, sample_size=0,
        uniform_row=(LimitCell(transform="log10", route="mod1-sup",
                               path=((1.0, math.nan), (math.inf, -0.0), ()),
                               defect=5e-324, verdict="YES"),),
        exponential_row=(), half_normal_row=()),
    lambda: BoundSweepReport(family="f", transform="sqrt", certificate="c",
                             rows=(SweepRow(parameter=(-0.0, math.inf),
                                            ratio_sup=math.nan, bound=1.0,
                                            discrepancy=0.0, worst_z=0.5,
                                            slack=1.0, error_budget=0.0),)),
    lambda: Mod1Result(zs=np.array(_EDGES), probs=np.array([]),
                       discrepancy=math.nan, worst_z=0.0, cells=0,
                       error_budget=0.0),
    # a string that could pass for a placeholder
    lambda: _analyze_report((0.5, 0.75), (1.0,), name="\0float block 0"),
], ids=["sequence-table", "rv-table", "bound-sweep", "pdelta-curve",
        "data-table", "mod1-law", "bound-certificate", "edge-floats",
        "empty", "one-float", "mixed", "nested-path", "tuple-parameter",
        "float-arrays", "placeholder-name"])
def test_record_is_the_indented_dump_of_its_tree(make):
    report = make()
    text = emit(report, "structured-record")
    kind = json.loads(text)["kind"]
    want = json.dumps({"kind": kind, **_jsonable(report)},
                      sort_keys=True, indent=2) + "\n"
    # reports the first line that differs: pytest's diff of two texts
    # this long takes minutes
    same = text == want
    assert same, next((i, a, b) for i, (a, b) in enumerate(
        zip(text.splitlines() + [None], want.splitlines() + [None]))
        if a != b)


# ---------------------------------------------------------------------------
# plot points

def test_mod1_plot_points_default_grid_is_1024_rows():
    res = mod1_law(ParetoI(1.0, 1.0), LOG10)
    text = emit(res, "plot-points")
    lines = text.splitlines()
    assert len(lines) == 1024
    assert lines[0] == "0,0"
    zs = [float(ln.split(",")[0]) for ln in lines]
    assert zs == [k / 1024 for k in range(1024)]
    probs = [float(ln.split(",")[1]) for ln in lines]
    assert probs == sorted(probs)  # a cdf in z never decreases


def test_plot_points_other_reports():
    curve = emit(pdelta_curve("uniform", 5.0, deltas=(0.25, 0.75)),
                 "plot-points")
    assert len(curve.splitlines()) == 2
    assert curve.startswith("0.25,")

    sweep = emit(bound_sweep("pareto_i", (0.5, 0.1), LOG10), "plot-points")
    rows = [ln.split(",") for ln in sweep.splitlines()]
    assert [r[0] for r in rows] == ["0.5", "0.1"]
    assert all(len(r) == 3 for r in rows)

    ds = Dataset(name="d", path="d.csv", column=1,
                 values=np.array([1.5, 2.5, 3.5, 4.5]),
                 raw_rows=4, had_header=False,
                 dropped_non_numeric=0, dropped_non_positive=0)
    ecdf = emit(analyze_dataset(ds), "plot-points")
    lines = [ln.split(",") for ln in ecdf.splitlines()]
    assert [float(b) for _, b in lines] == [0.25, 0.5, 0.75, 1.0]
    us = [float(a) for a, _ in lines]
    assert us == sorted(us)


def test_plot_points_rejected_for_tabular_reports():
    with pytest.raises(InvalidParameter):
        emit(_tiny_table1(), "plot-points")
    with pytest.raises(InvalidParameter):
        emit(run_table3(seed=0), "plot-points")


# ---------------------------------------------------------------------------
# dispatch

def test_unknown_format_and_type_rejected():
    with pytest.raises(InvalidParameter):
        emit(_tiny_table1(), "csv")
    with pytest.raises(InvalidParameter):
        emit(object(), "text-table")

