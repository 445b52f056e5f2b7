"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pinned import assert_pinned
from ubenford.cli import main

_DATA = Path(__file__).resolve().parents[1] / "data"
FIXTURES = {
    "powers": str(_DATA / "powers_of_two.csv"),
    "noise": str(_DATA / "uniform_noise.csv"),
    "growth": str(_DATA / "compound_growth.csv"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths

def test_table1_degraded_run(capsys):
    code, out, err = run(capsys, "table1", "--n", "100")
    assert code == 0 and err == ""
    assert out.splitlines()[0].split() == ["sequence", "loglog", "log10",
                                           "sqrt", "pi_square"]
    assert "follow-up runs:" in out


def test_table1_workers_flag_is_invisible_in_output(capsys):
    code, serial, _ = run(capsys, "table1", "--n", "60",
                          "--format", "structured-record")
    assert code == 0
    code, pooled, _ = run(capsys, "table1", "--n", "60", "--workers", "2",
                          "--format", "structured-record")
    assert code == 0
    assert serial == pooled


def test_table3_seeded_and_deterministic(capsys):
    code, first, err = run(capsys, "table3", "--seed", "11",
                           "--format", "structured-record")
    assert code == 0 and err == ""
    code, second, _ = run(capsys, "table3", "--seed", "11",
                          "--format", "structured-record")
    assert first == second
    code, other, _ = run(capsys, "table3", "--seed", "12",
                         "--format", "structured-record")
    assert other != first
    body = json.loads(first)
    assert body["kind"] == "rv-table"
    assert [c["verdict"] for c in body["uniform_row"]] == \
        ["NO", "YES", "YES"]
    assert [c["verdict"] for c in body["exponential_row"]] == \
        ["YES", "YES", "YES"]


def test_table3_text_bytes_are_pinned(capsys):
    # CI compares the console script's output with the same file
    code, out, err = run(capsys, "table3")
    assert (code, err) == (0, "")
    assert_pinned(out, "table3.txt")


def test_bounds_text_and_plot(capsys):
    code, out, _ = run(capsys, "bounds", "pareto_i",
                       "--params", "0.5,0.1,0.05,0.01")
    assert code == 0
    assert "log-scale-density-bound" in out

    code, out, _ = run(capsys, "bounds", "uniform", "--params", "100,10000",
                       "--transform", "sqrt", "--format", "plot-points")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()]
    assert [r[0] for r in rows] == ["100.0", "10000.0"]


PARETO_II_SWEEP = """\
pareto_ii under log10 [certificate: log-scale-density-bound]
parameter  ratio_sup  bound      discrepancy  slack
---------  ---------  ---------  -----------  ---------
0.5        0.443133   0.886265   0.000590326  0.885675
0.1        0.164696   0.329393   8.73675e-05  0.329305
0.01       0.0217696  0.0435393  7.68882e-06  0.0435316
"""


def test_bounds_one_parameter_forms_agree(capsys):
    # the comma form keeps its bytes; ';'-separated one-parameter points
    # render the same table
    code, out, _ = run(capsys, "bounds", "pareto_ii",
                       "--params", "0.5,0.1,0.01")
    assert code == 0 and out == PARETO_II_SWEEP
    code, out, _ = run(capsys, "bounds", "pareto_ii",
                       "--params", "0.5;0.1;0.01")
    assert code == 0 and out == PARETO_II_SWEEP


def test_bounds_two_parameter_sweep(capsys):
    code, out, err = run(capsys, "bounds", "lognormal10",
                         "--params", "0,2;0,3")
    assert code == 0 and err == ""
    assert [ln.split()[0] for ln in out.splitlines()[3:]] == ["0,2", "0,3"]
    code, out, _ = run(capsys, "bounds", "lognormal10", "--params", "0,2;0,3",
                       "--format", "structured-record")
    rows = json.loads(out)["rows"]
    assert [r["parameter"] for r in rows] == [[0.0, 2.0], [0.0, 3.0]]
    # the log-scale ceiling of lognormal10 is 2 / (sigma sqrt(2 pi))
    for r, sigma in zip(rows, (2.0, 3.0)):
        ceiling = 2.0 / (sigma * math.sqrt(2.0 * math.pi))
        assert r["bound"] == pytest.approx(ceiling, rel=1e-12)
        assert r["discrepancy"] <= r["bound"]
    code, out, _ = run(capsys, "bounds", "lognormal10", "--params", "0,2;",
                       "--format", "plot-points")
    assert code == 0 and out.split(",")[:2] == ["0.0", "2.0"]


def test_pdelta_formats(capsys):
    code, out, _ = run(capsys, "pdelta", "exponential", "1.0",
                       "--deltas", "0.25,0.5,0.75")
    assert code == 0
    assert "cell probabilities" in out

    code, out, _ = run(capsys, "pdelta", "uniform", "50",
                       "--format", "structured-record")
    assert code == 0
    body = json.loads(out)
    assert body["kind"] == "pdelta-curve"
    assert len(body["rows"]) == 9


def test_analyze_fixture_conforming(capsys):
    code, out, err = run(capsys, "analyze", FIXTURES["powers"],
                         "--column", "2")
    assert code == 0 and err == ""
    assert "-> consistent" in out
    assert "leading digits (base 10)" in out


def test_analyze_fixture_nonconforming(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURES["noise"], "--column", "2")
    assert code == 0
    assert out.count("inconsistent") == 2


def test_analyze_growth_fixture_structured(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURES["growth"],
                       "--column", "2", "--format", "structured-record")
    assert code == 0
    body = json.loads(out)
    assert body["kind"] == "data-table"
    assert body["sample_size"] == 200
    assert body["verdict"] == "consistent"


@pytest.mark.parametrize("name", ["compound_growth", "powers_of_two",
                                  "uniform_noise"])
def test_analyze_text_bytes_are_pinned(capsys, name):
    # CI compares the console script's output with the same files
    code, out, err = run(capsys, "analyze", str(_DATA / f"{name}.csv"),
                         "--column", "2")
    assert (code, err) == (0, "")
    assert_pinned(out, f"analyze_{name}.txt")


def test_analyze_loglog_text_bytes_are_pinned(capsys):
    # recorded before the iterated log had a quick phase; CI compares the
    # console script's output with the same file
    code, out, err = run(capsys, "analyze", str(_DATA / "compound_growth.csv"),
                         "--column", "2", "--transform", "loglog")
    assert (code, err) == (0, "")
    assert_pinned(out, "analyze_compound_growth_loglog.txt")


@pytest.mark.parametrize("name, argv", [
    ("half_normal", ("--params", "1,10,100", "--transform", "sqrt")),
    ("lognormal10", ("--params", "0,2;0,3")),
    ("pareto_ii", ("--params", "1e8,1e12,1e20", "--transform", "log10")),
])
def test_bounds_text_bytes_are_pinned(capsys, name, argv):
    # laws summed from erfc cells; CI compares the console script's output
    # with the same files. lognormal10's discrepancies (the true value of
    # its cells is 1.24e-15 and 1.76e-14) lie below their error budgets and
    # print as the budgets. pareto_ii's ratio_sup reads ln 10/e = 0.847074
    # on every row: its closed form does not round 1 + x
    code, out, err = run(capsys, "bounds", name, *argv)
    assert (code, err) == (0, "")
    assert_pinned(out, f"bounds_{name}.txt")


def test_pdelta_text_bytes_are_pinned(capsys):
    # the exact uniform series only; CI compares the console script's
    # output with the same file
    code, out, err = run(capsys, "pdelta", "uniform", "100")
    assert (code, err) == (0, "")
    assert_pinned(out, "pdelta_uniform_100.txt")


def test_pdelta_uniform_1000_text_bytes_are_pinned(capsys):
    # 3,141,593 cells: three chunks, the last one partly filled; CI
    # compares the console script's output with the same file
    code, out, err = run(capsys, "pdelta", "uniform", "1000")
    assert (code, err) == (0, "")
    assert_pinned(out, "pdelta_uniform_1000.txt")


def test_pdelta_exponential_text_bytes_are_pinned(capsys):
    # the exponential series with its tail; its values carry the series'
    # known error, and a mend of it re-pins this file and its record
    code, out, err = run(capsys, "pdelta", "exponential", "0.001")
    assert (code, err) == (0, "")
    assert_pinned(out, "pdelta_exponential_0.001.txt")


@pytest.mark.parametrize("name, argv", [
    ("analyze_compound_growth",
     ("analyze", str(_DATA / "compound_growth.csv"), "--column", "2")),
    ("analyze_powers_of_two_sqrt_base7",
     ("analyze", str(_DATA / "powers_of_two.csv"), "--column", "2",
      "--transform", "sqrt", "--base", "7")),
    ("table3", ("table3",)),
    ("table1_n30", ("table1", "--n", "30")),
    ("bounds_lognormal10", ("bounds", "lognormal10", "--params", "0,2;0,3")),
    ("pdelta_uniform_100", ("pdelta", "uniform", "100")),
] + [
    # 3,004 doubles over +-300 decades, subnormals, 2**k, n**2 and
    # sqrt(n/pi), through both quick routes of the power maps
    (f"analyze_wide_range_{t}",
     ("analyze", str(Path(__file__).parent / "fixtures" / "wide_range.csv"),
      "--column", "2", "--transform", t))
    for t in ("sqrt", "pi_square", "identity")
] + [
    # a ';' file with a BOM, CRLF and blank lines, decimal commas, both
    # quote kinds, missing fields, non-finite and non-ASCII numbers
    ("analyze_dirty_log10",
     ("analyze", str(Path(__file__).parent / "fixtures" / "dirty.csv"),
      "--column", "2", "--transform", "log10")),
    # recorded before the iterated log had a quick phase
    ("analyze_compound_growth_loglog",
     ("analyze", str(_DATA / "compound_growth.csv"), "--column", "2",
      "--transform", "loglog")),
    # three erfc-fed laws to the last bit, where the text table prints six
    # digits; recorded before mod1_law split its cells into runs
    ("bounds_half_normal",
     ("bounds", "half_normal", "--params", "1,10,100", "--transform",
      "sqrt")),
] + [
    # the wide-range file under the double-double logs, recorded before
    # their products shared one helper
    (f"analyze_wide_range_{t}",
     ("analyze", str(Path(__file__).parent / "fixtures" / "wide_range.csv"),
      "--column", "2", "--transform", t))
    for t in ("log10", "loglog")
] + [
    # 54 agreement bits, between the 40 and 80 of the other table1
    # records; recorded before the slow rows took their quick routes
    ("table1_n1000_p16", ("table1", "--n", "1000", "--precision", "16")),
] + [
    # the exponential series with its tail, recorded while its direct
    # sum ran as a loop of chunks
    ("pdelta_exponential_0.001", ("pdelta", "exponential", "0.001")),
    # three chunks of cells, recorded while each chunk of each delta took
    # arrays of its own
    ("pdelta_uniform_1000", ("pdelta", "uniform", "1000")),
] + [
    # the top precision the CLI takes: w near 3,400 bits runs the
    # 4,096-bit kernel buckets, and base 7 takes ln 7 from ln_int_fixed
    ("table1_n30_p1000", ("table1", "--n", "30", "--precision", "1000")),
    ("analyze_compound_growth_log7_p1000",
     ("analyze", str(_DATA / "compound_growth.csv"), "--column", "2",
      "--transform", "log7", "--precision", "1000")),
] + [
    # 80 agreement bits past table1's N, recorded while e**n under
    # pi*x**2 took the per-term route past its first few terms
    ("table1_n2000_p24", ("table1", "--n", "2000", "--precision", "24")),
])
def test_structured_record_bytes_are_pinned(capsys, name, argv):
    # CI compares the console script's output with the same files
    code, out, err = run(capsys, *argv, "--format", "structured-record")
    assert (code, err) == (0, "")
    assert_pinned(out, f"record_{name}.json")


def test_analyze_transform_and_alpha_flags(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURES["powers"],
                       "--column", "2", "--transform", "sqrt",
                       "--alpha-level", "0.01")
    assert code == 0
    assert "alpha=0.01" in out
    assert "{sqrt(x)}" in out


def test_analyze_lowest_precision_is_the_default(capsys):
    code, out, err = run(capsys, "analyze", FIXTURES["powers"],
                         "--column", "2", "--precision", "12")
    assert code == 0 and err == ""
    assert out == run(capsys, "analyze", FIXTURES["powers"],
                      "--column", "2")[1]


def test_analyze_loglog_skips_values_outside_its_domain(capsys, tmp_path):
    # the iterated log needs x > 1: 0.5 and 1 are dropped from the KS
    # sample but stay in the leading-digit table
    above = [1.5, 2.0, 3.75, 10.0, 42.0, 1e3, 7.5e4, 3.1e9, 2e30, 6e200]
    path = tmp_path / "mixed.csv"
    path.write_text("value\n0.5\n1\n" + "\n".join(map(repr, above)) + "\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path), "--transform",
                         "loglog", "--format", "structured-record")
    assert code == 0 and err == ""
    body = json.loads(out)
    assert body["sample_size"] == len(above)
    assert body["dropped"] == 2
    assert len(body["fracs"]) == len(above)
    assert sum(body["digits"]["counts"]) == len(above) + 2
    code, out, _ = run(capsys, "analyze", str(path), "--transform", "loglog")
    assert code == 0
    assert out.startswith(f"dataset: mixed (N={len(above)}, 2 rows dropped)")


def test_analyze_with_no_value_in_the_domain_exits_one(capsys, tmp_path):
    path = tmp_path / "below_one.csv"
    path.write_text("value\n0.5\n0.25\n0.1\n-3\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path), "--transform",
                         "loglog")
    assert (code, out) == (1, "")
    assert err == ("error: below_one: no value lies in the domain of "
                   "loglog (4 rows dropped, 3 of them outside that "
                   "domain)\n")


@pytest.mark.parametrize("name, text, argv, message", [
    # a path that does not exist, a column that never parses, and a file
    # stem in EmptySample's message
    ("no\nsuch.csv", None, ("--column", "2"), "cannot read "),
    ("x\ny.csv", "name\nabc\ndef\n", (), "never parses as a number"),
    ("s\nt.csv", "0.5\n0.7\n", ("--transform", "loglog"),
     "error: s\\nt: no value lies in the domain of loglog"),
])
def test_refusal_naming_a_line_break_is_one_line(capsys, tmp_path, name,
                                                 text, argv, message):
    path = tmp_path / name
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path), *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert message in err and "\\n" in err


@pytest.mark.parametrize("k", ["1e-5", "1e-160", "1e-200", "1e-320"])
def test_pdelta_uniform_tiny_k_reads_one(capsys, k):
    # pi*k**2 < delta puts all the mass in cell 0; the series read 0
    # at 1e-200 and left its envelope at 1e-160 and 1e-320
    code, out, err = run(capsys, "pdelta", "uniform", k,
                         "--format", "plot-points")
    assert code == 0 and err == ""
    assert [line.split(",")[1] for line in out.splitlines()] == \
        ["1.0"] * 9


_ROOT = Path(__file__).resolve().parents[1]


def run_module(*argv):
    """`python -m ubenford argv` in a fresh process: what a shell sees,
    numpy warnings and tracebacks included."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                else []))
    return subprocess.run([sys.executable, "-m", "ubenford", *argv],
                          capture_output=True, text=True, env=env, cwd=_ROOT,
                          timeout=120)


def test_python_dash_m_runs_the_cli():
    proc = run_module("bounds", "half_normal", "--params", "1,10,100",
                      "--transform", "sqrt")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (_ROOT / "tests" / "fixtures" /
                           "bounds_half_normal.txt").read_text()


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "table1" in out and "analyze" in out
    code, out, _ = run(capsys, "table3", "--help")
    assert code == 0


# ---------------------------------------------------------------------------
# exit code 1: input errors

@pytest.mark.parametrize("argv", [
    ("analyze", "/no/such/file.csv"),
    ("analyze", FIXTURES["powers"], "--column", "99"),
    ("analyze", FIXTURES["powers"], "--column", "0"),
    ("analyze", FIXTURES["powers"], "--transform", "cubed"),
    ("analyze", FIXTURES["powers"], "--alpha-level", "2.0"),
    ("analyze", FIXTURES["powers"], "--precision", "2"),
    ("bounds", "no_such_family", "--params", "1"),
    ("bounds", "pareto_i", "--params", "a,b"),
    ("bounds", "pareto_i", "--params", ""),
    ("bounds", "uniform", "--params", "10", "--transform", "pi_square"),
    ("bounds", "lognormal10", "--params", "1,2"),
    ("bounds", "lognormal10", "--params", "0,2;0"),
    ("bounds", "lognormal10", "--params", "0,x;0,3"),
    ("bounds", "lognormal10", "--params", "0,2,3;0,3"),
    ("bounds", "lognormal10", "--params", ";;"),
    ("bounds", "pareto_ii", "--params", "0.5;-1"),
    ("pdelta", "uniform", "10", "--deltas", "0,0.5"),
    ("pdelta", "lognormal10", "1"),
    ("table1", "--n", "1"),
    ("table1", "--workers", "0"),
    ("table3", "--n", "1"),
    ("nonsense",),
    ("table1", "--format", "yaml"),
    ("table1", "--n", "20", "--precision", "4"),
    ("table1", "--n", "20", "--precision", "11"),
    ("pdelta", "uniform", "-5"),
    ("pdelta", "exponential", "nan"),
    ("pdelta", "uniform", "inf"),
    ("table3", "--n", "100000000000000000000"),
    ("table3", "--n", "1000000000000000000"),
    ("table1", "--n", "2"),
    ("table1", "--n", "100000000000000000000"),
])
def test_input_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["log\u00b2", "log\u0661\u0660"])
def test_non_ascii_digits_are_no_log_base(capsys, name):
    # '²' once ended in a ValueError traceback, and Arabic-Indic 10 was
    # read as log10
    code, out, err = run(capsys, "analyze", FIXTURES["growth"], "--column",
                         "2", "--transform", name)
    assert (code, out, err) == (1, "", f"error: unknown transform {name!r}\n")


@pytest.mark.parametrize("digits, message", [
    # the floor is PrecisionPolicy's, the ceiling the CLI's
    ("11", "error: agreement must be an integer >= 12, got 11\n"),
    ("1001", "error: precision must be at most 1000 digits, got 1001\n"),
])
def test_precision_outside_its_range_exits_one(capsys, digits, message):
    for argv in (("analyze", FIXTURES["powers"], "--column", "2"),
                 ("table1", "--n", "20")):
        code, out, err = run(capsys, *argv, "--precision", digits)
        assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("argv, name", [
    (("bounds", "uniform", "--params", "inf"), "k"),
    (("bounds", "exponential", "--params", "inf"), "lam"),
    (("bounds", "pareto_i", "--params", "inf"), "alpha"),
    (("bounds", "pareto_i", "--params", "1,inf;"), "x0"),
    (("bounds", "lognormal10", "--params", "inf,1;"), "mu"),
    (("bounds", "half_normal", "--params", "nan", "--transform", "sqrt"),
     "sigma"),
])
def test_non_finite_parameters_exit_one(argv, name):
    # an infinite parameter used to reach the law engine and end in exit 2
    # ("u image of the support window is not finite"), after numpy warnings
    proc = run_module(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error:") and f"{name} must be" in \
        proc.stderr


def test_loglog_below_one_exits_one():
    proc = run_module("bounds", "exponential", "--params", "0.01",
                      "--transform", "loglog")
    assert proc.returncode == 1
    assert proc.stderr == ("error: iterated log is undefined on part of the "
                           "support of exponential(lam=0.01)\n")


def test_argmax_outside_double_range_exits_zero(capsys):
    # the loglog supremum of pareto_i peaks at e**(1/alpha), past the
    # largest double for every alpha below about 1/709; the supremum
    # itself, ln 10 * exp(alpha * ln x0 - 1), is ln 10/e = 0.847074
    code, out, err = run(capsys, "bounds", "pareto_i", "--params", "0.001",
                         "--transform", "loglog")
    assert (code, err) == (0, "")
    assert out.splitlines()[3].split()[:2] == ["0.001", "0.847074"]


def test_steep_pareto_i_loglog_exits_zero(capsys):
    # alpha * ln 10 overflows above alpha = 7.8e307, while the supremum
    # stays ln 10/e for x0 = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bounds", "pareto_i", "--params",
                             "1e308", "--transform", "loglog")
    assert (code, err) == (0, "")
    assert out.splitlines()[3].split()[:2] == ["1e+308", "0.847074"]


@pytest.mark.parametrize("transform", ["loglog", "sqrt", "log10"])
def test_pareto_i_with_x0_above_one(capsys, transform):
    # x0**alpha overflowed in the loglog supremum, and the survival
    # function's exponent overflowed below the support
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bounds", "pareto_i", "--params",
                             "2000,2;2000,3", "--transform", transform)
    assert (code, err) == (0, "")
    assert [ln.split()[0] for ln in out.splitlines()[3:]] == \
        ["2000,2", "2000,3"]


@pytest.mark.parametrize("fmt", ["text-table", "structured-record"])
def test_ceiling_past_the_doubles_exits_one(capsys, fmt):
    # the supremum is finite, but 2*sup is not: this printed inf for
    # ratio_sup, bound and slack, and Infinity in the record, with exit 0
    code, out, err = run(capsys, "bounds", "pareto_i", "--params",
                         "7.7e307,2.5;", "--transform", "loglog",
                         "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_parameter_count_names_the_parameters(capsys):
    # "0,2" is a path of two one-parameter points, and lognormal10 takes
    # two parameters a point
    code, out, err = run(capsys, "bounds", "lognormal10", "--params", "0,2")
    assert code == 1 and out == ""
    assert err == ("error: lognormal10 takes 2 parameter(s) (mu, sigma), "
                   "got 1; a path of points is written "
                   "'mu,sigma;mu,sigma'\n")


@pytest.mark.parametrize("family", ["uniform:3", "uniform:1,", "uniform,",
                                    "lognormal10:0"])
def test_unknown_family_names_what_was_typed(capsys, family):
    # the sweep used to format each point into "family:params" text and
    # parse it again: "uniform:3" ended in a ValueError traceback, and
    # "uniform," was reported as 'uniform,:2.0'
    code, out, err = run(capsys, "bounds", family, "--params", "2")
    assert code == 1 and out == ""
    assert err == f"error: unknown distribution {family!r}\n"


def test_missing_subcommand_exits_one(capsys):
    code, _, err = run(capsys)
    assert code == 1 and "error:" in err


# ---------------------------------------------------------------------------
# exit code 2: internal numerical failures

@pytest.mark.parametrize("argv, code, message", [
    # the envelope breach at 0.1 comes before the delta 2 is read
    (("pdelta", "exponential", "1e-7", "--deltas", "0.1,2"), 2,
     "numerical failure: P_delta(1e-07, 0.1) = "),
    # the cell budget, at the first delta, before the delta 2 is read
    (("pdelta", "uniform", "1e4", "--deltas", "0.5,2"), 2,
     "numerical failure: 3.14e+08 cells exceed the budget of 5e+07 "),
    # the delta before the parameter
    (("pdelta", "uniform", "-5", "--deltas", "2"), 1,
     "error: delta must be strictly inside (0, 1), got 2.0"),
])
def test_pdelta_refusals_surface_in_delta_order(capsys, argv, code, message):
    # each delta's fault surfaces before the next delta is read
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(message)
    assert len(err.splitlines()) == 1


def test_pdelta_probability_past_one_prints_one(capsys):
    # the series reads 1.0000000005969432 here, inside its envelope's
    # slack; the row prints the envelope's upper end
    code, out, err = run(capsys, "pdelta", "exponential", "0.001",
                         "--deltas", "0.9999999995")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].split()[:2] == ["1", "1.000000000"]


def test_pdelta_probability_past_the_slack_exits_two(capsys):
    # 1.6e-9 above one, past the 1e-9 slack, is still refused
    code, out, err = run(capsys, "pdelta", "exponential", "0.001",
                         "--deltas", "0.9999999999")
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: P_delta(0.001, 0.9999999999)")
    assert len(err.splitlines()) == 1


def test_cell_budget_exhaustion_exits_two(capsys):
    # sqrt of a uniform on (0, 1e14] needs ~1e7 integer cells, past the
    # enumeration budget: an honest numerical refusal, not an input error
    code, out, err = run(capsys, "bounds", "uniform", "--params", "1e14",
                         "--transform", "sqrt")
    assert code == 2
    assert err.startswith("numerical failure:")


@pytest.mark.parametrize("argv", [
    ("pdelta", "uniform", "1e200"),
    ("pdelta", "uniform", "1e150"),
    ("bounds", "lognormal10", "--params", "400,2;", "--transform", "sqrt"),
])
def test_overflowing_cell_counts_exit_two(argv):
    # an infinite a**2 raised OverflowError, and the finite ones printed
    # every digit of a 208- or 300-digit count
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numerical failure:")
    assert len(proc.stderr) < 200


@pytest.mark.parametrize("k, count", [("1e154", "3.14e+308"),
                                      ("1e200", "3.14e+400"),
                                      ("1.7e308", "9.08e+616")])
def test_cell_count_past_the_doubles_is_printed(capsys, k, count):
    # a*a overflows from k = 7.6e153, where the count read "inf cells"
    code, out, err = run(capsys, "pdelta", "uniform", k)
    assert (code, out) == (2, "")
    assert err == (f"numerical failure: {count} cells exceed the budget "
                   f"of 5e+07 for k={float(k):g}\n")


@pytest.mark.parametrize("argv, message", [
    (("bounds", "uniform", "--params", "5000000.5", "--transform",
      "identity"), "5000001 integer cells exceed the budget of 5000000 "),
    (("pdelta", "uniform", "3989.5"),
     "5.0002e+07 cells exceed the budget of 5e+07 "),
])
def test_budget_refusal_tells_count_from_budget(capsys, argv, message):
    # at three digits the count just past the budget read the same as it
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"numerical failure: {message}")


@pytest.mark.parametrize("argv, code", [
    (("bounds", "exponential", "--params", "1e-320"), 2),
    (("bounds", "half_normal", "--params", "1e-320", "--transform", "sqrt"),
     0),
    (("bounds", "uniform", "--params", "1e-320", "--transform", "sqrt"), 0),
    (("bounds", "exponential", "--params", "5e-324", "--transform", "log10"),
     2),
])
def test_subnormal_parameters_print_no_warnings(argv, code):
    # x/k, x/sigma and the exponential's upper quantile overflow for a
    # subnormal parameter, as they may: the law reads inf there
    proc = run_module(*argv)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) <= 1
    assert "Warning" not in proc.stderr


def test_certificate_violation_exits_two(capsys, monkeypatch):
    import ubenford.experiments as exp

    def liar(*args, **kwargs):
        from ubenford.errors import CertificateViolation
        raise CertificateViolation("measured discrepancy above its bound")

    monkeypatch.setattr(exp, "certify_mod1_bound", liar)
    code, _, err = run(capsys, "bounds", "pareto_i", "--params", "0.5")
    assert code == 2
    assert "numerical failure:" in err


def _error_classes():
    from ubenford import errors
    return sorted((cls for cls in vars(errors).values()
                   if isinstance(cls, type)
                   and issubclass(cls, errors.UBenfordError)),
                  key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
def test_exit_code_and_prefix_come_from_the_class(capsys, monkeypatch, cls):
    import ubenford.cli as cli

    def refuse(*args, **kwargs):
        raise cls("refused")

    monkeypatch.setattr(cli, "run_table3", refuse)
    code, out, err = run(capsys, "table3")
    assert code == cls.exit_code and out == ""
    assert err == f"{cls.prefix}: refused\n"


def test_exactly_the_numerical_failures_exit_two():
    assert {cls.__name__ for cls in _error_classes()
            if cls.exit_code == 2} == {
        "NumericalFailure", "CertificateViolation", "PrecisionCapExceeded",
        "TruncationFailure", "InsufficientPrecision"}
