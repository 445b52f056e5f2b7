"""Seeded workload definitions.

A workload is a list of op specs (plain JSON-able dicts) built from the seed
alone; the program under test only ever sees these inputs. Every seeded
parameter is drawn stratified (one draw per equal-width stratum of its
range) or as an antithetic pair, so the seed changes the inputs but hardly
the amount of work in a pass. Without that, run-to-run spread across seeds
would be dominated by which parameters were drawn, not by the program.
"""

import math
import os
import random

WORKLOADS = ("seq-dense", "seq-giant", "dist-laws", "data-csv")

TABLE1_FAST = ("sqrt_n", "pi_n", "primes")
TABLE1_SLOW = ("exp_n", "factorial", "n_pow_n")
TABLE1_TRANSFORMS = ("loglog", "log10", "sqrt", "pi_square")
N_FAST = 10000
N_SLOW = 1000

CSV_FILES = 9
CSV_ROWS = 5000
CSV_TRANSFORMS = ("log10", "sqrt", "pi_square")


def _rng(workload, seed):
    return random.Random(f"{workload}:{int(seed)}")


def _stratified(rng, lo, hi, k, log=False):
    """k draws, one uniform draw inside each of k equal strata of (lo, hi)."""
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    width = (hi - lo) / k
    out = [lo + (i + rng.random()) * width for i in range(k)]
    return [10.0 ** v for v in out] if log else out


def _sig(x, digits=6):
    return float(f"{x:.{digits}g}")


def _cell(seq, transform, n, label=None, filtered=False, paper=False):
    return {"op": "ks_cell", "seq": seq, "transform": transform, "n": n,
            "label": label, "filtered": filtered, "paper": paper}


def seq_dense(seed):
    """12 fast-row table cells (about 1e5 small terms at ~47-digit working
    precision) plus seeded sub-linear power laws and the n**(1/pi) rerun."""
    rng = _rng("seq-dense", seed)
    ops = [_cell(s, t, N_FAST, paper=True)
           for s in TABLE1_FAST for t in TABLE1_TRANSFORMS]
    ops.append(_cell("power_law:1/pi", "identity", N_SLOW, paper=True))
    for c in _stratified(rng, 0.2, 0.9, 2):
        for t in ("log10", "sqrt", "identity"):
            ops.append(_cell(f"power_law:{_sig(c)}", t, N_FAST))
    return ops


def seq_giant(seed):
    """12 slow-row table cells (terms of thousands of digits), the odd
    non-square rerun, and seeded steep power laws."""
    rng = _rng("seq-giant", seed)
    ops = [_cell(s, t, N_SLOW, paper=True)
           for s in TABLE1_SLOW for t in TABLE1_TRANSFORMS]
    ops.append(_cell("n_pow_n", "sqrt", N_SLOW,
                     label="n_pow_n_odd_nonsquare", filtered=True,
                     paper=True))
    for c in _stratified(rng, 20.0, 60.0, 3):
        for t in ("pi_square", "log10"):
            ops.append(_cell(f"power_law:{_sig(c)}", t, N_SLOW))
    return ops


def dist_laws(seed):
    """Exact mod-1 laws and certificates on the default 1023-point grid,
    both cell-probability curves, and the limit table."""
    rng = _rng("dist-laws", seed)

    def one(lo, hi, log=False):
        return _sig(_stratified(rng, lo, hi, 1, log)[0])

    # pareto_ii cells grow as 1/b: an antithetic pair in 1/b over
    # b in (0.01, 0.5) keeps the pass's law evaluations fixed
    u = rng.random()
    inv_b = (2.0 + u * 98.0, 100.0 - u * 98.0)
    fams = [
        ("pareto_i", [one(0.1, 2.0)], "log10"),
        ("pareto_ii", [_sig(1.0 / inv_b[0])], "log10"),
        ("pareto_ii", [_sig(1.0 / inv_b[1])], "log10"),
        ("lognormal10", [one(-1.0, 1.0), one(1.5, 2.5)], "log10"),
        ("uniform", [one(100.0, 1e4, log=True)], "log10", "sqrt"),
        ("exponential", [one(0.01, 1.0, log=True)], "log10", "sqrt"),
        ("half_normal", [one(1.0, 1e4, log=True)], "sqrt"),
    ]
    ops = []
    for fam, params, *transforms in fams:
        dist = f"{fam}:{','.join(repr(p) for p in params)}"
        for t in transforms:
            ops.append({"op": "mod1_law", "dist": dist, "transform": t})
            ops.append({"op": "certify", "dist": dist, "transform": t})
    # many cells, cheap cdf: cell count grows as sigma**2, so the pair
    # shares a fixed sigma**2 budget and the pass size stays put
    u = rng.random()
    lo2, hi2 = 16.0, 64.0
    for s2 in (lo2 + u * (hi2 - lo2), hi2 - u * (hi2 - lo2)):
        ops.append({"op": "mod1_law", "dist": f"half_normal:{_sig(s2 ** 0.5)}",
                    "transform": "pi_square"})
    ops.append({"op": "pdelta_curve", "family": "uniform",
                "parameter": one(50.0, 500.0, log=True)})
    ops.append({"op": "pdelta_curve", "family": "exponential",
                "parameter": one(1e-3, 1.0, log=True)})
    ops.append({"op": "run_table3", "seed": rng.randrange(2 ** 32)})
    return ops


def _csv_value_text(v, style):
    text = repr(v)
    if style == "comma":
        text = text.replace(".", ",")
    elif style == "quoted":
        text = f'"{text}"'
    return text


def write_csv_files(seed, directory):
    """Write the seeded CSV files and return their specs with the values
    and drop counts ingest is expected to report.

    Each file has a header, one main delimiter, a few rows in a foreign
    delimiter (which leave the value column missing), non-numeric and
    non-positive rows, and positive values spread over +-35 decades.
    """
    rng = _rng("data-csv", seed)
    os.makedirs(directory, exist_ok=True)
    delims = (";", "\t", ",")
    files = []
    for i in range(CSV_FILES):
        delim = delims[i % len(delims)]
        # a foreign delimiter must rank below the file's own in ingest's
        # detection order (semicolon, tab, comma), or it would win
        foreign = {";": ("\t", ",", " "), "\t": (",", " "), ",": (" ",)}[delim]
        lines = [delim.join(("id", "value", "note"))]
        values, non_numeric, non_positive = [], 0, 0
        for row in range(CSV_ROWS):
            kind = rng.random()
            if kind < 0.01:
                lines.append(f"{row}{rng.choice(foreign)}{rng.random():.6f}")
                non_numeric += 1
                continue
            if kind < 0.02:
                field = rng.choice(("n/a", "", "abc", "1.2.3", "--"))
                non_numeric += 1
            elif kind < 0.03:
                field = repr(-rng.random() * 10.0 ** rng.randint(-5, 5))
                if rng.random() < 0.3:
                    field = "0"
                non_positive += 1
            else:
                v = (1.0 + 9.0 * rng.random()) * 10.0 ** rng.randint(-35, 35)
                if delim == ";":
                    style = "comma" if rng.random() < 0.5 else "plain"
                else:
                    style = "quoted" if rng.random() < 0.1 else "plain"
                field = _csv_value_text(v, style)
                values.append(v)
            lines.append(delim.join((str(row), field, "x")))
        path = os.path.join(directory, f"sample{i}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        files.append({"path": path, "values": values,
                      "non_numeric": non_numeric,
                      "non_positive": non_positive,
                      "raw_rows": len(lines)})
    return files


def data_csv(seed, directory):
    files = write_csv_files(seed, directory)
    ops = []
    for f in files:
        for t in CSV_TRANSFORMS:
            ops.append({"op": "analyze", "path": f["path"], "transform": t})
    return ops, files


def build(workload, seed, directory):
    """(op list, extra check data) for one workload and seed."""
    if workload == "seq-dense":
        return seq_dense(seed), None
    if workload == "seq-giant":
        return seq_giant(seed), None
    if workload == "dist-laws":
        return dist_laws(seed), None
    if workload == "data-csv":
        return data_csv(seed, directory)
    raise ValueError(f"unknown workload {workload!r}")
