"""Rendering of experiment reports.

Three formats: `text-table` mirrors the published table layouts for
humans, `structured-record` is one JSON object with sorted keys and no
volatile fields (same config in, same bytes out), built by walking the
report's dataclass fields in place (see _jsonable) and writing each float
array in one join (see _record), and `plot-points` is
delimiter-separated rows ready for any plotting tool.
"""

import json
import re
from dataclasses import fields, is_dataclass

import numpy as np

from .bounds import BoundCertificate, Mod1Result
from .errors import InvalidParameter
from .experiments import (AnalyzeReport, BoundSweepReport, PDeltaReport,
                          Table1Report, Table3Report)

FORMATS = ("text-table", "structured-record", "plot-points")


def emit(report, format="text-table"):
    """Render a report as text in the chosen format."""
    if format not in FORMATS:
        raise InvalidParameter(
            f"unknown format {format!r}; choose one of {', '.join(FORMATS)}")
    kind, text, points = _renderers(report)
    if format == "text-table":
        return text(report)
    if format == "structured-record":
        return _record(kind, report)
    if points is None:
        raise InvalidParameter(
            f"{kind} has no plot-points form; "
            "use text-table or structured-record")
    return points(report)


# ---------------------------------------------------------------------------
# structured records

def _jsonable(obj, blocks=None):
    """Plain JSON values of a report, its dataclass fields walked in place.

    Fields are read with getattr rather than through dataclasses.asdict,
    which would deep-copy every value first (each of a dataset's thousands
    of fracs). A Python float is already plain and is returned as it is,
    and a float block, a list or tuple of nothing but Python floats (a
    float array's tolist), is returned as a list without a walk. Given
    `blocks`, a float block is appended there instead and stands in the
    tree as the placeholder string _record fills in.
    """
    if type(obj) is float:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name), blocks)
                for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v, blocks) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) != {float}:
            return [_jsonable(v, blocks) for v in obj]
        if blocks is None:
            return list(obj)
        blocks.append(obj)
        return f"{_PLACEHOLDER}{len(blocks) - 1}"
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist(), blocks)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


_PLACEHOLDER = "\0float block "
# a placeholder's line in the indented text: the line up to the
# placeholder (its indent, then a key or nothing), and the index that the
# placeholder, written as a JSON string, holds
_PLACEHOLDER_LINE = re.compile(
    r'^(( *).*)"\\u0000float block (\d+)"', re.MULTILINE)


def _record(kind, report):
    """The report as indented JSON with sorted keys.

    json.dumps with an indent runs the pure-Python encoder, one call per
    value. A float block (see _jsonable) is written instead in one join of
    the C encoder's spellings of its floats, which are the pure encoder's
    (float repr, NaN, Infinity, -Infinity), at the indent its placeholder
    stands at: the same bytes.
    """
    blocks = []
    text = json.dumps({"kind": kind, **_jsonable(report, blocks)},
                      sort_keys=True, indent=2)
    if text.count("\\u0000") != len(blocks):
        # a string of the report holds a NUL and might pass for a
        # placeholder, so its float blocks go through the pure encoder
        return json.dumps({"kind": kind, **_jsonable(report)},
                          sort_keys=True, indent=2) + "\n"

    def fill(m):
        inner = m[2] + "  "
        floats = json.dumps(blocks[int(m[3])])[1:-1]
        return (f"{m[1]}[\n{inner}" + floats.replace(", ", ",\n" + inner)
                + f"\n{m[2]}]")

    return _PLACEHOLDER_LINE.sub(fill, text) + "\n"


# ---------------------------------------------------------------------------
# text tables

def _fmt_p(p):
    # the published tables print p values without the leading zero
    text = f"{p:.3f}"
    return text[1:] if text.startswith("0.") else text


def _fmt_cell(cell):
    return f"{cell.z:.2f} ({_fmt_p(cell.p)})"


def _pad_table(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(f.ljust(w) for f, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def _text_table1(rep):
    header = ["sequence"] + [c.transform for c in rep.cells[:4]]
    rows = [header]
    for i in range(0, len(rep.cells), 4):
        group = rep.cells[i:i + 4]
        label = f"{group[0].sequence} (N={group[0].n_requested})"
        rows.append([label] + [_fmt_cell(c) for c in group])
    lines = _pad_table(rows)
    lines.append("")
    lines.append("follow-up runs:")
    for c in rep.reruns:
        lines.append(f"  {c.sequence} under {c.transform} "
                     f"(N={c.n_used}): {_fmt_cell(c)}")
    excluded = [c for c in rep.cells if c.excluded]
    if excluded:
        parts = ", ".join(f"{c.sequence}/{c.transform}: {c.excluded}"
                          for c in excluded)
        lines.append(f"excluded terms outside a transform domain: {parts}")
    for sequence, transform in rep.flagged:
        lines.append(f"flagged: the reference value for {sequence}/"
                     f"{transform} is internally inconsistent; the cell "
                     f"above is this run's computed value")
    return "\n".join(lines) + "\n"


def _text_table3(rep):
    header = ["family"] + [c.transform for c in rep.uniform_row]
    rows = [header]
    rows.append(["uniform on (0, k], k -> inf"]
                + [c.verdict for c in rep.uniform_row])
    rows.append(["exponential, rate -> 0"]
                + [c.verdict for c in rep.exponential_row])
    sample_label = (f"half_normal sigma={rep.sigma:g} "
                    f"(N={rep.sample_size}, seed={rep.seed})")
    rows.append([sample_label]
                + [f"{_fmt_cell(c)} {c.verdict}"
                   for c in rep.half_normal_row])
    lines = _pad_table(rows)
    lines.append("")
    lines.append("limit verdicts certify the end of a parameter path; the "
                 "sampled row is a finite-N test and moves with the seed.")
    return "\n".join(lines) + "\n"


def _point(parameter, fmt):
    """A sweep point's parameters, each formatted by fmt, comma-joined."""
    values = parameter if isinstance(parameter, tuple) else (parameter,)
    return ",".join(fmt(v) for v in values)


def _text_sweep(rep):
    rows = [["parameter", "ratio_sup", "bound", "discrepancy", "slack"]]
    for r in rep.rows:
        # the digits of a discrepancy below its error budget are rounding
        shown = (f"<{r.error_budget:.2g}" if r.discrepancy < r.error_budget
                 else f"{r.discrepancy:.6g}")
        rows.append([_point(r.parameter, lambda v: f"{v:g}"),
                     f"{r.ratio_sup:.6g}", f"{r.bound:.6g}", shown,
                     f"{r.slack:.6g}"])
    title = (f"{rep.family} under {rep.transform} "
             f"[certificate: {rep.certificate}]")
    return "\n".join([title] + _pad_table(rows)) + "\n"


def _text_pdelta(rep):
    rows = [["delta", "probability", "lower", "upper", "gap"]]
    for r in rep.rows:
        rows.append([f"{r.delta:g}", f"{r.probability:.9f}",
                     f"{r.lower:.9f}", f"{r.upper:.9f}", f"{r.gap:.3e}"])
    title = f"{rep.family} (parameter {rep.parameter:g}) cell probabilities"
    return "\n".join([title] + _pad_table(rows)) + "\n"


def _text_analyze(rep):
    lines = [
        f"dataset: {rep.dataset} (N={rep.sample_size}, "
        f"{rep.dropped} rows dropped)",
        f"uniformity of {{{rep.transform}(x)}}: D={rep.ks_statistic:.4f}, "
        f"z={rep.z:.3f}, p={_fmt_p(rep.p)} -> {rep.verdict} "
        f"at alpha={rep.alpha:g}",
    ]
    d = rep.digits
    if d.p_value is None:
        lines.append(f"leading digits (base {d.base}): {d.verdict} "
                     f"(smallest expected cell below 5)")
    else:
        lines.append(f"leading digits (base {d.base}): chi2={d.chi2:.3f} "
                     f"(dof={d.dof}), p={_fmt_p(d.p_value)} -> {d.verdict}")
    rows = [["digit", "count", "expected"]]
    for digit, count, expected in zip(range(1, d.base),
                                      d.counts, d.expected):
        rows.append([str(digit), str(count), f"{expected:.2f}"])
    return "\n".join(lines + _pad_table(rows)) + "\n"


def _text_mod1(res):
    return (f"mod-1 law on {len(res.zs)} grid points: "
            f"sup |P - z| = {res.discrepancy:.6g} at z = {res.worst_z:.6g} "
            f"({res.cells} cells, error budget {res.error_budget:.3g})\n")


def _text_certificate(cert):
    return (f"discrepancy {cert.discrepancy:.6g} <= bound {cert.bound:.6g} "
            f"(slack {cert.slack:.6g}, worst z {cert.worst_z:.6g}, "
            f"{cert.cells} cells)\n")


# ---------------------------------------------------------------------------
# plot points

def _points_mod1(res):
    # the curve is anchored at P({Y} < 0) = 0, which completes the
    # default grid to every multiple of 1/1024 in [0, 1)
    lines = ["0,0"]
    lines += [f"{float(z)!r},{float(p)!r}" for z, p in zip(res.zs, res.probs)]
    return "\n".join(lines) + "\n"


def _points_pdelta(rep):
    lines = [f"{r.delta!r},{r.probability!r}" for r in rep.rows]
    return "\n".join(lines) + "\n"


def _points_sweep(rep):
    lines = [f"{_point(r.parameter, repr)},{r.discrepancy!r},{r.bound!r}"
             for r in rep.rows]
    return "\n".join(lines) + "\n"


def _points_analyze(rep):
    n = len(rep.fracs)
    lines = [f"{u!r},{(i + 1) / n!r}" for i, u in enumerate(rep.fracs)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# one entry per report class: (structured-record kind, text renderer,
# plot-points renderer or None)

_RENDERERS = {
    Table1Report: ("sequence-table", _text_table1, None),
    Table3Report: ("rv-table", _text_table3, None),
    BoundSweepReport: ("bound-sweep", _text_sweep, _points_sweep),
    PDeltaReport: ("pdelta-curve", _text_pdelta, _points_pdelta),
    AnalyzeReport: ("data-table", _text_analyze, _points_analyze),
    Mod1Result: ("mod1-law", _text_mod1, _points_mod1),
    BoundCertificate: ("bound-certificate", _text_certificate, None),
}


def _renderers(report):
    for cls, entry in _RENDERERS.items():
        if isinstance(report, cls):
            return entry
    raise InvalidParameter(f"no renderer for {type(report).__name__}")
