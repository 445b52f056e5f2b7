"""Rendering of experiment reports.

Three formats: `text-table` mirrors the published table layouts for
humans, `structured-record` is one JSON object with sorted keys and no
volatile fields (same config in, same bytes out), and `plot-points` is
delimiter-separated rows ready for any plotting tool.
"""

import json
from dataclasses import asdict, is_dataclass

import numpy as np

from .bounds import BoundCertificate, Mod1Result
from .errors import InvalidParameter
from .experiments import (AnalyzeReport, BoundSweepReport, PDeltaReport,
                          Table1Report, Table3Report)

FORMATS = ("text-table", "structured-record", "plot-points")

# discriminator values for structured records, one per report type
_KINDS = (
    (Table1Report, "sequence-table"),
    (Table3Report, "rv-table"),
    (BoundSweepReport, "bound-sweep"),
    (PDeltaReport, "pdelta-curve"),
    (AnalyzeReport, "data-table"),
    (Mod1Result, "mod1-law"),
    (BoundCertificate, "bound-certificate"),
)


def emit(report, format="text-table"):
    """Render a report as text in the chosen format."""
    if format == "text-table":
        text = _text(report)
    elif format == "structured-record":
        text = _record(report)
    elif format == "plot-points":
        text = _points(report)
    else:
        raise InvalidParameter(
            f"unknown format {format!r}; choose one of {', '.join(FORMATS)}")
    return text


# ---------------------------------------------------------------------------
# structured records

def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _kind_of(report):
    for cls, kind in _KINDS:
        if isinstance(report, cls):
            return kind
    raise InvalidParameter(f"no renderer for {type(report).__name__}")


def _record(report):
    body = {"kind": _kind_of(report)}
    body.update(_jsonable(report))
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


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
        lines.append("  ".join(f.ljust(w) for f, w in zip(row, widths)).rstrip())
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
        rows.append([_point(r.parameter, lambda v: f"{v:g}"),
                     f"{r.ratio_sup:.6g}",
                     f"{r.bound:.6g}", f"{r.discrepancy:.6g}",
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


def _text(report):
    kind = _kind_of(report)
    renderers = {
        "sequence-table": _text_table1,
        "rv-table": _text_table3,
        "bound-sweep": _text_sweep,
        "pdelta-curve": _text_pdelta,
        "data-table": _text_analyze,
        "mod1-law": _text_mod1,
        "bound-certificate": _text_certificate,
    }
    return renderers[kind](report)


# ---------------------------------------------------------------------------
# plot points

def _points(report):
    if isinstance(report, Mod1Result):
        # the curve is anchored at P({Y} < 0) = 0, which completes the
        # default grid to every multiple of 1/1024 in [0, 1)
        lines = ["0,0"]
        lines += [f"{float(z)!r},{float(p)!r}"
                  for z, p in zip(report.zs, report.probs)]
        return "\n".join(lines) + "\n"
    if isinstance(report, PDeltaReport):
        lines = [f"{r.delta!r},{r.probability!r}" for r in report.rows]
        return "\n".join(lines) + "\n"
    if isinstance(report, BoundSweepReport):
        lines = [f"{_point(r.parameter, repr)},{r.discrepancy!r},"
                 f"{r.bound!r}"
                 for r in report.rows]
        return "\n".join(lines) + "\n"
    if isinstance(report, AnalyzeReport):
        n = len(report.fracs)
        lines = [f"{u!r},{(i + 1) / n!r}"
                 for i, u in enumerate(report.fracs)]
        return "\n".join(lines) + "\n"
    raise InvalidParameter(
        f"{_kind_of(report)} has no plot-points form; "
        "use text-table or structured-record")
