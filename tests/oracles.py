"""Test-side oracles that share no code with the closed forms they check.

`density` is the pdf of a package family, `support_hi` the right edge of
its support and `derivative` u' of a transform, all in doubles;
sup_ratio_numeric maximizes pdf/u' numerically: the independent route
for the package's closed-form suprema
(`ubenford.distributions.sup_ratio`). `argmax` is where pdf/u' peaks, in
mpmath, from the first-order condition; the package returns no argmax.
`ingest_rows` reads a column a row at a time, field by field: the
reference for `ubenford.ingest.ingest_csv`, which reads it in whole-
column passes.
"""

import math

import numpy as np
from mpmath import mp, mpf

from ubenford.distributions import (Exponential, HalfNormal,
                                    LognormalBase10, ParetoI, ParetoII,
                                    UniformOnZeroK)
from ubenford.errors import (DomainError, EmptyDataset, HypothesisViolated,
                             NoNumericColumn, NotUnimodal)

_LN10 = math.log(10.0)

_GOLDEN_REL_TOL = 1e-10  # golden-section stop, relative to the log-x span

# pdf/u' = x**k * pdf up to a constant for each power map
_K = {"identity": 0, "log": 1, "sqrt": mpf(1) / 2, "pi_square": -1}


def _require(ok, message):
    if not np.all(ok):
        raise DomainError(message)


def support_hi(distribution):
    """Right edge of a family's support: k for the uniform, inf for the
    rest, which reach to infinity."""
    if isinstance(distribution, UniformOnZeroK):
        return distribution.k
    return math.inf


def density(distribution, x):
    """pdf of a package family, vectorized, 0 off the support; a float for
    a scalar x."""
    d = distribution
    xa = np.asarray(x, dtype=np.float64)
    if isinstance(d, ParetoI):
        out = np.where(xa >= d.x0, d.alpha / d.x0 * (
            d.x0 / np.maximum(xa, d.x0)) ** (d.alpha + 1.0), 0.0)
    elif isinstance(d, ParetoII):
        out = np.where(xa >= 0.0, d.b * np.exp(
            -(d.b + 1.0) * np.log1p(np.maximum(xa, 0.0))), 0.0)
    elif isinstance(d, LognormalBase10):
        safe = np.maximum(xa, 1e-320)
        z = (np.log10(safe) - d.mu) / d.sigma
        out = np.where(xa > 0.0, np.exp(-0.5 * z * z) / (
            safe * d.sigma * _LN10 * math.sqrt(2 * math.pi)), 0.0)
    elif isinstance(d, UniformOnZeroK):
        out = np.where((xa > 0.0) & (xa <= d.k), 1.0 / d.k, 0.0)
    elif isinstance(d, Exponential):
        out = np.where(xa >= 0.0,
                       d.lam * np.exp(-d.lam * np.maximum(xa, 0.0)), 0.0)
    elif isinstance(d, HalfNormal):
        z = np.maximum(xa, 0.0) / d.sigma
        out = np.where(xa >= 0.0, math.sqrt(2.0 / math.pi) / d.sigma
                       * np.exp(-0.5 * z * z), 0.0)
    else:
        raise ValueError(f"no density for {d.label()}")
    return out if np.ndim(x) else float(out)


def derivative(transform, x):
    """u'(x) for a transform, vectorized; DomainError outside the domain
    (sqrt's derivative excludes 0)."""
    kind = transform.kind
    if kind == "identity":
        return np.ones_like(x, dtype=np.float64)
    if kind == "log":
        _require(x > 0.0, f"{transform.label()} requires x > 0")
        return 1.0 / (x * math.log(transform.base))
    if kind == "loglog":
        _require(x > 1.0, "iterated log requires x > 1")
        return 1.0 / (x * np.log(x) * _LN10)
    if kind == "sqrt":
        _require(x > 0.0, "sqrt derivative requires x > 0")
        return 0.5 / np.sqrt(x)
    if kind == "pi_square":
        _require(x >= 0.0, "pi_square requires x >= 0")
        return 2.0 * math.pi * x
    raise ValueError(f"no derivative for {transform.label()}")


def sup_ratio_numeric(distribution, transform):
    """Golden-section maximum of pdf/u' on a log-x axis.

    Independent of the closed forms, which the tests cross-validate with
    it. The scan window stretches well past both 1e-13 quantiles, and a
    window-edge maximum that keeps growing as the window widens raises
    NotUnimodal.
    """
    if distribution.support_lo < 10.0 ** transform.lg_domain_lo:
        raise HypothesisViolated(
            f"{transform.label()} is undefined on part of the support of "
            f"{distribution.label()}")

    def val(lg):
        x = 10.0 ** lg
        return float(density(distribution, np.asarray([x]))[0]
                     / derivative(transform, np.asarray([x]))[0])

    lg_lo = float(distribution.ppf_log10(1e-13))
    lg_hi = float(distribution.isf_log10(1e-13))
    if distribution.support_lo > 0.0:
        lg_lo = max(lg_lo, math.log10(distribution.support_lo))
    lg_lo = max(lg_lo, transform.lg_domain_lo + 1e-12)
    if math.isfinite(support_hi(distribution)):
        lg_hi = min(lg_hi, math.log10(support_hi(distribution)))

    lo_is_support_edge = (distribution.support_lo > 0.0 and
                          abs(lg_lo - math.log10(max(distribution.support_lo,
                                                     1e-300))) < 1e-12)
    hi_is_support_edge = math.isfinite(support_hi(distribution))

    # A window-edge maximum is read three ways: equal value ten decades
    # further out is an asymptotic plateau (accept the edge as the sup), a
    # different value means the true peak sits outside (widen and rescan),
    # and a window that keeps needing to widen means the ratio diverges.
    for attempt in range(7):
        grid = np.linspace(lg_lo, lg_hi, 601)
        vals = np.array([val(t) for t in grid])
        i = int(vals.argmax())
        if i == 0 and not lo_is_support_edge:
            probe = val(lg_lo - 10.0)
            if abs(probe - vals[0]) <= 1e-9 * max(vals[0], 1e-300):
                break  # plateau toward the lower edge
            lg_lo -= 10.0
            continue
        if i == len(grid) - 1 and not hi_is_support_edge:
            probe = val(lg_hi + 10.0)
            if abs(probe - vals[-1]) <= 1e-9 * max(vals[-1], 1e-300):
                break
            lg_hi += 10.0
            continue
        break
    else:
        raise NotUnimodal(
            f"pdf/u' keeps growing toward the support edge for "
            f"{distribution.label()} under {transform.label()}")

    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    if a == b:
        return vals[i], 10.0 ** grid[i]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = val(c), val(d)
    for _ in range(200):
        if b - a < _GOLDEN_REL_TOL * (1.0 + abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = val(d)
    t = 0.5 * (a + b)
    return val(t), 10.0 ** t


def argmax(d, t):
    """Where pdf/u' peaks, an mpf: zero of its log-derivative, or a support
    edge. Only ParetoI has a loglog supremum; the argmax may lie past the
    largest double."""
    if t.kind == "loglog":
        ln_xs = 1 / mpf(d.alpha)
        return mp.exp(ln_xs) if ln_xs > mp.log(d.x0) else mpf(d.x0)
    k = _K[t.kind]
    if isinstance(d, ParetoI):
        return mpf(d.x0)
    if isinstance(d, ParetoII):
        return k / (mpf(d.b) + 1 - k)
    if isinstance(d, LognormalBase10):
        return mpf(10) ** (d.mu - (1 - k) * mpf(d.sigma) ** 2 * mp.log(10))
    if isinstance(d, UniformOnZeroK):
        return mpf(d.k)
    if isinstance(d, Exponential):
        return k / mpf(d.lam)
    return d.sigma * mp.sqrt(k)


def _parse_number(field):
    """float or None; accepts a decimal comma when it is unambiguous."""
    text = field.strip().strip('"').strip("'").strip()
    if not text:
        return None
    try:
        v = float(text)
    except ValueError:
        if text.count(",") == 1 and "." not in text:
            try:
                v = float(text.replace(",", "."))
            except ValueError:
                return None
        else:
            return None
    return v if math.isfinite(v) else None


def _quote_cut(parts, column):
    """Whether one of the first `column` fields has a quote at one end and
    not the same quote at the other: a quoted field the delimiter cut."""
    for part in parts[:column]:
        part = part.strip()
        for q in "\"'":
            if part.startswith(q) != part.endswith(q):
                return True
    return False


def ingest_rows(text, column):
    """A column of a delimited text (its BOM removed) read row by row:
    (values, raw_rows, had_header, non_numeric, non_positive), or the
    refusal class ingest_csv raises for it.

    This is the per-row rule ingest_csv had before it read the column in
    whole-column passes, with one rule added since: a row that holds a
    quote character and whose quotes do not pair in one of its first
    `column` fields is non-numeric.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return EmptyDataset
    delim = next((c for c in (";", "\t", ",")
                  if any(c in line for line in lines)), None)

    values, non_numeric, non_positive = [], 0, 0
    saw_numeric = had_header = False
    for i, line in enumerate(lines):
        parts = line.split(delim) if delim else [line]
        v = None
        if column <= len(parts) and not (
                ('"' in line or "'" in line) and _quote_cut(parts, column)):
            v = _parse_number(parts[column - 1])
        if v is None:
            if i == 0:
                had_header = True
            else:
                non_numeric += 1
            continue
        saw_numeric = True
        if v > 0.0:
            values.append(v)
        else:
            non_positive += 1
    if not saw_numeric:
        return NoNumericColumn
    if not values:
        return EmptyDataset
    return (np.asarray(values, dtype=np.float64), len(lines), had_header,
            non_numeric, non_positive)
