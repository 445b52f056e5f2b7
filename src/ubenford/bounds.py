"""Distributional conformance: the law of {u(X)} and its certified bounds.

mod1_law sums exact cell probabilities P(u(X) in [j, j+z]) over the integer
cells that carry mass, working on a log10 abscissa so heavy tails never
overflow. It evaluates blocks of z rows x cells, at most _CHUNK elements
each, with one cdf or survival call per block and run of adjacent cells on
one side of the median; every row still sums its cells in cell order, so
each probability is bit-identical to evaluating one z at a time.
discrepancy_bound turns the closed-form supremum of pdf/u' into the
certified ceiling 2*sup; certify_mod1_bound measures one against the other
and raises if the measurement ever crosses the ceiling.

The two fraction laws with explicit series (uniform and exponential inputs
under pi*x**2) get dedicated evaluators: an exact clamped-cell sum for the
uniform case and a direct-plus-tail-corrected sum for the exponential one,
each with its two-sided envelope.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import sup_ratio
from .errors import CertificateViolation, InvalidParameter, \
    TruncationFailure, real

_SQRT_PI = math.sqrt(math.pi)
_EPS = float(np.finfo(np.float64).eps)
_CHUNK = 1 << 16
_TAIL = 1e-14  # mod1_law's tail mass on each side
_MAX_CELLS = 5_000_000  # mod1_law's budget of integer cells
_MAX_UNIFORM_CELLS = 50_000_000  # p_delta_uniform's budget of cells
_DIRECT_TERMS = 100_000  # p_delta_exponential's terms before the tail


def _over_budget(count, budget):
    """count and budget at three significant digits, or at as many more as
    keep a count just past the budget from reading the same."""
    digits = 3
    while f"{count:.{digits}g}" == f"{budget:.{digits}g}" and digits < 17:
        digits += 1
    return f"{count:.{digits}g}", f"{budget:.{digits}g}"


def default_z_grid():
    """1023 interior points, aligned so the quarter marks are exact."""
    return np.linspace(0.0, 1.0, 1025)[1:-1]


@dataclass(frozen=True)
class Mod1Result:
    """Measured law of {u(X)} on a z grid.

    error_budget bounds everything the measurement ignored: the two
    un-enumerated tails plus per-cell float rounding.
    """

    zs: np.ndarray
    probs: np.ndarray
    discrepancy: float
    worst_z: float
    cells: int
    error_budget: float


def mod1_law(distribution, transform, zs=None):
    """P({u(X)} <= z) for each z, summed cell by cell.

    The family is read only on the log10 axis: ppf_log10/isf_log10 at
    _TAIL fix which integer cells of u (at most _MAX_CELLS) are summed;
    everything outside contributes at most 2*_TAIL, which lands in the
    error budget rather than in the numbers. Raises HypothesisViolated
    where u is undefined on part of the support (check_support).

    Cells are taken _CHUNK at a time, and z rows in blocks of at most
    _CHUNK elements (one row when a chunk is full). A chunk's cells split
    once into maximal runs of adjacent cells whose left edge lies on one
    side of the median; each run is read as a column slice of the block,
    and its differences go into one buffer per chunk, so no cell is
    gathered, reordered or scattered. Each row is reduced over its cells
    in cell order, so the result is bit-identical to a per-z loop over the
    same cells.
    """
    if zs is None:
        zs = default_z_grid()
    try:
        zs = np.asarray(zs, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidParameter(
            f"z grid must be numbers, got {zs!r}") from None
    if zs.ndim != 1 or not zs.size:
        raise InvalidParameter(
            f"z grid must be a nonempty 1-D array, got shape {zs.shape}")
    if not np.all((zs > 0.0) & (zs < 1.0)):
        raise InvalidParameter("z grid must lie strictly inside (0, 1)")
    transform.check_support(distribution)

    lg_lo = float(distribution.ppf_log10(_TAIL))
    lg_hi = float(distribution.isf_log10(_TAIL))
    u_lo = transform.u_float_from_log10(lg_lo)
    u_hi = transform.u_float_from_log10(lg_hi)
    if not (math.isfinite(u_lo) and math.isfinite(u_hi)):
        raise TruncationFailure(
            f"u image of the support window is not finite for "
            f"{distribution.label()} under {transform.label()}")
    j_lo = math.floor(u_lo)
    j_hi = math.floor(u_hi)
    cells = j_hi - j_lo + 1
    if cells > _MAX_CELLS:
        # float(j_hi) keeps a count past the doubles from raising
        needed, budget = _over_budget(float(j_hi) - j_lo + 1, _MAX_CELLS)
        raise TruncationFailure(
            f"{needed} integer cells exceed the budget of {budget} for "
            f"{distribution.label()} under {transform.label()}")

    probs = np.zeros_like(zs)
    for start in range(j_lo, j_hi + 1, _CHUNK):
        j = np.arange(start, min(start + _CHUNK, j_hi + 1),
                      dtype=np.float64)
        # a cell edge at x = 0 has lg = -inf, where cdf is 0 and sf is 1
        lg_left = transform.inverse_log10(j)
        cdf_left = distribution.cdf_log10(lg_left)
        sf_left = distribution.sf_log10(lg_left)
        # upper-half cells difference survivals, the rest cdfs, so neither
        # side cancels against a value near 1; runs[i] = (a, b, sf) marks
        # the cells a..b-1 of one side
        use_sf = cdf_left >= 0.5
        cuts = [0, *(np.flatnonzero(use_sf[1:] != use_sf[:-1]) + 1).tolist(),
                j.size]
        runs = [(a, b, bool(use_sf[a])) for a, b in zip(cuts, cuts[1:])]
        rows = max(1, _CHUNK // j.size)
        p_chunk = np.empty((min(rows, zs.size), j.size))
        for r0 in range(0, zs.size, rows):
            block = slice(r0, r0 + rows)
            lg_right = transform.inverse_log10(j + zs[block, None])
            p = p_chunk[:len(lg_right)]
            for a, b, sf in runs:
                if sf:
                    np.subtract(sf_left[a:b],
                                distribution.sf_log10(lg_right[:, a:b]),
                                out=p[:, a:b])
                else:
                    np.subtract(distribution.cdf_log10(lg_right[:, a:b]),
                                cdf_left[a:b], out=p[:, a:b])
            probs[block] += np.sum(np.maximum(p, 0.0, out=p), axis=1)

    errs = np.abs(probs - zs)
    i = int(errs.argmax())
    budget = 2.0 * _TAIL + 8.0 * cells * _EPS + 1e-15
    return Mod1Result(zs=zs, probs=probs, discrepancy=float(errs[i]),
                      worst_z=float(zs[i]), cells=cells,
                      error_budget=budget)


def discrepancy_bound(distribution, transform):
    """Certified ceiling 2*sup(pdf/u') for the mod-1 discrepancy; a
    ceiling past the largest double is refused, so bound / 2 is the sup."""
    bound = 2.0 * sup_ratio(distribution, transform)
    if not math.isfinite(bound):
        raise InvalidParameter(
            f"the ceiling 2*sup(pdf/u') for {distribution.label()} under "
            f"{transform.label()} lies outside the double range")
    return bound


@dataclass(frozen=True)
class BoundCertificate:
    discrepancy: float
    worst_z: float
    bound: float
    slack: float
    cells: int
    error_budget: float


def certify_mod1_bound(distribution, transform):
    """Measure the law and check it against its ceiling.

    Raises CertificateViolation when the measured discrepancy exceeds
    bound + error budget; propagates NotUnimodal/HypothesisViolated when
    the ceiling itself does not exist, and InvalidParameter when it is
    past the doubles.
    """
    bound = discrepancy_bound(distribution, transform)
    res = mod1_law(distribution, transform)
    slack = bound + res.error_budget - res.discrepancy
    if slack < 0.0:
        raise CertificateViolation(
            f"discrepancy {res.discrepancy:.6e} exceeds bound {bound:.6e} "
            f"(+budget {res.error_budget:.2e}) for {distribution.label()} "
            f"under {transform.label()} at z={res.worst_z:.6f}")
    return BoundCertificate(discrepancy=res.discrepancy,
                            worst_z=res.worst_z, bound=bound, slack=slack,
                            cells=res.cells, error_budget=res.error_budget)


# ---------------------------------------------------------------------------
# fraction law of pi*X**2 for uniform input: exact clamped-cell series

def p_delta_uniform(k, delta):
    """P({pi*X**2} <= delta) for X uniform on (0, k], summed exactly.

    With a = k*sqrt(pi), cell j contributes (min(sqrt(j+delta), a) -
    sqrt(j))/a; the top cell is clamped at the image boundary a, not at
    a**2, which underflows for tiny k. Cell 0 always carries mass.
    """
    delta = real("delta", delta, 0.0, 1.0)
    k = real("k", k)
    a = k * _SQRT_PI
    a2 = a * a
    # compared as a float, so an a**2 past the doubles is refused too
    if a2 > _MAX_UNIFORM_CELLS:
        needed, budget = _over_budget(a2, _MAX_UNIFORM_CELLS)
        raise TruncationFailure(
            f"{needed} cells exceed the budget of {budget} for k={k:g}")
    n = max(1, math.ceil(a2))
    step = _CHUNK * 16
    top = np.empty(min(n, step))
    total = 0.0
    for start in range(0, n, step):
        total += _uniform_cells(start, min(start + step, n), delta, a, top)
    return total / a


def _uniform_cells(start, stop, delta, a, buffer):
    """Sum of min(sqrt(j + delta), a) - sqrt(j) over cells start..stop-1,
    worked in place: in the caller's buffer of at least stop - start
    doubles, which it overwrites, and in one fresh array of j, freed on
    return, so two arrays live at a time."""
    j = np.arange(start, stop, dtype=np.float64)
    top = np.add(j, delta, out=buffer[:j.size])
    np.minimum(np.sqrt(top, out=top), a, out=top)
    top -= np.sqrt(j, out=j)
    return float(np.sum(top))


def p_delta_uniform_envelope(k, delta):
    """Two-sided envelope for p_delta_uniform, valid for every k > 0."""
    delta = real("delta", delta, 0.0, 1.0)
    k = real("k", k)
    a = k * _SQRT_PI
    a2 = a * a
    if a2 == math.inf:  # then sqrt(top) and sqrt(top + delta) read a
        edge = math.sqrt(delta) / a
        return delta - delta * edge, min(delta + edge, 1.0)
    if a2 < delta:  # no full cell, and delta / a may overflow
        return 0.0, 1.0
    top = math.floor(a2 - delta) + 1.0
    lower = (delta / a) * (math.sqrt(top + delta) - math.sqrt(delta))
    upper = math.sqrt(delta) / a + (delta / a) * math.sqrt(top)
    return lower, min(upper, 1.0)


# ---------------------------------------------------------------------------
# fraction law of pi*X**2 for exponential input: direct sum plus a
# tail-corrected remainder once the index budget runs out

def _exp_h(mu, j, delta):
    """exp(-mu*sqrt(j)) - exp(-mu*sqrt(j + delta)), worked in j's own
    buffer, which it overwrites, and one more array."""
    far = j + delta
    with np.errstate(over="ignore"):  # -mu * sqrt(j) is -inf for a huge mu
        np.exp(np.multiply(np.sqrt(j, out=j), -mu, out=j), out=j)
        np.exp(np.multiply(np.sqrt(far, out=far), -mu, out=far), out=far)
    j -= far
    return j


def p_delta_exponential(lam, delta):
    """P({pi*X**2} <= delta) for X exponential with rate lam.

    Sums exp(-mu*sqrt(j)) - exp(-mu*sqrt(j+delta)) with mu = lam/sqrt(pi).
    When the series has not decayed after _DIRECT_TERMS entries the rest is
    folded in through the integral plus trapezoid and curvature
    corrections, accurate to ~1e-11 absolute.
    """
    delta = real("delta", delta, 0.0, 1.0)
    lam = real("lam", lam)
    mu = lam / _SQRT_PI
    total = 0.0
    j0 = 0
    while j0 < _DIRECT_TERMS:
        j1 = min(j0 + _CHUNK * 4, _DIRECT_TERMS)
        terms = _exp_h(mu, np.arange(j0, j1, dtype=np.float64), delta)
        total += float(np.sum(terms))
        j0 = j1
        if terms[-1] < 1e-18 * max(total, 1e-300):
            return total
    # remainder from j0 onward: integral + h/2 - h'/12
    J = float(j0)

    def antideriv(t):
        # integral of exp(-mu*sqrt(s)) ds from t to infinity
        r = mu * math.sqrt(t)
        return (2.0 / (mu * mu)) * (1.0 + r) * math.exp(-r)

    integral = antideriv(J) - antideriv(J + delta)
    hj = float(_exp_h(mu, np.asarray([J]), delta)[0])
    hprime = (-mu / (2.0 * math.sqrt(J)) * math.exp(-mu * math.sqrt(J))
              + mu / (2.0 * math.sqrt(J + delta))
              * math.exp(-mu * math.sqrt(J + delta)))
    return total + integral + hj / 2.0 - hprime / 12.0


def p_delta_exponential_envelope(lam, delta):
    """Two-sided envelope for p_delta_exponential."""
    delta = real("delta", delta, 0.0, 1.0)
    lam = real("lam", lam)
    mu = lam / _SQRT_PI
    edge = math.exp(-mu * math.sqrt(delta))
    return delta * edge, min(1.0 - edge + delta, 1.0)
