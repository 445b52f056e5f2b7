"""Distributional conformance: the law of {u(X)} and its certified bounds.

mod1_law sums exact cell probabilities P(u(X) in [j, j+z]) over the integer
cells that carry mass, working on a log10 abscissa so heavy tails never
overflow. It evaluates blocks of z rows x cells, at most _CHUNK elements
each, with one cdf or survival call per block and run of adjacent cells on
one side of the median; every row still sums its cells in cell order, so
each probability is bit-identical to evaluating one z at a time. A law
owns its block arrays, one array of three blocks per chunk of cells: the
rows y = j + z, their log10 preimages, and the cell probabilities. Every
step of the row loop writes into them, the family's values included
(`out=`), so the loop allocates no array of block size: fresh pages for
a new array at each step of each block cost a large law about a fifth of
its time.
discrepancy_bound turns the closed-form supremum of pdf/u' into the
certified ceiling 2*sup; certify_mod1_bound measures one against the other
and raises if the measurement ever crosses the ceiling.

The two fraction laws with explicit series (uniform and exponential inputs
under pi*x**2) get dedicated series, each with its two-sided envelope: a
clamped-cell sum for the uniform case and a direct-plus-tail-corrected
sum for the exponential one. Each series takes a whole delta grid in one
call and checks every value it computed against its envelope before it
returns them. Both sums walk np.sum's own pairwise tree (_pairwise_sums),
so every double is the one np.sum gives; at each leaf of at most _BLOCK
cells, the work that does not depend on delta (j and sqrt(j), or
exp(-mu*sqrt(j))) is done once for the whole grid, in four leaf arrays
of 1 MiB in all, whatever k. Neither sum is exact (up to 3.3e-11 off for
the uniform one at k = 1000, up to 1.8e-9 for the exponential one at
table3's deltas); see each.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import sup_ratio
from .errors import CertificateViolation, InvalidParameter, \
    TruncationFailure, points, real

_SQRT_PI = math.sqrt(math.pi)
_EPS = float(np.finfo(np.float64).eps)
_CHUNK = 1 << 16
_TAIL = 1e-14  # mod1_law's tail mass on each side
_MAX_CELLS = 5_000_000  # mod1_law's budget of integer cells
_MAX_UNIFORM_CELLS = 50_000_000  # p_delta_uniform's budget of cells
_UNIFORM_CHUNK = _CHUNK * 16  # p_delta_uniform's cells per pairwise sum,
# added in order: the unit of summation its pinned bits were taken with
_BLOCK = 1 << 15  # the P_delta series' cells per leaf of _pairwise_sums
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

    Per chunk the law allocates one array of three blocks, for the rows
    y = j + z, their preimages (Transform.inverse_log10 with out=) and
    the cell probabilities, and the row loop allocates none of block
    size: the family writes each run's values (cdf_log10/sf_log10 with
    out=) into the rows' buffer, contiguous, once the preimages are
    taken. Only the erfc kernel's scratch (special._erfc_big) is taken
    per call, as one array of three.
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
        shape = (min(rows, zs.size), j.size)
        chunk = np.empty((3,) + shape)
        y_chunk, lg_chunk, p_chunk = chunk[0], chunk[1], chunk[2]
        flat = y_chunk.reshape(-1)
        for r0 in range(0, zs.size, rows):
            block = slice(r0, r0 + rows)
            z = zs[block, None]
            k = len(z)
            lg_right = transform.inverse_log10(
                np.add(j, z, out=y_chunk[:k]), out=lg_chunk[:k])
            p = p_chunk[:k]
            for a, b, sf in runs:
                # the run's values, contiguous, in the rows' buffer
                values = flat[:k * (b - a)].reshape(k, b - a)
                if sf:
                    np.subtract(sf_left[a:b], distribution.sf_log10(
                        lg_right[:, a:b], out=values), out=p[:, a:b])
                else:
                    np.subtract(distribution.cdf_log10(
                        lg_right[:, a:b], out=values), cdf_left[a:b],
                        out=p[:, a:b])
            probs[block] += np.add.reduce(np.maximum(p, 0.0, out=p), axis=1)

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
# fraction laws of pi*X**2: the series' grid and envelope check, then the
# clamped-cell series for uniform input

def _deltas(deltas):
    """A series' grid: floats strictly inside (0, 1), at least one."""
    return [real("delta", d, 0.0, 1.0) for d in points("deltas", deltas)]


def _enveloped(parameter, deltas, values, envelope):
    """values; CertificateViolation, naming parameter as the caller gave
    it, at the first in delta order outside its envelope by over 1e-9."""
    for delta, p in zip(deltas, values):
        lo, hi = envelope(parameter, delta)
        if not lo - 1e-9 <= p <= hi + 1e-9:
            raise CertificateViolation(
                f"P_delta({parameter}, {delta}) = {p} outside [{lo}, {hi}]")
    return values


def _pairwise_sums(leaf, lo, n):
    """The sums of the n cells from lo, one per delta, added as
    np.add.reduce adds a contiguous float64 array: up to 128 values by
    eight accumulators, a longer run split at n//2 rounded down to a
    multiple of 8 and its halves' sums added. Runs of at most _BLOCK
    cells are leaves, which leaf(lo, size) sums with np.add.reduce into
    an array of one sum per delta, called in ascending order. numpy's
    0.0 identity, added here once per leaf and there once per array,
    changes no sum: no cell is -0.0, so no partial sum is."""
    if n <= _BLOCK:
        return leaf(lo, n)
    half = n // 2 - n // 2 % 8
    return _pairwise_sums(leaf, lo, half) \
        + _pairwise_sums(leaf, lo + half, n - half)


def p_delta_uniform(k, deltas):
    """P({pi*X**2} <= delta) for X uniform on (0, k], at each delta of
    the grid deltas (_deltas), as a list checked by _enveloped.

    With a = k*sqrt(pi), cell j contributes (min(sqrt(j+delta), a) -
    sqrt(j))/a; the top cell is clamped at the image boundary a, not at
    a**2, which underflows for tiny k. Cell 0 always carries mass. Each
    chunk of _UNIFORM_CHUNK cells is summed as np.sum would sum it
    (_pairwise_sums), and the chunks' sums in order. The result is not
    exact: each cell is a difference of two rounded roots of a rounded
    j + delta, and at k = 1000 the sum is off by 1.7e-11 to 3.3e-11 at
    every delta of DELTA_GRID but 0.5, against
    delta/(sqrt(j+delta)+sqrt(j)) summed by math.fsum. That stable form
    waits on ROADMAP items 1 and 4, since it moves table3's uniform
    defect past perfbench's pinned z.

    Each leaf takes j = iota + offset (exact) and sqrt(j) once; each
    delta then fills the leaf's cells, sqrt(j + delta) less sqrt(j), and
    sums them while they sit in cache. Only the top cell n - 1 is
    clamped: n = ceil(a**2 in doubles), so n - 1 < a*a exactly, and for
    j <= n - 2 the double j + delta is at most n - 1, whose rounded root,
    rounding being monotone, is at most a.
    """
    deltas = _deltas(deltas)
    parameter, k = k, real("k", k)
    a = k * _SQRT_PI
    a2 = a * a
    # compared as a float, so an a**2 past the doubles is refused too
    if a2 > _MAX_UNIFORM_CELLS:
        needed, budget = _over_budget(a2, _MAX_UNIFORM_CELLS)
        if a2 == math.inf:  # pi*k**2 from its logarithm, at three digits
            e = math.log10(math.pi) + 2.0 * math.log10(k)
            m, x = f"{10.0 ** (e % 1.0 + 100.0):.3g}".split("e+")
            needed = f"{m}e+{int(x) - 100 + math.floor(e)}"
        raise TruncationFailure(
            f"{needed} cells exceed the budget of {budget} for k={k:g}")
    n = max(1, math.ceil(a2))
    iota = np.arange(min(n, _BLOCK), dtype=np.float64)
    j, root, cells = (np.empty_like(iota) for _ in range(3))

    def leaf(lo, size):
        np.sqrt(np.add(iota[:size], lo, out=j[:size]), out=root[:size])
        sums = np.empty(len(deltas))
        for i, delta in enumerate(deltas):
            cell = np.add(j[:size], delta, out=cells[:size])
            np.subtract(np.sqrt(cell, out=cell), root[:size], out=cell)
            if lo + size == n:  # the top cell, clamped at a
                cell[-1] = min(math.sqrt(n - 1 + delta), a) \
                    - math.sqrt(n - 1)
            sums[i] = np.add.reduce(cell)
        return sums

    totals = sum(_pairwise_sums(leaf, start, min(n - start, _UNIFORM_CHUNK))
                 for start in range(0, n, _UNIFORM_CHUNK))
    return _enveloped(parameter, deltas, (totals / a).tolist(),
                      p_delta_uniform_envelope)


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

def _exp_root(mu, x):
    """exp(-mu*sqrt(x)), worked in x's own buffer, which it overwrites."""
    with np.errstate(over="ignore"):  # -mu * sqrt(x) is -inf for a huge mu
        return np.exp(np.multiply(np.sqrt(x, out=x), -mu, out=x), out=x)


def p_delta_exponential(lam, deltas):
    """P({pi*X**2} <= delta) for X exponential with rate lam, at each
    delta of the grid deltas (_deltas), as a list checked by _enveloped.

    Sums exp(-mu*sqrt(j)) - exp(-mu*sqrt(j+delta)) with mu = lam/sqrt(pi)
    over the first _DIRECT_TERMS j, as np.sum would sum them
    (_pairwise_sums); each leaf takes exp(-mu*sqrt(j)) once for every
    delta. Where a delta's series has not decayed by then, the rest is
    folded in through the integral plus trapezoid and curvature
    corrections. Both the differences of two exps and the tail's
    antiderivatives cancel: over table3's deltas the value is off by
    2.5e-10 to 1.8e-9 (6.5e-10 at lam = 1e-3, delta = 0.5, against an
    mpmath Euler-Maclaurin sum). The mend waits on ROADMAP items 1 and 4,
    since it moves table3's exponential defect past perfbench's pinned z.
    """
    deltas = _deltas(deltas)
    mu = real("lam", lam) / _SQRT_PI
    iota = np.arange(_BLOCK, dtype=np.float64)
    j, near, far = (np.empty_like(iota) for _ in range(3))
    last = np.empty(len(deltas))  # each delta's last term: the top leaf's

    def leaf(lo, size):
        np.add(iota[:size], lo, out=j[:size])
        _exp_root(mu, np.add(iota[:size], lo, out=near[:size]))
        sums = np.empty(len(deltas))
        for i, delta in enumerate(deltas):
            terms = _exp_root(mu, np.add(j[:size], delta, out=far[:size]))
            np.subtract(near[:size], terms, out=terms)
            sums[i] = np.add.reduce(terms)
            last[i] = terms[-1]
        return sums

    totals = _pairwise_sums(leaf, 0, _DIRECT_TERMS).tolist()
    out = [total if term < 1e-18 * max(total, 1e-300)
           else _exp_tail(mu, delta, total)
           for delta, total, term in zip(deltas, totals, last)]
    return _enveloped(lam, deltas, out, p_delta_exponential_envelope)


def _exp_tail(mu, delta, total):
    """total, the direct sum of p_delta_exponential at delta, plus the
    remainder from _DIRECT_TERMS onward: integral + h/2 - h'/12."""
    J = float(_DIRECT_TERMS)

    def antideriv(t):
        # integral of exp(-mu*sqrt(s)) ds from t to infinity
        r = mu * math.sqrt(t)
        return (2.0 / (mu * mu)) * (1.0 + r) * math.exp(-r)

    integral = antideriv(J) - antideriv(J + delta)
    ends = _exp_root(mu, np.array([J, J + delta]))
    hj = float(ends[0] - ends[1])
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
