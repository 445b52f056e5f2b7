"""Experiment drivers: the sequence table, the distribution-limit table,
bound sweeps along parameter paths, and cell-probability curves.

Each driver returns a frozen report object; rendering lives in `report`.
Cell evaluation can fan out over a process pool, but reports are always
assembled in (row, column) order, so worker count never changes output.
"""

from dataclasses import dataclass

import numpy as np

from .bigreal import DEFAULT_POLICY, BigReal
from .bounds import (certify_mod1_bound, mod1_law, p_delta_exponential,
                     p_delta_exponential_envelope, p_delta_uniform,
                     p_delta_uniform_envelope)
from .distributions import DISTRIBUTIONS, HalfNormal, build_distribution
from .errors import EmptySample, InvalidParameter, count, points, real
from .sequences import Sequence, frac_sample, odd_nonsquare, parse_sequence
from .stats import digit_report, kolmogorov_q, ks_uniform
from .transforms import IDENTITY, LOG10, LOGLOG, PI_SQUARE, SQRT, Log, \
    _Certifier

# Row and column order of the published sequence table: sequences sorted by
# divergence speed, transforms likewise.
TABLE1_FAST_SEQUENCES = ("sqrt_n", "pi_n", "primes")
TABLE1_SLOW_SEQUENCES = ("exp_n", "factorial", "n_pow_n")
TABLE1_TRANSFORMS = (LOGLOG, LOG10, SQRT, PI_SQUARE)

# Limit-table columns, parameter paths toward the limit, half-normal sigma.
TABLE3_TRANSFORMS = (LOG10, SQRT, PI_SQUARE)
UNIFORM_SUP_PATH = (1e2, 1e4, 1e6)
UNIFORM_CELL_PATH = (10.0, 100.0, 1000.0)
EXPONENTIAL_SUP_PATH = (1.0, 0.1, 0.01)
EXPONENTIAL_CELL_PATH = (0.1, 0.01, 0.001)
TABLE3_SIGMA = 1e4

# Verdict thresholds: a family is accepted as conforming when the
# end-of-path uniformity defect is below LIMIT_DEFECT; a sampled row is
# rejected below ALPHA_REJECT and accepted above ALPHA_ACCEPT.
LIMIT_DEFECT = 0.1
ALPHA_REJECT = 0.01
ALPHA_ACCEPT = 0.05

# The reference table prints two cells whose z and p contradict each other:
# sqrt_n/pi_square (a near-zero statistic next to a near-zero p) and
# exp_n/log10 (z = 0.76 next to p = 1.000, where Q(0.76) = 0.61). We report
# our computed value for them and carry this flag instead of forcing
# agreement.
INCONSISTENT_REFERENCE_CELLS = (("sqrt_n", "pi_square"), ("exp_n", "log10"))

DELTA_GRID = tuple(i / 10 for i in range(1, 10))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov cells

@dataclass(frozen=True)
class KsCell:
    """One table cell: KS test of {u(x_n)} against the uniform law."""

    sequence: str
    transform: str
    n_requested: int
    n_used: int
    excluded: int
    statistic: float
    z: float
    p: float


def ks_cell(sequence, transform, n_max, policy=DEFAULT_POLICY,
            index_filter=None, label=None):
    """Certified fractional parts of u(x_n), then the KS verdict.

    EmptySample, naming the cell, refuses one where the index filter and
    the transform's domain leave no term to test.
    """
    if not isinstance(sequence, Sequence):
        sequence = parse_sequence(sequence)
    if label is None:
        label = sequence.name
    sample = frac_sample(sequence, transform, n_max, policy,
                         index_filter=index_filter)
    if not sample.size:
        raise EmptySample(
            f"{label}: no term of the first {n_max} is left to test under "
            f"{transform.label()} ({sample.n_requested} requested, "
            f"{sample.excluded} outside its domain)")
    statistic, z = ks_uniform(sample.values)
    return KsCell(
        sequence=label,
        transform=transform.label(),
        n_requested=sample.n_requested,
        n_used=sample.size,
        excluded=sample.excluded,
        statistic=statistic,
        z=z,
        p=kolmogorov_q(z),
    )


def _cell_task(spec):
    # module-level so process pools can pickle it by reference
    seq_text, transform, n_max, policy, filtered, label = spec
    return ks_cell(seq_text, transform, n_max, policy,
                   index_filter=odd_nonsquare if filtered else None,
                   label=label)


def _run_cells(specs, workers):
    if workers == 1:
        return [_cell_task(s) for s in specs]
    # imported here: it pulls in multiprocessing, which every CLI command
    # would otherwise pay for at start-up
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map preserves submission order, so assembly stays deterministic
        return list(pool.map(_cell_task, specs))


@dataclass(frozen=True)
class Table1Report:
    """6x4 grid of KS cells plus the two follow-up runs.

    `cells` is row-major over (sequence, transform); `reruns` holds the
    odd-non-square restriction of the n**n row under the square root and
    the n**(1/pi) power law under the identity map. `flagged` marks cells
    whose reference values are internally inconsistent, so only our
    computed value is meaningful there.
    """

    n_fast: int
    n_slow: int
    cells: tuple
    reruns: tuple
    flagged: tuple = INCONSISTENT_REFERENCE_CELLS


def run_table1(n_fast=10000, n_slow=1000, workers=1, policy=DEFAULT_POLICY):
    """The full sequence-by-transform KS table.

    Slowly diverging sequences get `n_fast` terms, the super-polynomial
    ones `n_slow`. `workers` > 1 evaluates cells in a process pool.
    n_slow is at least 3, the first odd non-square n of the n**n rerun,
    so a table that would end in an empty sample is refused before any
    cell runs.
    """
    n_fast = count("n_fast", n_fast, 2)
    n_slow = count("n_slow", n_slow, 3)
    workers = count("workers", workers, 1)
    specs = []
    for name in TABLE1_FAST_SEQUENCES + TABLE1_SLOW_SEQUENCES:
        n = n_fast if name in TABLE1_FAST_SEQUENCES else n_slow
        for transform in TABLE1_TRANSFORMS:
            specs.append((name, transform, n, policy, False, None))
    specs.append(("n_pow_n", SQRT, n_slow, policy, True,
                  "n_pow_n_odd_nonsquare"))
    specs.append(("power_law:1/pi", IDENTITY, n_slow, policy, False, None))
    # a pool forks all its workers up front; more than one per cell is waste
    cells = _run_cells(specs, min(workers, len(specs)))
    return Table1Report(n_fast=n_fast, n_slow=n_slow,
                        cells=tuple(cells[:-2]), reruns=tuple(cells[-2:]))


# ---------------------------------------------------------------------------
# distribution-limit table

@dataclass(frozen=True)
class LimitCell:
    """Conformance verdict for a family limit under one transform.

    `path` pairs each parameter along the limit path with the measured
    uniformity defect there; the verdict reads the final entry.
    """

    transform: str
    route: str  # "mod1-sup" or "cell-gap"
    path: tuple
    defect: float
    verdict: str


@dataclass(frozen=True)
class SampleCell:
    """KS verdict for one transform of a finite seeded sample."""

    transform: str
    z: float
    p: float
    verdict: str


@dataclass(frozen=True)
class Table3Report:
    seed: int
    sigma: float
    sample_size: int
    uniform_row: tuple
    exponential_row: tuple
    half_normal_row: tuple


def _limit_cell(family, transform, sup_path, cell_path):
    if transform == PI_SQUARE:
        # no bounded density ratio here; measure max_delta |P_delta - delta|
        # along the path instead, from the envelope-checked series
        path = [(param, max(r.gap for r in pdelta_curve(family, param).rows))
                for param in cell_path]
        route = "cell-gap"
    else:
        path = [(param, mod1_law(DISTRIBUTIONS[family](param),
                                 transform).discrepancy)
                for param in sup_path]
        route = "mod1-sup"
    defect = path[-1][1]
    verdict = "YES" if defect < LIMIT_DEFECT else "NO"
    return LimitCell(transform=transform.label(), route=route,
                     path=tuple(path), defect=defect, verdict=verdict)


def sample_cell(values, transform):
    """KS cell for a float sample, its fractional parts {u(x)} certified as
    analyze_dataset certifies them: each double is an exact binary
    rational, so scatter far past the doubles' resolution still tests
    the true fractions.

    Raises InvalidParameter naming the first value that is not finite,
    and DomainError when a value lies outside the transform's domain.
    """
    xs = np.asarray(values, dtype=np.float64)
    bad = xs[~np.isfinite(xs)]
    if bad.size:
        raise InvalidParameter(f"sample value {bad[0]} is not finite")
    certifier = _Certifier(transform, DEFAULT_POLICY)
    fracs, outside = certifier.fracs(xs)
    if outside.any():
        # certified again on its own, the first such value raises its
        # DomainError
        certifier.frac(BigReal.from_float(xs[outside][0].item()))
    statistic, z = ks_uniform(fracs)
    p = kolmogorov_q(z)
    if p < ALPHA_REJECT:
        verdict = "rejected"
    elif p > ALPHA_ACCEPT:
        verdict = "not rejected"
    else:
        verdict = "inconclusive"
    return SampleCell(transform=transform.label(), z=z, p=p, verdict=verdict)


def run_table3(seed=0, sample_size=2000):
    """Limit verdicts for the uniform and exponential families plus a
    seeded half-normal sample tested at finite size.

    The limit rows follow the two certified routes (density-ratio ceiling
    where one exists, cell-probability gap otherwise); the sampled row is
    an honest finite-N KS test of certified fractional parts (see
    sample_cell), so its magnitudes move with the seed.
    """
    sample_size = count("sample_size", sample_size, 2)
    # drawn first: a bad seed is refused before the limit rows
    xs = HalfNormal(TABLE3_SIGMA).sample(sample_size, seed)
    uniform_row = tuple(
        _limit_cell("uniform", t, UNIFORM_SUP_PATH, UNIFORM_CELL_PATH)
        for t in TABLE3_TRANSFORMS)
    exponential_row = tuple(
        _limit_cell("exponential", t, EXPONENTIAL_SUP_PATH,
                    EXPONENTIAL_CELL_PATH)
        for t in TABLE3_TRANSFORMS)
    half_normal_row = tuple(sample_cell(xs, t) for t in TABLE3_TRANSFORMS)
    return Table3Report(seed=int(seed), sigma=TABLE3_SIGMA,
                        sample_size=sample_size,
                        uniform_row=uniform_row,
                        exponential_row=exponential_row,
                        half_normal_row=half_normal_row)


# ---------------------------------------------------------------------------
# bound sweeps

@dataclass(frozen=True)
class SweepRow:
    """One sweep point: `parameter` is a float for a one-parameter point,
    a tuple of floats for a point of several parameters."""

    parameter: object
    ratio_sup: float
    bound: float
    discrepancy: float
    worst_z: float
    slack: float
    error_budget: float


@dataclass(frozen=True)
class BoundSweepReport:
    """Certified discrepancy ceilings along a shrinking-parameter path."""

    family: str
    transform: str
    certificate: str
    rows: tuple


def bound_sweep(family, params, transform=LOG10):
    """certify_mod1_bound at each point of a parameter path.

    A point is a number (one-parameter families) or a sequence of numbers,
    the family's positional parameters, e.g. (mu, sigma) for lognormal10.
    Raises CertificateViolation if any measured discrepancy lands above
    its ceiling; that is an internal failure, never a data verdict.
    """
    rows = []
    for param in points("params", params):
        point = tuple(param) if isinstance(param, (tuple, list)) else (param,)
        dist = build_distribution(family, point)
        cert = certify_mod1_bound(dist, transform)
        rows.append(SweepRow(
            parameter=(float(point[0]) if len(point) == 1
                       else tuple(float(p) for p in point)),
            ratio_sup=cert.bound / 2.0,
            bound=cert.bound,
            discrepancy=cert.discrepancy,
            worst_z=cert.worst_z,
            slack=cert.slack,
            error_budget=cert.error_budget,
        ))
    certificate = ("log-scale-density-bound" if isinstance(transform, Log)
                   else "u-scale-density-bound")
    return BoundSweepReport(family=family, transform=transform.label(),
                            certificate=certificate, rows=tuple(rows))


# ---------------------------------------------------------------------------
# cell-probability curves

@dataclass(frozen=True)
class PDeltaRow:
    delta: float
    probability: float
    lower: float
    upper: float
    gap: float


@dataclass(frozen=True)
class PDeltaReport:
    """P(frac within delta of a cell start) with its analytic envelope."""

    family: str
    parameter: float
    rows: tuple


def pdelta_curve(family, parameter, deltas=None):
    """Certified cell-probability series with envelope verification.

    `family` is "uniform" (parameter k, the support endpoint) or
    "exponential" (parameter lambda, the rate). Its series takes the grid
    in one call and raises CertificateViolation where a probability
    breaches its analytic envelope, which each row carries; InvalidParameter
    where the parameter is not finite and positive or a delta is outside
    (0, 1). Each row's probability is the series' value clamped into the
    row's envelope, which the series may pass by its 1e-9 slack: the true
    value lies inside, so the clamped value is no farther from it.
    """
    deltas = DELTA_GRID if deltas is None else points("deltas", deltas)
    if family == "uniform":
        series, envelope = p_delta_uniform, p_delta_uniform_envelope
    elif family == "exponential":
        series, envelope = p_delta_exponential, p_delta_exponential_envelope
    else:
        raise InvalidParameter(
            f"no cell-probability series for family {family!r}")
    # the deltas up to the first one refused; that refusal is raised only
    # after the series on the deltas before it, and with none before it
    # the parameter is not read, so each delta's fault surfaces in order
    read, refusal = [], None
    try:
        for delta in deltas:
            read.append(real("delta", delta, 0.0, 1.0))
    except InvalidParameter as exc:
        refusal = exc
    rows = []
    for delta, p in zip(read, series(parameter, read) if read else ()):
        lo, hi = envelope(parameter, delta)
        p = min(max(p, lo), hi)
        rows.append(PDeltaRow(delta=delta, probability=p,
                              lower=lo, upper=hi, gap=abs(p - delta)))
    if refusal is not None:
        raise refusal
    return PDeltaReport(family=family, parameter=float(parameter),
                        rows=tuple(rows))


# ---------------------------------------------------------------------------
# dataset analysis

@dataclass(frozen=True)
class AnalyzeReport:
    """Digit-frequency and mod-1 uniformity verdicts for one dataset."""

    dataset: str
    sample_size: int
    dropped: int
    transform: str
    base: int
    alpha: float
    digits: object  # stats.DigitReport
    ks_statistic: float
    z: float
    p: float
    verdict: str
    fracs: tuple  # sorted {u(x)}, kept for ECDF plotting


def analyze_dataset(dataset, transform=LOG10, base=10, alpha=0.05,
                    policy=DEFAULT_POLICY):
    """Run both conformance views over an ingested dataset.

    Values go through the certified evaluation path, _Certifier.fracs
    (floats are exact binary rationals, so even pi*x**2 of a large entry
    keeps a trustworthy fractional part), then a KS test against
    uniformity; the leading-digit table is tested separately in the
    requested base, over every ingested value. Values outside the
    transform's domain (x <= 1 under the iterated log) are skipped and
    counted in `dropped`, so `sample_size` is the number of fractional
    parts tested; EmptySample, naming the dataset, the transform and the
    dropped count, refuses a dataset with no value in that domain.
    """
    digits = digit_report(dataset.values, base=base, alpha=alpha)
    fracs, outside = _Certifier(transform, policy).fracs(dataset.values)
    fracs = fracs[~outside]
    out_of_domain = int(outside.sum())
    dropped = dataset.dropped + out_of_domain
    if not fracs.size:
        raise EmptySample(
            f"{dataset.name}: no value lies in the domain of "
            f"{transform.label()} ({dropped} rows dropped, "
            f"{out_of_domain} of them outside that domain)")
    statistic, z = ks_uniform(fracs)
    p = kolmogorov_q(z)
    return AnalyzeReport(
        dataset=dataset.name,
        sample_size=int(fracs.size),
        dropped=dropped,
        transform=transform.label(),
        base=digits.base,
        alpha=digits.alpha,
        digits=digits,
        ks_statistic=statistic,
        z=z,
        p=p,
        verdict="inconsistent" if p < digits.alpha else "consistent",
        fracs=tuple(np.sort(fracs).tolist()),
    )
