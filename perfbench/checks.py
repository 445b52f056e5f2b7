"""Output checks, run after the timed passes, through routes independent of
the code under test wherever one exists:

- seq cells: mpmath recomputes {u(x_n)} for a seeded handful of terms per
  cell; the 26 paper cells must reproduce the z recorded in
  `reference_z.json` (recorded from this program, not the published table);
  seeded power-law cells get their whole KS statistic recomputed from
  float64 (where doubles hold the fractional part) or mpmath terms.
- dist-laws: probabilities monotone in z and inside [0, 1]; discrepancy
  within bound + budget; each law recomputed at a few z from closed forms
  or scipy/numpy cell sums; table3's limit rows against recorded values and
  its sampled row against scipy's KS statistic.
- data-csv: ingest results against what the generator wrote; the KS
  statistic against scipy.stats.kstest on float64 np.mod(u(x), 1) (log10)
  or mpmath fractional parts (sqrt, pi*x**2); leading digits from exact
  decimal expansions.

Each check returns None or a one-line reason.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
from decimal import Decimal

import mpmath
import numpy as np
from scipy import special, stats

HERE = os.path.dirname(os.path.abspath(__file__))
FRAC_TOL = 1e-12   # "12 digits" for single fractional parts
Z_REF_TOL = 1e-12  # recorded-z reproduction
LAW_TOL = 1e-9     # independent law recomputation, on top of the budget


def load_reference():
    with open(os.path.join(HERE, "reference_z.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _wrap_diff(a, b):
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# sequences

def _primes_upto(limit):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.nonzero(sieve)[0]


_PRIMES = _primes_upto(110000)  # p_10000 = 104729


def _term_log10(seq, n):
    if seq == "sqrt_n":
        return 0.5 * math.log10(n)
    if seq == "pi_n":
        return math.log10(math.pi * n)
    if seq == "primes":
        return math.log10(int(_PRIMES[n - 1]))
    if seq == "exp_n":
        return n / math.log(10.0)
    if seq == "factorial":
        return math.lgamma(n + 1) / math.log(10.0)
    if seq == "n_pow_n":
        return n * math.log10(n)
    c = _power(seq)
    return (1.0 / math.pi if c is None else c) * math.log10(n)


def _power(seq):
    """Exponent of a power-law spec (None for 1/pi)."""
    arg = seq.partition(":")[2]
    return None if arg == "1/pi" else float(arg)


def _mp_term(seq, n):
    mp = mpmath.mp
    if seq == "sqrt_n":
        return mp.sqrt(n)
    if seq == "pi_n":
        return mp.pi * n
    if seq == "primes":
        return mp.mpf(int(_PRIMES[n - 1]))
    if seq == "exp_n":
        return mp.exp(n)
    if seq == "factorial":
        return mp.mpf(math.factorial(n))
    if seq == "n_pow_n":
        return mp.mpf(n) ** n
    c = _power(seq)
    return mp.mpf(n) ** (1 / mp.pi if c is None else mp.mpf(c))


def _u_digits(transform, lg):
    """Integer digits of u(x) for log10 x = lg (rough, for mp precision)."""
    if transform == "pi_square":
        return 2 * lg + 1
    if transform == "sqrt":
        return lg / 2 + 1
    if transform == "identity":
        return lg + 1
    return 4


def mp_frac(seq, transform, n):
    """{u(x_n)} from mpmath, or None when x_n is outside the domain."""
    lg = _term_log10(seq, n)
    dps = int(max(lg, _u_digits(transform, lg))) + 40
    with mpmath.workdps(dps):
        x = _mp_term(seq, n)
        if transform == "loglog":
            if x <= 1:
                return None
            u = mpmath.log10(mpmath.log10(x))
        elif transform == "log10":
            u = mpmath.log10(x)
        elif transform == "sqrt":
            u = mpmath.sqrt(x)
        elif transform == "pi_square":
            u = mpmath.pi * x * x
        else:
            u = x
        return float(u - mpmath.floor(u))


def _ks_statistic(fracs):
    return float(stats.kstest(np.asarray(fracs, dtype=np.float64),
                              "uniform").statistic)


def _power_law_fracs(seq, transform, n_max):
    """All {u(n**c)}: float64 where doubles hold the fractional part to
    ~1e-12, mpmath otherwise."""
    c = _power(seq)
    n = np.arange(1, n_max + 1, dtype=np.float64)
    top = c * math.log10(n_max)  # log10 of the largest term
    if transform == "log10":
        return np.mod(c * np.log10(n), 1.0)
    if transform == "sqrt" and top / 2 < 4.5:
        return np.mod(n ** (c / 2), 1.0)
    if transform == "identity" and top < 4.5:
        return np.mod(n ** c, 1.0)
    return np.array([mp_frac(seq, transform, k) for k in range(1, n_max + 1)])


def check_ks_cell(ub, spec, out, reference, rng):
    n_used, n_req = out["n_used"], out["n_requested"]
    if n_used + out["excluded"] != n_req:
        return "n_used + excluded != n_requested"
    if not (0.0 <= out["p"] <= 1.0 and 0.0 <= out["statistic"] <= 1.0):
        return "statistic or p outside [0, 1]"
    if abs(out["z"] - math.sqrt(n_used) * out["statistic"]) > 1e-12 * max(
            1.0, out["z"]):
        return "z != sqrt(n) * D"
    key = f"{out['sequence']}/{out['transform']}"
    if spec["paper"]:
        ref = reference.get(key)
        if ref is None:
            return f"no recorded z for paper cell {key}"
        for field in ("n_requested", "n_used", "excluded"):
            if out[field] != ref[field]:
                return f"{field} {out[field]} != recorded {ref[field]}"
        for field in ("statistic", "z", "p"):
            if abs(out[field] - ref[field]) > Z_REF_TOL * max(1.0,
                                                             abs(ref[field])):
                return f"{field} {out[field]!r} != recorded {ref[field]!r}"
    else:
        fracs = _power_law_fracs(spec["seq"], spec["transform"], spec["n"])
        d = _ks_statistic(fracs)
        if abs(d - out["statistic"]) > 1e-9:
            return (f"KS statistic {out['statistic']!r} != independent "
                    f"route {d!r}")
    # a seeded handful of single terms: library route vs mpmath
    from ubenford.sequences import odd_nonsquare
    transform = ub.Transform.parse(spec["transform"])
    seq = ub.parse_sequence(spec["seq"])
    picks = []
    while len(picks) < 3:
        k = rng.randint(1, spec["n"])
        if not spec["filtered"] or odd_nonsquare(k):
            picks.append(k)
    if not spec["filtered"]:
        picks[0] = 1  # the domain edge, excluded under loglog for some rows
    for k in picks:
        sample = ub.frac_sample(seq, transform, k,
                                index_filter=lambda m, k=k: m == k)
        lib = float(sample.values[0]) if sample.size else None
        ref = mp_frac(spec["seq"], spec["transform"], k)
        if (lib is None) != (ref is None):
            return f"term {k}: domain exclusion disagrees with mpmath"
        if lib is not None and _wrap_diff(lib, ref) > FRAC_TOL:
            return f"term {k}: frac {lib!r} != mpmath {ref!r}"
    return None


# ---------------------------------------------------------------------------
# distribution laws

def _law_cells(dist, transform, zs):
    """Independent P({u(X)} <= z) for each z: closed forms or cell sums."""
    fam, _, args = dist.partition(":")
    p = [float(a) for a in args.split(",")]
    zs = np.asarray(zs, dtype=np.float64)
    ln10 = math.log(10.0)
    if fam == "pareto_i" and transform == "log10":
        # log10 X ~ Exponential(alpha * ln 10) when x0 = 1
        lam = p[0] * ln10
        return -np.expm1(-lam * zs) / -math.expm1(-lam)
    if fam == "pareto_ii" and transform == "log10":
        b = p[0]
        j = np.arange(math.floor(-20 + math.log10(1 / b)) - 1,
                      math.ceil(18 / b) + 2, dtype=np.float64)
        def sf(lg):  # (1 + 10**lg)**-b, overflow-free
            return np.exp(-b * np.logaddexp(0.0, lg * ln10))
        return np.array([math.fsum(sf(j) - sf(j + z)) for z in zs])
    if fam == "lognormal10" and transform == "log10":
        mu, sigma = p
        j = np.arange(math.floor(mu - 12 * sigma) - 1,
                      math.ceil(mu + 12 * sigma) + 2, dtype=np.float64)
        return np.array([math.fsum(stats.norm.cdf(j + z, mu, sigma)
                                   - stats.norm.cdf(j, mu, sigma))
                         for z in zs])
    if fam == "uniform" and transform == "log10":
        k = p[0]
        top = math.floor(math.log10(k))
        j = np.arange(top - 22, top + 1, dtype=np.float64)
        return np.array([math.fsum(np.minimum(10.0 ** (j + z), k)
                                   - np.minimum(10.0 ** j, k)) / k
                         for z in zs])
    if fam == "exponential" and transform == "log10":
        lam = p[0]
        j = np.arange(math.floor(-20 - math.log10(lam)),
                      math.ceil(math.log10(50 / lam)) + 2, dtype=np.float64)
        small = lam * 10.0 ** j < 1.0
        def cell(z):
            a, b = lam * 10.0 ** j, lam * 10.0 ** (j + z)
            # cdf differences below the median, sf differences above
            return np.where(small, np.expm1(-a) - np.expm1(-b),
                            np.exp(-a) - np.exp(-b))
        return np.array([math.fsum(cell(z)) for z in zs])
    if transform == "sqrt":
        if fam == "uniform":
            k = p[0]
            j = np.arange(0, math.isqrt(int(k)) + 2, dtype=np.float64)
            return np.array([math.fsum(np.minimum((j + z) ** 2, k)
                                       - np.minimum(j ** 2, k)) / k
                             for z in zs])
        if fam == "exponential":
            lam = p[0]
            j = np.arange(0, math.ceil(math.sqrt(40.0 / lam)) + 2,
                          dtype=np.float64)
            return np.array([math.fsum(np.exp(-lam * j ** 2)
                                       - np.exp(-lam * (j + z) ** 2))
                             for z in zs])
        if fam == "half_normal":
            s = p[0] * math.sqrt(2.0)
            j = np.arange(0, math.ceil(math.sqrt(9.0 * s)) + 2,
                          dtype=np.float64)
            return np.array([math.fsum(special.erfc(j ** 2 / s)
                                       - special.erfc((j + z) ** 2 / s))
                             for z in zs])
    if fam == "half_normal" and transform == "pi_square":
        s = p[0] * math.sqrt(2.0)
        top = math.ceil(math.pi * (9.0 * s) ** 2) + 2
        j = np.arange(0, top, dtype=np.float64)
        lo = special.erfc(np.sqrt(j / math.pi) / s)
        return np.array([math.fsum(lo - special.erfc(
            np.sqrt((j + z) / math.pi) / s)) for z in zs])
    raise ValueError(f"no independent route for {dist} under {transform}")


def check_law(spec, out, rng):
    from ubenford.bounds import default_z_grid
    zs = default_z_grid()
    probs = np.asarray(out["probs"])
    budget = out["error_budget"]
    if probs.size != zs.size:
        return "probability grid has the wrong length"
    if probs.min() < -budget or probs.max() > 1.0 + budget:
        return "a probability lies outside [0, 1]"
    if np.diff(probs).min() < -budget:
        return "probabilities decrease in z"
    errs = np.abs(probs - zs)
    if out["discrepancy"] != float(errs.max()):
        return "discrepancy != max |P(z) - z|"
    picks = sorted(rng.sample(range(zs.size), 3))
    ref = _law_cells(spec["dist"], spec["transform"], zs[picks])
    worst = float(np.abs(ref - probs[picks]).max())
    if worst > budget + LAW_TOL:
        return f"law differs from the independent route by {worst:.3e}"
    return None


def check_certificate(out, law_out):
    if out["discrepancy"] > out["bound"] + out["error_budget"]:
        return "discrepancy exceeds bound + budget"
    if abs(out["slack"] - (out["bound"] + out["error_budget"]
                           - out["discrepancy"])) > 1e-15:
        return "slack != bound + budget - discrepancy"
    if law_out is not None and out["discrepancy"] != law_out["discrepancy"]:
        return "certificate and law disagree on the discrepancy"
    return None


def check_pdelta(out):
    from ubenford.experiments import DELTA_GRID
    deltas = [r["delta"] for r in out["rows"]]
    if deltas != list(DELTA_GRID):
        return "curve is not on the default delta grid"
    for r in out["rows"]:
        p = r["probability"]
        if not (0.0 <= p <= 1.0):
            return f"P_delta({r['delta']}) = {p} outside [0, 1]"
        if not r["lower"] - 1e-9 <= p <= r["upper"] + 1e-9:
            return f"P_delta({r['delta']}) = {p} outside its envelope"
        if r["gap"] != abs(p - r["delta"]):
            return "gap != |P - delta|"
    return None


_FLOAT_U = {"log10": np.log10, "sqrt": np.sqrt,
            "pi_square": lambda x: np.pi * x * x}


def check_table3(ub, out, reference):
    for row in ("uniform_row", "exponential_row"):
        for cell, ref in zip(out[row], reference[row]):
            if cell["verdict"] != ref["verdict"]:
                return f"{row} {cell['transform']} verdict changed"
            if abs(cell["defect"] - ref["defect"]) > 1e-12:
                return f"{row} {cell['transform']} defect changed"
    uniforms = ub.SeededSampler(ub.HalfNormal(out["sigma"]),
                                out["seed"]).uniforms(out["sample_size"])
    xs = stats.halfnorm.ppf(uniforms, scale=out["sigma"])
    for cell in out["half_normal_row"]:
        u = _FLOAT_U[cell["transform"]](xs)
        d = _ks_statistic(np.mod(u, 1.0))
        z = math.sqrt(xs.size) * d
        if abs(z - cell["z"]) > 1e-3:
            return (f"sampled {cell['transform']} z {cell['z']!r} != "
                    f"scipy {z!r}")
    return None


# ---------------------------------------------------------------------------
# datasets

def _mp_fracs(values, transform):
    out = np.empty(len(values))
    for i, v in enumerate(values):
        lg = math.log10(v)
        with mpmath.workdps(int(max(0.0, _u_digits(transform, lg))) + 40):
            x = mpmath.mpf(v)
            u = mpmath.sqrt(x) if transform == "sqrt" else mpmath.pi * x * x
            out[i] = float(u - mpmath.floor(u))
    return out


def _leading_digit(v):
    return int(format(Decimal(v), "e")[0])


def independent_csv(files):
    """Per file: expected values digest, digit counts and KS statistics."""
    out = {}
    for f in files:
        vals = np.asarray(f["values"], dtype=np.float64)
        ks = {"log10": _ks_statistic(np.mod(np.log10(vals), 1.0))}
        for t in ("sqrt", "pi_square"):
            ks[t] = _ks_statistic(_mp_fracs(f["values"], t))
        counts = np.bincount([_leading_digit(v) for v in f["values"]],
                             minlength=10)[1:10]
        out[f["path"]] = {"ks": ks, "counts": counts.tolist(),
                          "values_sha256": hashlib.sha256(
                              vals.tobytes()).hexdigest()}
    return out


def check_analyze(spec, out, f, ind):
    exp = ind[f["path"]]
    if out["values_sha256"] != exp["values_sha256"]:
        return "ingested values differ from the values written"
    if (out["dropped_non_numeric"], out["dropped_non_positive"],
            out["raw_rows"], out["had_header"]) != (
            f["non_numeric"], f["non_positive"], f["raw_rows"], True):
        return "ingest drop accounting differs from the file written"
    if out["kind"] != "data-table" or out["sample_size"] != len(f["values"]):
        return "record kind or sample size is wrong"
    if out["dropped"] != f["non_numeric"] + f["non_positive"]:
        return "record drop count is wrong"
    if out["n_fracs"] != out["sample_size"]:
        return "record fracs do not cover the sample"
    if out["digit_counts"] != exp["counts"]:
        return "leading-digit counts differ from exact decimal expansions"
    d = exp["ks"][spec["transform"]]
    if abs(out["ks_statistic"] - d) > 1e-9:
        return f"KS statistic {out['ks_statistic']!r} != scipy {d!r}"
    if abs(out["z"] - math.sqrt(out["sample_size"]) * d) > 1e-6:
        return "z != sqrt(n) * D"
    return None


# ---------------------------------------------------------------------------
# entry points

def check_ops(ub, workload, seed, ops, summaries, extra):
    """{op index: reason} for every op whose output fails a check."""
    rng = random.Random(f"check:{workload}:{seed}")
    reference = load_reference()
    failures = {}
    laws = {}
    ind = independent_csv(extra) if workload == "data-csv" else None
    by_path = {f["path"]: f for f in extra} if extra else {}
    for i, (spec, out) in enumerate(zip(ops, summaries)):
        if out is None:
            continue
        kind = spec["op"]
        try:
            if kind == "ks_cell":
                why = check_ks_cell(ub, spec, out, reference["table1"], rng)
            elif kind == "mod1_law":
                why = check_law(spec, out, rng)
                laws[(spec["dist"], spec["transform"])] = out
            elif kind == "certify":
                why = check_certificate(
                    out, laws.get((spec["dist"], spec["transform"])))
            elif kind == "pdelta_curve":
                why = check_pdelta(out)
            elif kind == "run_table3":
                why = check_table3(ub, out, reference["table3"])
            else:
                why = check_analyze(spec, out, by_path[spec["path"]], ind)
        except Exception as exc:  # malformed output fails its op, not the run
            why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            failures[i] = why
    return failures


def cli_parity(ub, workload, seed, extra):
    """Run one op through `ubenford.cli.main` and through the library;
    returns None when the structured records are byte-equal."""
    from ubenford.cli import main
    rng = random.Random(f"parity:{workload}:{seed}")
    if workload in ("seq-dense", "seq-giant"):
        n = rng.randint(20, 60)
        argv = ["table1", "--n", str(n)]
        policy = ub.DEFAULT_POLICY
        if workload == "seq-giant":
            argv += ["--precision", "16"]
            policy = dataclasses.replace(policy, agreement=16)
        lib = ub.emit(ub.run_table1(n_fast=n, n_slow=n, policy=policy),
                      "structured-record")
    elif workload == "dist-laws":
        params = sorted((float(f"{10 ** rng.uniform(-2, math.log10(0.5)):.4g}")
                         for _ in range(3)), reverse=True)
        argv = ["bounds", "pareto_ii", "--params",
                ",".join(repr(p) for p in params)]
        lib = ub.emit(ub.bound_sweep("pareto_ii", params, ub.LOG10),
                      "structured-record")
    else:
        path = rng.choice(extra)["path"]
        argv = ["analyze", path, "--column", "2", "--transform", "sqrt"]
        lib = ub.emit(ub.analyze_dataset(ub.ingest_csv(path, column=2),
                                         ub.SQRT), "structured-record")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv + ["--format", "structured-record"])
    if code != 0:
        return f"`ubenford {' '.join(argv)}` exited {code}"
    if buf.getvalue().encode("utf-8") != lib.encode("utf-8"):
        return f"`ubenford {' '.join(argv)}` record differs from the library"
    return None


def canary(ub):
    """The known-defect op, outcome as text. p_delta_exponential is wrong
    below a rate of about 1e-5, so this curve breaches its envelope until
    that series is rewritten."""
    try:
        ub.pdelta_curve("exponential", 1e-6)
    except ub.CertificateViolation as exc:
        return f"failed as expected (CertificateViolation: {exc})"
    return "passed: the known defect no longer shows"
