"""Span tracing of ubenford's layers, installed from outside the package.

Each traced function is replaced in every namespace that binds it: the
defining module, every module that imported it by name, and the package
root. Methods are replaced on the class that defines them. So a call from
`ubenford.sequences` to `ln_fixed` goes through the wrapper bound in
`ubenford.sequences`, and nothing under `src/` changes.

A span records its name, start, end and the span that was open when it
began. Spans live in flat arrays and are written out once at the end. A
layer's self time is its span durations minus the part covered by child
spans. A call to a function of the same span name as the span already open
(sf_log10 inside cdf_log10, say) joins that span, so counts are not doubled.
"""

import math
import os
import sys
from array import array
from time import perf_counter

import numpy as np

_LOG10_2 = math.log10(2.0)

LAYERS = ("kernels", "bigreal", "transforms", "sequences", "stats",
          "distributions", "bounds", "experiments", "ingest", "report")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.count = {"work_digits": 0, "max_digits": 0, "exact": 0,
                      "fracs": 0, "cells": 0, "evals": 0, "bytes_in": 0,
                      "rows_dropped": 0, "bytes_out": 0}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name):
        """Open a span by hand (for the benchmark's own op boundaries)."""
        return _Span(self, self._id(name))

    def wrap(self, name, fn, before=None, after=None):
        nid = self._id(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(top)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results ---------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=name.size)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {n: (int(calls[i]), float(self_s[i]))
                for i, n in enumerate(self.names)}

    def save(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.asarray(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.name)
        t.name.append(self.nid)
        t.parent.append(t._stack[-1])
        t.start.append(perf_counter())
        t.end.append(0.0)
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.idx] = perf_counter()
        t._stack.pop()
        return False


def _rebind(ub_modules, original, replacement):
    """Replace `original` wherever a ubenford module binds it."""
    hits = 0
    for mod in ub_modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def _wrap_method(tracer, cls, attr, name, before=None, after=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(
            tracer.wrap(name, raw.__func__, before, after)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, before, after))


def install(ub):
    """Wrap every traced layer function of the imported package `ub`."""
    from ubenford import bigreal, distributions, kernels, sequences

    tracer = Tracer()
    count = tracer.count
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "ubenford" or n.startswith("ubenford."))]

    def prec_at(i):
        def before(args):
            count["work_digits"] += args[i]
        return before

    def frac_digits(args):
        m = args[0].mantissa
        if m:
            d = int(abs(m).bit_length() * _LOG10_2) + 1
            if d > count["max_digits"]:
                count["max_digits"] = d

    def frac_done(args, result):
        count["fracs"] += 1

    def exact_done(args, result):
        if result.exact:
            count["exact"] += 1

    def law_done(args, result):
        count["cells"] += result.cells
        count["evals"] += result.cells * len(result.zs)

    def ingest_before(args):
        count["bytes_in"] += os.path.getsize(args[0])

    def ingest_done(args, result):
        count["rows_dropped"] += result.dropped

    def emit_done(args, result):
        count["bytes_out"] += len(result.encode("utf-8"))

    functions = [
        ("kernels.ln_fixed", kernels.ln_fixed, prec_at(1), None),
        ("kernels.exp_fixed", kernels.exp_fixed, prec_at(1), None),
        ("kernels.pow_fixed", kernels.pow_fixed, prec_at(1), None),
        ("kernels.dec_digits", kernels.dec_digits, None, None),
        ("kernels.const", kernels.pi_fixed, prec_at(0), None),
        ("kernels.const", kernels.ln2_fixed, prec_at(0), None),
        ("kernels.const", kernels.ln10_fixed, prec_at(0), None),
        ("kernels.const", kernels.e_fixed, prec_at(0), None),
        ("transforms.eval_transform", ub.eval_transform, None, exact_done),
        ("sequences.frac_sample", ub.frac_sample, None, None),
        ("stats.ks_uniform", ub.ks_uniform, None, None),
        ("stats.kolmogorov_q", ub.kolmogorov_q, None, None),
        ("stats.digit_report", ub.digit_report, None, None),
        ("distributions.sup_ratio", ub.sup_ratio, None, None),
        ("bounds.mod1_law", ub.mod1_law, None, law_done),
        ("bounds.certify_mod1_bound", ub.certify_mod1_bound, None, None),
        ("bounds.p_delta_uniform", ub.p_delta_uniform, None, None),
        ("bounds.p_delta_exponential", ub.p_delta_exponential, None, None),
        ("experiments.ks_cell", ub.ks_cell, None, None),
        ("experiments.analyze_dataset", ub.analyze_dataset, None, None),
        ("experiments.pdelta_curve", ub.pdelta_curve, None, None),
        ("experiments.run_table3", ub.run_table3, None, None),
        ("ingest.ingest_csv", ub.ingest_csv, ingest_before, ingest_done),
        ("report.emit", ub.emit, None, emit_done),
    ]
    for name, fn, before, after in functions:
        if not _rebind(mods, fn, tracer.wrap(name, fn, before, after)):
            raise RuntimeError(f"no binding found for {name}")

    _wrap_method(tracer, bigreal.BigReal, "frac", "bigreal.frac",
                 frac_digits, frac_done)
    _wrap_method(tracer, bigreal.BigReal, "frac_scaled", "bigreal.frac",
                 frac_digits)
    _wrap_method(tracer, bigreal.BigReal, "from_float", "bigreal.from_float")
    seq_classes = [sequences.Sequence, sequences.PowerLaw,
                   *sequences.SEQUENCES.values()]
    dist_classes = [distributions.Distribution,
                    *distributions.DISTRIBUTIONS.values()]
    for cls in seq_classes:
        for attr in ("nth_term", "int_digits_estimate"):
            if attr in cls.__dict__:
                _wrap_method(tracer, cls, attr, f"sequences.{attr}")
    for cls in dist_classes:
        for attr in ("cdf_log10", "sf_log10"):
            if attr in cls.__dict__:
                _wrap_method(tracer, cls, attr, "distributions.cdf_log10")
        if "sample" in cls.__dict__:
            _wrap_method(tracer, cls, "sample", "distributions.sample")
    return tracer


# per-layer metrics reported by a traced run, in BENCHMARK.json order
SPAN_METRICS = (
    ("kernels.ln_fixed", ("calls", "self_s")),
    ("kernels.exp_fixed", ("calls", "self_s")),
    ("kernels.pow_fixed", ("self_s",)),
    ("kernels.const", ("calls", "self_s")),
    ("kernels.dec_digits", ("calls", "self_s")),
    ("bigreal.frac", ("calls", "self_s")),
    ("bigreal.from_float", ("calls", "self_s")),
    ("transforms.eval_transform", ("calls", "self_s")),
    ("sequences.nth_term", ("calls", "self_s")),
    ("sequences.int_digits_estimate", ("self_s",)),
    ("sequences.frac_sample", ("self_s",)),
    ("stats.ks_uniform", ("calls", "self_s")),
    ("stats.kolmogorov_q", ("self_s",)),
    ("stats.digit_report", ("self_s",)),
    ("distributions.cdf_log10", ("calls", "self_s")),
    ("distributions.sup_ratio", ("self_s",)),
    ("distributions.sample", ("self_s",)),
    ("bounds.mod1_law", ("calls", "self_s")),
    ("bounds.certify_mod1_bound", ("self_s",)),
    ("bounds.p_delta_uniform", ("self_s",)),
    ("bounds.p_delta_exponential", ("self_s",)),
    ("experiments.ks_cell", ("self_s",)),
    ("experiments.analyze_dataset", ("self_s",)),
    ("experiments.pdelta_curve", ("self_s",)),
    ("experiments.run_table3", ("self_s",)),
    ("ingest.ingest_csv", ("calls", "self_s")),
    ("report.emit", ("calls", "self_s")),
)


def layer_metrics(tracer, wall_s):
    """Flat {metric: (value, unit)} for one traced pass."""
    per_span = tracer.self_times()
    out = {}
    for span, fields in SPAN_METRICS:
        calls, self_s = per_span.get(span, (0, 0.0))
        if "calls" in fields:
            out[f"{span}.calls"] = (calls, "count")
        if "self_s" in fields:
            out[f"{span}.self_s"] = (self_s, "s")
    c = tracer.count
    evals = per_span.get("transforms.eval_transform", (0, 0.0))[0]
    out["kernels.work_digits"] = (c["work_digits"], "digits")
    out["bigreal.max_digits"] = (c["max_digits"], "digits")
    out["transforms.exact_ratio"] = (c["exact"] / evals if evals else 0.0,
                                     "ratio")
    out["transforms.retry_ratio"] = (evals / c["fracs"] if c["fracs"] else 0.0,
                                     "ratio")
    out["bounds.mod1_law.cells"] = (c["cells"], "count")
    out["bounds.mod1_law.evals"] = (c["evals"], "count")
    out["ingest.bytes_in"] = (c["bytes_in"], "B")
    out["ingest.rows_dropped"] = (c["rows_dropped"], "count")
    out["report.bytes_out"] = (c["bytes_out"], "B")
    for layer in LAYERS:
        share = sum(s for n, (_, s) in per_span.items()
                    if n.split(".", 1)[0] == layer)
        out[f"{layer}.share"] = (share / wall_s if wall_s > 0 else 0.0,
                                 "ratio")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.spans"] = (len(tracer.name), "count")
    return out


def layer_calls(tracer):
    """Total traced calls per layer, for the layer table."""
    per_span = tracer.self_times()
    out = dict.fromkeys(LAYERS, 0)
    for n, (calls, _) in per_span.items():
        layer = n.split(".", 1)[0]
        if layer in out:
            out[layer] += calls
    return out
