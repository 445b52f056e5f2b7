"""One fresh interpreter: time `import ubenford`, then run one pass of ops.

Reads a JSON job from stdin and prints one JSON result line. The parent
(`run.py`) starts one of these per pass, so every pass starts with empty
kernel-constant, prime-sieve and base-log caches, as a CLI user's run does.
The process keeps itself on the quicker CPU while it runs (see steer.py).

Job keys: "mode" ("import" or "pass"), "ops", "trace" (bool), "trace_out"
(path for the span arrays, or null).
"""

import dataclasses
import hashlib
import json
import resource
import sys
from time import perf_counter, process_time

import steer  # perfbench/, the script's own directory


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def _runner(ub):
    from ubenford.sequences import odd_nonsquare

    parse_t = ub.Transform.parse

    def ks_cell(spec):
        return ub.ks_cell(spec["seq"], parse_t(spec["transform"]), spec["n"],
                          index_filter=odd_nonsquare if spec["filtered"]
                          else None,
                          label=spec["label"])

    def mod1_law(spec):
        return ub.mod1_law(ub.parse_distribution(spec["dist"]),
                           parse_t(spec["transform"]))

    def certify(spec):
        return ub.certify_mod1_bound(ub.parse_distribution(spec["dist"]),
                                     parse_t(spec["transform"]))

    def pdelta_curve(spec):
        return ub.pdelta_curve(spec["family"], spec["parameter"])

    def run_table3(spec):
        return ub.run_table3(spec["seed"])

    def analyze(spec):
        # what `ubenford analyze FILE --column 2 --transform T
        # --format structured-record` does
        dataset = ub.ingest_csv(spec["path"], column=2)
        report = ub.analyze_dataset(dataset, parse_t(spec["transform"]))
        return dataset, ub.emit(report, "structured-record")

    return {"ks_cell": ks_cell, "mod1_law": mod1_law, "certify": certify,
            "pdelta_curve": pdelta_curve, "run_table3": run_table3,
            "analyze": analyze}


def _summary(spec, result):
    """JSON-able output of one op plus the work it delivered."""
    kind = spec["op"]
    if kind == "ks_cell":
        return _plain(result), result.n_used
    if kind == "mod1_law":
        out = {"cells": result.cells, "discrepancy": result.discrepancy,
               "worst_z": result.worst_z,
               "error_budget": result.error_budget,
               "probs": result.probs.tolist(), "n_z": len(result.zs)}
        return out, result.cells * len(result.zs)
    if kind == "certify":
        # a certificate evaluates one full law on the default grid
        from ubenford.bounds import default_z_grid
        return _plain(result), result.cells * default_z_grid().size
    if kind in ("pdelta_curve", "run_table3"):
        return _plain(result), 0
    dataset, text = result
    record = json.loads(text)
    out = {
        "record_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "record_bytes": len(text.encode("utf-8")),
        "values_sha256": hashlib.sha256(dataset.values.tobytes()).hexdigest(),
        "kept": dataset.kept, "raw_rows": dataset.raw_rows,
        "had_header": dataset.had_header,
        "dropped_non_numeric": dataset.dropped_non_numeric,
        "dropped_non_positive": dataset.dropped_non_positive,
    }
    for key in ("kind", "sample_size", "dropped", "transform", "ks_statistic",
                "z", "p", "verdict"):
        out[key] = record[key]
    out["digit_counts"] = record["digits"]["counts"]
    out["n_fracs"] = len(record["fracs"])
    return out, record["sample_size"]


def main():
    job = json.loads(sys.stdin.read())
    probe_s = steer.place()
    t0 = perf_counter()
    import ubenford as ub
    setup_s = perf_counter() - t0
    setup = {"setup_s": setup_s, "setup_probe_ms": 1e3 * probe_s}
    backend = {"backend": ub.BACKEND,
               "ckernels_imported": "ubenford.kernels._ckernels"
                                    in sys.modules}
    if job["mode"] == "import":
        print(json.dumps({**setup, **backend}))
        return

    tracer = None
    if job["trace"]:
        import tracer as tracing  # perfbench/, the script's own directory
        tracer = tracing.install(ub)
    run = _runner(ub)
    raw = []
    if tracer is None:
        steer.start()
    else:
        # a timer check could land between the appends of a span record,
        # so a traced pass is placed once and not re-checked
        traced_probe_ms = 1e3 * steer.place()
    cpu_start = process_time()
    start = perf_counter()
    for spec in job["ops"]:
        t = perf_counter()
        steered = steer.spent()
        try:
            if tracer is None:
                result = run[spec["op"]](spec)
            else:
                with tracer.span("bench.op"):
                    result = run[spec["op"]](spec)
            error = None
        except Exception as exc:  # an op failure is data, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        raw.append((perf_counter() - t - (steer.spent() - steered), result,
                    error))
    wall_s = perf_counter() - start - steer.spent()
    cpu_s = process_time() - cpu_start
    if tracer is None:
        steering = steer.stop()
    else:
        steering = {"checks": 0, "moves": 0, "probe_ms": traced_probe_ms}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = []
    work = 0
    for spec, (dt, result, error) in zip(job["ops"], raw):
        summary = None
        if error is None:
            summary, done = _summary(spec, result)
            work += done
        ops.append({"dt": dt, "error": error, "summary": summary})
    out = {**setup, "wall_s": wall_s, "cpu_s": cpu_s,
           "rss_mb": rss_mb, "steering": steering,
           "work": work, "ops": ops, **backend}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, wall_s)
        out["layer_calls"] = tracing.layer_calls(tracer)
        if job.get("trace_out"):
            tracer.save(job["trace_out"])
    out["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
