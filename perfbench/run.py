"""ubenford benchmark: one workload, one seed, one line of JSON at the end.

    python3 perfbench/run.py --workload seq-dense --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. Each pass runs in a fresh interpreter
(`child.py`), so every pass starts with empty caches and pays for filling
them, as a user of the `ubenford` CLI does. The ops of a pass run back to
back from that one process: a closed loop with a single client. One pass is
run per 10 s of --seconds, so a run's amount of work depends on --seconds
only, never on how fast the program is.

Every child keeps itself on the quicker CPU and reads the host's speed with
a fixed probe loop (steer.py); times are reported on the scale of a host
running that probe in REF_PROBE_MS, and the raw medians are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 runs one pass with every
layer's public functions wrapped (see tracer.py) and prints the per-layer
metrics. Outputs are checked after the timed passes (see checks.py). The
last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it are a readable summary and a provenance record.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5      # import-only children, on top of one per pass
PASS_SECONDS = 10      # --seconds buys one pass per this many seconds
CHILD_TIMEOUT = 150
TAIL_BEYOND = 10       # op_tail_s: highest percentile with this many beyond
# The probe loop of steer.py takes this long on a CPU of the reference host
# (2-CPU x86-64 container) in its fast mode. Times are reported on the scale
# of a host that runs the probe this fast; see _host_scale.
REF_PROBE_MS = 1.5


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["UBENFORD_PURE_PYTHON"] = "1"  # never the compiled twin
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(root, job):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py")],
        input=json.dumps(job), capture_output=True, text=True,
        env=_child_env(root), cwd=root, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        _fail(f"child process exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["backend"] != "python" or result["ckernels_imported"]:
        _fail("the compiled kernel backend was loaded")
    return result


def _host_scale(probe_ms):
    """Factor that puts a time measured while the host ran the steer.py
    probe in `probe_ms` on the scale of a host that runs it in REF_PROBE_MS.

    The host's CPUs run the same code up to 60% slower for minutes at a
    time, on both CPUs at once, and raw times of identical passes follow
    that (correlation 0.97 with the probe over 47 seq-dense passes). The
    probe is a fixed loop, so a change to the program moves the scaled time
    as much as the raw one.
    """
    return REF_PROBE_MS / probe_ms


def _source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "ubenford")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit(root):
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None  # the checkout itself is not a repository
    return lines[1]


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _op_quantiles(values):
    """(p50, tail, tail percentile) of the op latencies.

    The tail is the highest percentile that still has TAIL_BEYOND ops above
    it. Both are Harrell-Davis estimates, a weighted mean of the order
    statistics around the percentile: ops of unlike cost sit next to each
    other in the ranking, and a plain order statistic would jump between
    them when two swap places.
    """
    from scipy.stats.mstats import hdquantiles
    p_tail = max(0.5, 1.0 - TAIL_BEYOND / len(values))
    p50, tail = hdquantiles(values, prob=[0.5, p_tail])
    return float(p50), float(tail), 100.0 * p_tail


def _describe(name, values, unit):
    q1, q2, q3 = _quartiles(values)
    return (f"  {name:<16} {q2:>14.6g} {unit:<6} "
            f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}]")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        _fail("--seconds must be >= 1")
    if not 0 <= args.seed < 2 ** 63:
        _fail("--seed must be a nonnegative 63-bit integer")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ubenford",
                                       "__init__.py")):
        _fail("run from the repository root: src/ubenford is missing")

    # SIGTERM unwinds like an exception: subprocess.run then kills and
    # reaps the running child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    load_start = os.getloadavg()
    work_dir = os.path.join(HERE, "_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _measure(args, root, work_dir, load_start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, root, work_dir, load_start):
    ops, extra = workloads.build(args.workload, args.seed,
                                 os.path.join(work_dir, "csv"))
    _run_child(root, {"mode": "import"})  # bytecode caches, page cache
    imports = []
    passes = []
    if args.trace:
        trace_out = os.path.join(HERE, "_work",
                                 f"trace-{args.workload}.npz")
        passes.append(_run_child(root, {"mode": "pass", "ops": ops,
                                        "trace": True,
                                        "trace_out": trace_out}))
    else:
        for _ in range(SETUP_SAMPLES):
            imports.append(_run_child(root, {"mode": "import"}))
        for _ in range(max(1, args.seconds // PASS_SECONDS)):
            passes.append(_run_child(root, {"mode": "pass", "ops": ops,
                                            "trace": False}))
    setup_raw = [c["setup_s"] for c in imports + passes]
    setup = [c["setup_s"] * _host_scale(c["setup_probe_ms"])
             for c in imports + passes]
    scales = [_host_scale(p["steering"]["probe_ms"]) for p in passes]

    # ---- checks, outside every timed region
    os.environ["UBENFORD_PURE_PYTHON"] = "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import ubenford as ub
    import checks

    first = [o["summary"] for o in passes[0]["ops"]]
    failures = checks.check_ops(ub, args.workload, args.seed, ops, first,
                                extra)
    for p in passes:
        for i, o in enumerate(p["ops"]):
            if o["error"] is not None:
                failures.setdefault(i, o["error"])
            elif o["summary"] != first[i]:
                failures.setdefault(i, "output differs between passes")
    parity = checks.cli_parity(ub, args.workload, args.seed, extra)
    canary = (checks.canary(ub) if args.workload == "dist-laws" else None)
    load_end = os.getloadavg()

    attempted = len(ops) * len(passes)
    failed = sum(1 for p in passes for i, o in enumerate(p["ops"])
                 if i in failures)
    op_times = [o["dt"] * k for p, k in zip(passes, scales)
                for o in p["ops"]]
    walls_raw = [p["wall_s"] for p in passes]
    walls = [w * k for w, k in zip(walls_raw, scales)]
    rates = [p["work"] / w for p, w in zip(passes, walls)]
    rss = [p["rss_mb"] for p in passes]
    p50, tail, p_tail = _op_quantiles(op_times)

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": sys.version.split()[0], "numpy": passes[0]["numpy"],
        "backend": passes[0]["backend"],
        "ckernels_imported": passes[0]["ckernels_imported"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in load_end],
        "passes": len(passes), "ops_per_pass": len(ops),
        "cpu_steering": [p["steering"] for p in passes],
        "client": "closed loop, one client, ops back to back",
    }

    unit_of_work = ("law_evals_per_s" if args.workload == "dist-laws"
                    else "fracs_per_s")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)} x {len(ops)} ops"
          + ("  (traced)" if args.trace else ""))
    probes = ", ".join(f"{p['steering']['probe_ms']:.3f}" for p in passes)
    print(f"  times scaled to a probe of {REF_PROBE_MS} ms; host probe "
          f"{probes} ms per pass; raw medians: wall_s "
          f"{statistics.median(walls_raw):.6g} s, setup_s "
          f"{statistics.median(setup_raw):.6g} s")
    if not args.trace:
        print(_describe("setup_s", setup, "s"))
    print(_describe("wall_s", walls, "s"))
    print(_describe(unit_of_work, rates, "1/s"))
    print(f"  {'op_p50_s':<16} {p50:>14.6g} {'s':<6} "
          f"[{len(op_times)} ops]")
    print(f"  {'op_tail_s':<16} {tail:>14.6g} {'s':<6} "
          f"[p{p_tail:.1f}, {len(op_times)} ops, "
          f"{len(op_times) * (1 - p_tail / 100):.0f} beyond it]")
    print(_describe("peak_rss_mb", rss, "MB"))
    print(f"  {'failed_frac':<16} {failed / attempted:>14.6g} "
          f"[{failed} of {attempted} ops]")
    for i, why in sorted(failures.items()):
        print(f"    op {i} {json.dumps(ops[i])[:120]}: {why}")
    print(f"  cli parity: {'byte-equal' if parity is None else parity}")
    if canary is not None:
        print(f"  known-defect canary pdelta_curve('exponential', 1e-6), "
              f"not counted in failed_frac: {canary}")
    print("provenance " + json.dumps(provenance, sort_keys=True))

    if args.trace:
        metrics = {name: {"value": value * scales[0] if unit == "s"
                          else value, "unit": unit}
                   for name, (value, unit) in passes[0]["layers"].items()}
        print("per-layer (one traced pass, times scaled):")
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        print("layer calls " + json.dumps(passes[0]["layer_calls"]))
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "throughput": (statistics.median(rates), "1/s"),
            "op_p50_s": (p50, "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = not failures and parity is None
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
