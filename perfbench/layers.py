"""Layer-share table across all workloads, plus tracing overhead and a check
of each per-layer prediction.

    python3 perfbench/layers.py --seed 1 --seconds 20

Runs `run.py` untraced and traced for every workload with the same seed,
then prints one row per workload and one column per layer: the layer's
self-time share of the traced pass and its traced call count. Tracing
overhead is traced wall_s minus untraced wall_s. A prediction that a layer
"moves" a workload holds when its self time is at least MOVES_SHARE of the
traced pass; "~0" holds when it is below that.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MOVES_SHARE = 0.01

# (span or metric, workloads it should move, workloads predicted ~0)
PREDICTIONS = (
    ("kernels.ln_fixed", ("seq-dense",), ()),
    ("kernels.exp_fixed", ("seq-dense", "seq-giant"), ()),
    ("kernels.pow_fixed", ("seq-giant",), ()),
    ("kernels.const", ("seq-giant",), ("seq-dense",)),
    ("kernels.dec_digits", ("seq-giant",), ("seq-dense",)),
    ("bigreal.frac", ("seq-giant",), ()),
    ("bigreal.from_float", ("data-csv",), ()),
    ("transforms.eval_transform",
     ("seq-dense", "seq-giant", "data-csv"), ()),
    ("sequences.nth_term", ("seq-giant",), ()),
    ("sequences.int_digits_estimate", ("seq-giant",), ()),
    ("sequences.frac_sample", ("seq-dense",), ()),
    ("stats.ks_uniform", ("data-csv",), ()),
    ("stats.kolmogorov_q", ("data-csv",), ()),
    ("stats.digit_report", ("data-csv",), ()),
    ("distributions.cdf_log10", ("dist-laws",), ("seq-dense", "seq-giant")),
    ("distributions.sup_ratio", ("dist-laws",), ("seq-dense", "seq-giant")),
    ("distributions.sample", ("dist-laws",), ("seq-dense", "seq-giant")),
    ("bounds.mod1_law", ("dist-laws",), ()),
    ("bounds.certify_mod1_bound", ("dist-laws",), ()),
    ("bounds.p_delta_uniform", ("dist-laws",), ()),
    ("bounds.p_delta_exponential", ("dist-laws",), ()),
    ("ingest.ingest_csv", ("data-csv",), ()),
    ("report.emit", ("data-csv",), ()),
)


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    calls = next((json.loads(ln[len("layer calls "):]) for ln in lines
                  if ln.startswith("layer calls ")), None)
    return json.loads(lines[-1]), calls


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    rows = {}
    for w in WORKLOADS:
        plain, _ = _run(w, args.seed, args.seconds, 0)
        traced, calls = _run(w, args.seed, args.seconds, 1)
        rows[w] = (plain["metrics"], traced["metrics"], calls)

    head = ["workload", "overhead_s"] + list(LAYERS) + ["other"]
    table = [head]
    for w, (plain, traced, calls) in rows.items():
        wall_t = traced["trace.wall_s"]["value"]
        over = wall_t - plain["wall_s"]["value"]
        shares = [traced[f"{layer}.share"]["value"] for layer in LAYERS]
        cells = [f"{s * 100:.1f}% {calls[layer]}"
                 for s, layer in zip(shares, LAYERS)]
        other = 1.0 - sum(shares)
        table.append([w, f"{over:.2f} ({over / plain['wall_s']['value']:.0%})"]
                     + cells + [f"{other * 100:.1f}%"])
    widths = [max(len(r[i]) for r in table) for i in range(len(head))]
    print("self-time share of the traced pass, then traced calls; "
          f"seed {args.seed}, --seconds {args.seconds}")
    for r in table:
        print("  ".join(c.ljust(n) for c, n in zip(r, widths)).rstrip())

    print("\npredictions (moves: self time >= "
          f"{MOVES_SHARE:.0%} of the traced pass; ~0: below it)")
    refuted = 0
    for span, moves, zero in PREDICTIONS:
        for w, expect in [(w, "moves") for w in moves] + [(w, "~0")
                                                          for w in zero]:
            traced = rows[w][1]
            share = traced[f"{span}.self_s"]["value"] / \
                traced["trace.wall_s"]["value"]
            held = (share >= MOVES_SHARE) == (expect == "moves")
            refuted += not held
            print(f"  {span:<32} {expect:<5} on {w:<9}  share "
                  f"{share * 100:6.2f}%  {'confirmed' if held else 'REFUTED'}")
    for w in ("seq-dense", "seq-giant"):
        r = rows[w][1]["transforms.retry_ratio"]["value"]
        print(f"  transforms.retry_ratio on {w}: {r:.6f} eval_transform "
              "calls per certified fraction")
    print(f"\n{refuted} prediction(s) refuted")


if __name__ == "__main__":
    main()
