#!/usr/bin/env python3
"""Wall-clock regression gate: an interleaved benchmark A/B of this
checkout (the head) against a base checkout.

    perf_gate.py BASE_DIR

BASE_DIR is a checkout of the base commit with its own perfbench/run.py
(in CI, the merge base). The gate runs 10 pairs of 10 s
`perfbench/run.py --workload paper-grid --trace 0` runs, one run in each
checkout per pair with the same seed (the pair's number), alternating
which side runs first. Each checkout builds its own benchmark binary on
its first run, before that run's timed phase.

It fails when any run is incorrect or reports failed ops, and when the
head is slower (lower throughput_per_s) in at least 9 of the 10 pairs
and its median throughput is below the base's median by more than the
interquartile range of the base's runs: the rule the benchmark's gain
claims follow, mirrored to catch a loss.

Exit status: 0 pass, 1 fail, 2 usage.
"""

import json
import os
import statistics
import subprocess
import sys

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "paper-grid"
METRIC = "throughput_per_s"
PAIRS = 10
SECONDS = 10
LOSSES_TO_FAIL = 9


def run(checkout, seed):
    """One benchmark run in `checkout`; returns its result line, or None
    (after printing why) if it did not produce a correct result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result and result["correct"] and result["failed"] == 0:
        return result
    sys.stderr.write(proc.stderr[-4000:])
    print(f"perf_gate: FAIL: run in {checkout} (seed {seed}) "
          + (f"exited with {proc.returncode}" if result is None else
             f"was incorrect ({result['failed']} of {result['attempted']} "
             "ops failed)"))
    return None


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    base = os.path.abspath(sys.argv[1])
    if not os.path.isfile(os.path.join(base, "perfbench", "run.py")):
        print(f"perf_gate: {base} has no perfbench/run.py", file=sys.stderr)
        return 2
    checkouts = {"base": base, "head": HEAD}
    values = {"base": [], "head": []}
    lost = 0
    for pair in range(1, PAIRS + 1):
        order = ("base", "head") if pair % 2 else ("head", "base")
        got = {}
        for side in order:
            result = run(checkouts[side], pair)
            if result is None:
                return 1
            got[side] = result["metrics"][METRIC]["value"]
            values[side].append(got[side])
        slower = got["head"] < got["base"]
        lost += slower
        print(f"pair {pair:2} ({order[0]} first): base {got['base']:8.1f}"
              f"  head {got['head']:8.1f}  ({got['head'] / got['base'] - 1:+6.1%})"
              + ("  head slower" if slower else ""), flush=True)

    q1, base_median, q3 = statistics.quantiles(values["base"], n=4)
    head_median = statistics.median(values["head"])
    print(f"{WORKLOAD} {METRIC}: base median {base_median:.1f} "
          f"[IQR {q3 - q1:.1f}], head median {head_median:.1f}; "
          f"head slower in {lost} of {PAIRS} pairs")
    if lost >= LOSSES_TO_FAIL and base_median - head_median > q3 - q1:
        print("perf_gate: FAIL: the head is slower than the base")
        return 1
    print("perf_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
