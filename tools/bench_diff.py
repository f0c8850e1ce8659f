#!/usr/bin/env python3
"""Compare the counter fingerprints of two srp-bench/1 reports
(tools/srp-bench, srp-load --json).

    bench_diff.py BASELINE.json CURRENT.json

The deterministic fingerprint (sim.* / promotion.*) must be
byte-identical: it is machine-independent, so any drift means the
pipeline's behaviour changed, not the weather. It is compared only when
both reports ran the same grid shape (smoke flag and workload/config
lists); a scale mismatch skips the gate with a warning rather than
reporting nonsense. The reports' wall-clock fields are trajectory only:
wall-clock speed is judged by the repository benchmark (perfbench/,
tools/perf_gate.py).

Exit status: 0 identical, 1 fingerprint drift, 2 usage.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    if report.get("schema") != "srp-bench/1":
        sys.exit(f"bench_diff: {path}: not an srp-bench/1 report")
    return report


def same_grid(a, b):
    return (
        a.get("smoke") == b.get("smoke")
        and a.get("grid", {}).get("workloads") == b.get("grid", {}).get("workloads")
        and a.get("grid", {}).get("configs") == b.get("grid", {}).get("configs")
    )


def diff_counters(base, cur):
    failures = []
    bc, cc = base.get("counters", {}), cur.get("counters", {})
    for key in sorted(set(bc) | set(cc)):
        if bc.get(key) != cc.get(key):
            failures.append(
                f"  counter {key}: baseline {bc.get(key)} != current {cc.get(key)}"
            )
    return failures


def main():
    ap = argparse.ArgumentParser(
        description="diff the counter fingerprints of two srp-bench/1 reports"
    )
    ap.add_argument("baseline")
    ap.add_argument("current")
    args = ap.parse_args()

    base, cur = load(args.baseline), load(args.current)
    print(
        f"baseline: {args.baseline} (label={base.get('label')!r}, "
        f"smoke={base.get('smoke')}, repeat={base.get('repeat')})"
    )
    print(
        f"current:  {args.current} (label={cur.get('label')!r}, "
        f"smoke={cur.get('smoke')}, repeat={cur.get('repeat')})"
    )

    failures = []
    if same_grid(base, cur):
        failures = diff_counters(base, cur)
        if failures:
            print("counter fingerprint DRIFTED:")
            for line in failures:
                print(line)
        else:
            print("counter fingerprint: identical")
    else:
        print(
            "warning: grids differ (smoke/workloads/configs); "
            "skipping the counter gate",
            file=sys.stderr,
        )

    if failures:
        print(f"bench_diff: FAIL ({len(failures)} gate violation(s))")
        return 1
    print("bench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
