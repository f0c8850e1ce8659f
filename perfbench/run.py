#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid|sir-corpus|serve-mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the project's libraries
from src/ plus the measuring process) into .bench_build/. Each run writes
its full report to .bench_out/ and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
the traced run with --trace 1, with the names and units that
BENCHMARK.json at the repository root declares.

Beyond the measuring process's own checks, this script flags
deterministic counts that differ from an earlier run of the same seed on
the same sources (.bench_out/determinism/), and reports each metric's
quartiles across the runs recorded for the same sources
(.bench_out/history/).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "srp-perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("paper-grid", "sir-corpus", "serve-mix")
# One wrong expectation per correctness check; the self-test shows that
# each makes its workload fail.
INJECTIONS = {
    "paper-grid": ("grid-sum", "grid-oracle", "grid-warm"),
    "sir-corpus": ("sir-oracle", "sir-warm"),
    "serve-mix": ("serve-status", "serve-hit-body", "serve-named-fp",
                  "serve-cold-oracle", "serve-program-oracle"),
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the measuring process."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Pipeline.h")):
        raise RuntimeError("project sources not found under " + ROOT)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)


def source_hash():
    """SHA-256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(workload, seed, seconds, trace, inject=""):
    """Runs the measuring process once and returns its report."""
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    report_path = os.path.join(OUT, "report-%s.json" % tag)
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--root", ROOT, "--report", report_path]
    if trace:
        cmd += ["--spans", os.path.join(OUT, "spans-%s.tsv" % tag)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("srp-perfbench exited with %d" % proc.returncode)
    with open(report_path) as f:
        return json.load(f)


def check_determinism(report, seed, source):
    """Compares the run's deterministic counts with the last run of the
    same workload and seed on the same sources; records them otherwise."""
    workload = report["workload"]
    path = os.path.join(OUT, "determinism", "%s-seed%d.json" % (workload, seed))
    counts = report["deterministic"]
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        if old.get("source") == source:
            if old["counts"] != counts:
                return ["deterministic counts differ from an earlier run of "
                        "seed %d on the same sources: %s vs %s"
                        % (seed, json.dumps(old["counts"]),
                           json.dumps(counts))]
            return []
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"source": source, "counts": counts}, f, indent=1)
    return []


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else None
        return {"q1": v, "median": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def across_runs(report, metrics, trace, source):
    """Appends this run to the history of its workload and returns each
    metric's quartiles over the recorded runs on the same sources."""
    path = os.path.join(OUT, "history",
                        "%s-trace%d.jsonl" % (report["workload"], trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as f:
        f.write(json.dumps({"source": source, "seed": report["environment"][
            "seed"], "metrics": {k: v["value"] for k, v in metrics.items()}})
                + "\n")
    runs = []
    with open(path) as f:
        for line in f:
            entry = json.loads(line)
            if entry["source"] == source:
                runs.append(entry["metrics"])
    return {name: quartiles([r[name] for r in runs if name in r])
            for name in metrics}


def declared_metrics():
    """The metric names and units BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_once(args):
    end_to_end, per_layer = declared_metrics()
    build()
    started = time.time()
    report = measure(args.workload, args.seed, args.seconds, args.trace)
    source = source_hash()
    failures = check_determinism(report, args.seed, source)
    if args.trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["value"],
                          "unit": unit}
                   for name, unit in end_to_end.items()}
    report["environment"]["commit"] = commit()
    report["environment"]["source_sha256"] = source
    report["environment"]["python"] = sys.version.split()[0]
    report["across_runs"] = across_runs(report, metrics, args.trace, source)
    report["failures"] += failures
    correct = bool(report["correct"]) and not failures
    # The cross-run determinism comparison is one more check.
    failed = int(report["failed"]) + len(failures)
    attempted = int(report["attempted"]) + 1
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f, indent=1)
    for message in report["failures"]:
        log("FAILED: " + message)
    log("%s seed %d: %.1f s, report in %s" % (args.workload, args.seed,
                                               time.time() - started, OUT))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def self_test():
    """Shows that every correctness check catches a wrong expectation and
    that a clean run of each workload passes them all."""
    build()
    ok = True
    for workload, checks in INJECTIONS.items():
        clean = measure(workload, 1, 1.0, 0)
        good = clean["correct"] and clean["failed"] == 0
        ok &= good
        log("%-10s %-22s %s (%d of %d checks failed)" % (
            workload, "(none)", "pass" if good else "UNEXPECTED FAILURE",
            clean["failed"], clean["attempted"]))
        for check in checks:
            rep = measure(workload, 1, 1.0, 0, inject=check)
            caught = not rep["correct"] and rep["failed"] > 0
            ok &= caught
            log("%-10s %-22s %s (%d of %d checks failed)" % (
                workload, check, "caught" if caught else "NOT CAUGHT",
                rep["failed"], rep["attempted"]))
    # The cross-run determinism check: a record with one count changed must
    # be flagged.
    source = source_hash()
    rep = measure("paper-grid", 1, 1.0, 0)
    rep["deterministic"]["setup"]["pipelines"] += 1
    check_determinism(rep, 987654321, source)
    rep["deterministic"]["setup"]["pipelines"] -= 1
    flagged = bool(check_determinism(rep, 987654321, source))
    os.remove(os.path.join(OUT, "determinism", "paper-grid-seed987654321.json"))
    ok &= flagged
    log("%-10s %-22s %s" % ("paper-grid", "determinism",
                            "caught" if flagged else "NOT CAUGHT"))
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        return run_once(args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
