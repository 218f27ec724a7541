#!/usr/bin/env python3
"""End-to-end solver benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the solver library and the benchmark binary from the source tree
(CMake, under .bench_build/ at the repository root), runs one workload in
its own process, checks the record it prints, and ends its output with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer
set. Every timing is also printed with its sample count and quartiles, and
the full record (diagnostics, provenance) is kept under .bench_build/.

--self-test runs every workload at a tiny scale in both modes and checks
that the output parses, that the metric names match BENCHMARK.json and that
a deliberately corrupted solution is counted as a failure.

Exit status: 0 when every operation succeeded and passed its check; 1 when
any failed; 2 when the benchmark could not build or run.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no solver source tree at {ROOT}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_binary(args):
    """Run the benchmark binary; return (exit code, parsed last line)."""
    try:
        r = subprocess.run([str(BINARY)] + args, cwd=ROOT, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    try:
        return r.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"binary printed no record (exit {r.returncode})")


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_names(record, spec, trace):
    """The record's metrics must be exactly the declared set, with units."""
    want = expected_metrics(spec, trace)
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    problems = [f"missing {k}" for k in want if k not in got]
    problems += [f"undeclared {k}" for k in got if k not in want]
    problems += [f"{k}: unit {got[k]} != {u}" for k, u in want.items()
                 if k in got and got[k] != u]
    return problems


def source_digest():
    """SHA-256 over the solver sources and build files: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for p in [ROOT / "CMakeLists.txt"] + files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def fmt(v):
    return "nan" if v is None else f"{v:.6g}"


def print_table(record):
    print(f"workload {record['workload']}  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    # n: samples behind the median (epochs for the per-step timings);
    # ops: single operations timed.
    print(f"  {'metric':30s} {'median':>12s} {'unit':8s} {'n':>5s} "
          f"{'ops':>5s} {'q1':>12s} {'q3':>12s}")
    for section in ("metrics", "diagnostics"):
        for name, m in sorted(record[section].items()):
            label = name if section == "metrics" else f"({name})"
            ops = len(m["samples"]) or m["n"]
            print(f"  {label:30s} {fmt(m['value']):>12s} {m['unit']:8s} "
                  f"{m['n']:5d} {ops:5d} {fmt(m['q1']):>12s} "
                  f"{fmt(m['q3']):>12s}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def result_line(record):
    return json.dumps({
        "correct": bool(record["correct"]) and record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()},
    })


def run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    build()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", str(OUT / f"{tag}.trace.json")]
    code, record = run_binary(cmd)
    problems = check_names(record, spec, args.trace)
    if problems:
        fail("metrics do not match BENCHMARK.json: " + "; ".join(problems))
    if any(v["value"] is None for v in record["metrics"].values()):
        if record["failed"] == 0:
            fail("a metric is not a finite number")
        # A failed run still reports, with its unmeasured metrics at 0.
        for v in record["metrics"].values():
            v["value"] = 0 if v["value"] is None else v["value"]
    record["provenance"].update(git_sha=git_sha(), source_digest=source_digest())
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_table(record)
    print(result_line(record))
    return 0 if code == 0 and record["failed"] == 0 else 1


def self_test(spec):
    build()
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, rec = run_binary(["--workload", w["name"], "--seed", "7",
                                    "--seconds", "0.5", "--trace", str(trace),
                                    "--tiny"])
            where = f"{w['name']} trace {trace}"
            json.loads(result_line(rec))  # the result line round-trips
            errors += [f"{where}: {p}" for p in check_names(rec, spec, trace)]
            if code != 0 or rec["failed"] or not rec["correct"]:
                errors.append(f"{where}: {rec['failed']} failed operations")
            bad = [k for k, v in rec["metrics"].items()
                   if v["value"] is None or not math.isfinite(v["value"])]
            errors += [f"{where}: {k} is not finite" for k in bad]
    # A corrupted solution must surface as a failed, counted operation.
    code, rec = run_binary(["--workload", spec["workloads"][0]["name"],
                            "--seed", "7", "--seconds", "0.5", "--trace", "0",
                            "--tiny", "--corrupt-solve", "2"])
    ok_frac = rec["metrics"]["ok_frac"]["value"]
    if code == 0 or rec["failed"] < 1 or rec["correct"] or ok_frac >= 1:
        errors.append("a corrupted solution was not counted as a failure")
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    print("self-test " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    if not args.workload:
        fail("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
