#!/usr/bin/env python3
"""flbench runner: build, run, check and report the FLStore benchmark.

    python3 bench/flbench/run.py

builds the benchmark binary (Release, into build-flbench/ at the repository root,
offline), runs every workload untraced for the end-to-end metrics and once
more traced for the per-layer metrics, checks the outputs, prints every
metric with its unit, and writes flbench.json.

Options:
  --workload NAME   run only this workload (repeatable)
  --workloads A,B   the same, as a comma-separated list
  --trace 0|1       only the untraced (0) or only the traced (1) pass
  --seed N          arrival / op-stream seed (default 1)
  --seconds S       wall seconds measured per run (default: run_seconds
                    from BENCHMARK.json; 1 with --smoke)
  --repeat N        untraced runs per workload: prints the median and
                    interquartile range of every end-to-end metric and flags
                    a spread above the metric's bound
  --smoke           every workload at about 5% size
  --out PATH        where to write the JSON report (default flbench.json;
                    a single-workload, single-pass run writes one only when
                    --out is given)

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With one workload and one --trace value the
metrics are that run's (medians over --repeat); otherwise each name is
prefixed with its workload. Any failed check, crash or missing metric exits
non-zero and names the workload.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-flbench"
BINARY = BUILD / "flbench"
WORKLOADS = ("paper_mix", "metadata_crowd", "hot_read", "hot_write")


def fail(message: str) -> None:
    print(f"flbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def build() -> None:
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no FLStore sources under {ROOT}; run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "flbench",
                  "-j", jobs])
    # Concurrent runs in one checkout serialize on the build.
    with open(BUILD / ".lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(step))


def run_workload(workload: str, trace: int, seed: int, seconds: float,
               smoke: bool) -> dict:
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=3 * seconds + 120, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload {workload} (trace {trace}) timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 and not lines:
        fail(f"workload {workload} (trace {trace}) exited "
             f"{done.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"workload {workload} (trace {trace}) printed no result")
    if done.returncode != 0 or not result["correct"]:
        bad = [c for c in result["checks"] if not c["ok"]]
        fail(f"workload {workload} (trace {trace}) failed its checks: "
             + "; ".join(f"{c['name']}: {c['detail']}" for c in bad))
    return result


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def check_metrics(workload: str, trace: int, result: dict,
                  specs: list[dict]) -> None:
    got = set(result["metrics"])
    want = {m["name"] for m in specs}
    if got != want:
        fail(f"workload {workload} (trace {trace}) metric set differs from "
             f"BENCHMARK.json: missing {sorted(want - got)}, "
             f"unexpected {sorted(got - want)}")
    for m in specs:
        unit = result["metrics"][m["name"]]["unit"]
        if unit != m["unit"]:
            fail(f"workload {workload}: {m['name']} in {unit}, "
                 f"BENCHMARK.json says {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Build, run, check and report the FLStore benchmark.")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = args.workload + [w for w in args.workloads.split(",") if w]
    workloads = workloads or list(WORKLOADS)
    for w in workloads:
        if w not in WORKLOADS:
            fail(f"unknown workload {w}; choose from {', '.join(WORKLOADS)}")
    if args.repeat < 1:
        fail("--repeat must be at least 1")
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(bench["run_seconds"])
    passes = [args.trace] if args.trace is not None else [0, 1]
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    started = time.monotonic()
    build()
    print(f"flbench: build ready ({time.monotonic() - started:.1f} s)",
          file=sys.stderr)

    report = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    for workload in workloads:
        runs = {t: [run_workload(workload, t, args.seed, seconds, args.smoke)
                    for _ in range(args.repeat if t == 0 else 1)]
                for t in passes}
        digests = {r["digest"] for rs in runs.values() for r in rs}
        if len(digests) != 1:
            fail(f"workload {workload}: digests differ across runs "
                 f"{sorted(digests)}")
        entry = {"digest": digests.pop(), "metrics": {}, "checks": [],
                 "notes": {}, "attempted": 0, "failed": 0}
        for t, rs in runs.items():
            for r in rs:
                check_metrics(workload, t, r, specs[t])
                entry["attempted"] += r["attempted"]
                entry["failed"] += r["failed"]
            entry["checks"] += rs[0]["checks"]
            entry["notes"][f"trace{t}"] = rs[0]["notes"]
            for m in specs[t]:
                values = [r["metrics"][m["name"]]["value"] for r in rs]
                row = {"value": statistics.median(values), "unit": m["unit"]}
                if len(values) > 1:
                    row["values"] = values
                    row["iqr_share"] = spread(values)
                    row["bound"] = bounds.get(m["name"])
                entry["metrics"][m["name"]] = row
        report["workloads"][workload] = entry

        print(f"\n[{workload}] digest {entry['digest']}, "
              f"{entry['attempted']} ops attempted, {entry['failed']} failed")
        for t, notes in entry["notes"].items():
            print(f"  {t}: " + ", ".join(f"{k} {v:.6g}"
                                         for k, v in notes.items()))
        for name, row in entry["metrics"].items():
            line = f"  {name:34s} {row['value']:>22.10g} {row['unit']}"
            if "iqr_share" in row:
                flag = ""
                if row["bound"] is not None and row["iqr_share"] > row["bound"]:
                    flag = "  SPREAD ABOVE BOUND"
                line += (f"   IQR/median {row['iqr_share']:.4f}"
                         f" (bound {row['bound']}){flag}")
            print(line)

    single = len(workloads) == 1 and len(passes) == 1
    if args.out or not single:
        out = pathlib.Path(args.out or "flbench.json")
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {out}", file=sys.stderr)

    entries = report["workloads"]
    if single:
        metrics = {n: {"value": r["value"], "unit": r["unit"]}
                   for n, r in entries[workloads[0]]["metrics"].items()}
    else:
        metrics = {f"{w}/{n}": {"value": r["value"], "unit": r["unit"]}
                   for w, e in entries.items()
                   for n, r in e["metrics"].items()}
    print(json.dumps({
        "correct": True,
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
