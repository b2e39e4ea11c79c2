#!/usr/bin/env python3
"""Repeats the pinned benchmark, compares result sets, and records snapshots.

Run from the repository root.

    python3 perfbench/run_bench.py --out A.json [--runs 5] [--seeds 1]
    python3 perfbench/run_bench.py --compare A.json B.json
    python3 perfbench/run_bench.py --snapshot perfbench/snapshots/BENCH_dppr_bench.json

--out runs every workload --runs times through run.py, alternating the
workload order from one round to the next, and writes each metric's values,
median, quartiles and spread (interquartile range over median). Round r uses
seed seeds[r % len(seeds)]: one seed measures run-to-run noise, distinct seeds
also vary the inputs. A spread above a third of the metric's bound is flagged
with '!'.

--compare checks B against A (result sets or snapshots): a metric whose median
is worse than A's by more than its BENCHMARK.json bound is a violation, and the
exit status is 1.

--snapshot writes the baseline: --runs untraced runs (default 5) and one traced
run of every workload (per-layer metrics and span self-time table), all with
the first seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def self_time(workload, seed):
    """The span self-time table run.py's traced run left in its build dir."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    report = build_dir / "results" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(report.read_text())["self_time_ms"]


def repeat(spec, workloads, runs, seeds, seconds, trace):
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    results = {w: [] for w in workloads}
    tables = {}
    for r in range(runs):
        for w in workloads if r % 2 == 0 else list(reversed(workloads)):
            seed = seeds[r % len(seeds)]
            result = run_once(w, seed, seconds, trace)
            results[w].append(result)
            if trace:
                tables[w] = self_time(w, seed)
            print(f"round {r} {w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr, flush=True)
    out = {"runs": runs, "seconds": seconds, "trace": trace, "seeds": seeds,
           "workloads": {}}
    for w in workloads:
        out["workloads"][w] = {
            "correct": all(run["correct"] for run in results[w]),
            "attempted": sum(run["attempted"] for run in results[w]),
            "failed": sum(run["failed"] for run in results[w]),
            "metrics": {
                m["name"]: {"unit": m["unit"],
                            **summarize([run["metrics"][m["name"]]["value"]
                                         for run in results[w]])}
                for m in metric_specs},
        }
        if trace:
            out["workloads"][w]["self_time_ms"] = tables[w]
    return out


def report(result, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for w, r in result["workloads"].items():
        print(f"{w}: correct={r['correct']} failed={r['failed']}")
        for name, s in r["metrics"].items():
            bound = bounds[name]
            flag = "!" if bound is not None and s["spread"] > bound / 3 else " "
            print(f"  {flag} {name:32s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else ""))


def all_correct(*results):
    return all(r["correct"] for result in results for r in result["workloads"].values())


def load_end_to_end(path):
    data = json.loads(Path(path).read_text())
    return data.get("end_to_end", data)["workloads"]


def compare(path_a, path_b, spec):
    a, b = load_end_to_end(path_a), load_end_to_end(path_b)
    violations = 0
    for w in a:
        if w not in b:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in a[w]["metrics"] or name not in b[w]["metrics"]:
                continue
            base = a[w]["metrics"][name]["median"]
            new = b[w]["metrics"][name]["median"]
            change = (new - base) / base if base else 0.0
            worse = change if m["better"] == "lower" else -change
            bad = worse > m["bound"]
            violations += bad
            print(f"{'FAIL' if bad else 'ok  '} {w:14s} {name:20s} {base:<12.6g} -> "
                  f"{new:<12.6g} {change:+.2%} (bound {m['bound']:.0%})")
    print(f"{violations} violation(s)")
    return 1 if violations else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    mode.add_argument("--snapshot")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seeds", default="1")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, spec)

    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]
    if args.snapshot:
        untraced = repeat(spec, workloads, args.runs, seeds[:1], seconds, False)
        traced = repeat(spec, workloads, 1, seeds[:1], seconds, True)
        host = {"cpus": os.cpu_count(), "platform": platform.platform()}
        Path(args.snapshot).write_text(json.dumps(
            {"host": host, "end_to_end": untraced, "per_layer": traced}, indent=1) + "\n")
        report(untraced, spec)
        report(traced, spec)
        return 0 if all_correct(untraced, traced) else 1
    result = repeat(spec, workloads, args.runs, seeds, seconds, False)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    report(result, spec)
    return 0 if all_correct(result) else 1


if __name__ == "__main__":
    sys.exit(main())
