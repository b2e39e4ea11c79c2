#!/usr/bin/env python3
"""Runs one workload of the pinned dppr benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/dppr_bench from the
repository's sources into $CARGO_TARGET_DIR (default .bench_build), runs it,
and prints as the last line of standard output one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json; with
--trace 1 the run records spans (written to <build dir>/results/) and the
metrics are its per_layer metrics. Exits 0 only when every answer was right.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds dppr_bench; returns the binary's path."""
    if not (ROOT / "src" / "dppr").is_dir():
        raise RuntimeError(f"no library sources under {ROOT / 'src' / 'dppr'}")
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "dppr_bench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "dppr_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (RuntimeError, subprocess.SubprocessError) as e:
        log(f"run.py: build failed: {e}")
        return 1

    results = build_dir / "results"
    spill = build_dir / "spill"
    results.mkdir(parents=True, exist_ok=True)
    spill.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = results / f"{stem}.json"
    if out_path.exists():
        out_path.unlink()
    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--json={out_path}",
               f"--spill-dir={spill}"]
    if args.trace:
        command.append(f"--trace={results / ('chrome-' + stem + '.json')}")
    try:
        proc = subprocess.run(command, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: dppr_bench did not finish in {RUN_TIMEOUT_S} s")
        return 1
    if not out_path.exists():
        log(f"run.py: dppr_bench exited {proc.returncode} without a result")
        return proc.returncode or 1

    report = json.loads(out_path.read_text())
    measured = report["metrics"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], {}).get("value")
        if value is None:
            log(f"run.py: dppr_bench reported no {m['name']}")
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if proc.returncode == 0 and report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
