#!/usr/bin/env python3
"""Bench-regression gate: rerun the serving benches and diff key rows
against the committed bench/snapshots/BENCH_*.json.

Runs `fig_serving_throughput --json`, `fig_serving_scale --json` and
`fig_query_fold --json` at each snapshot's recorded scale
(DPPR_BENCH_SCALE), then compares every metric the snapshot carries:

  * deterministic metrics (byte/round/read counts) must match within a tight
    tolerance -- drift here is a logic change, not noise;
  * timing metrics (qps, latency, ns/entry) get a loose tolerance -- CI
    machines are noisy, and the gate's job is catching collapses, not
    single-digit regressions.

Exit code 1 when any metric lands outside its tolerance. The CI leg runs
this with continue-on-error: the deltas are printed for the reviewer, the
build is never blocked on shared-runner timing noise.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

# Metrics whose values are deterministic re-runs of the same workload (byte
# accounting, read counts). Anything else is timing-dependent — including
# `rounds` and `mean_batch` in the closed-loop serving bench (and
# `machine_rounds` in the open-loop one), where how many requests a leader
# absorbs per round is pure scheduler timing.
# Per-query fragment bytes are batch-invariant, so comm_kb_per_query stays
# deterministic even as batching shifts.
DETERMINISTIC = {
    "comm_kb_per_query",
    "entries_per_round",
    "disk_mb_read",
    "preads",
}

BENCHES = ["fig_serving_throughput", "fig_serving_scale", "fig_query_fold"]


def run_bench(build_dir: pathlib.Path, bench: str, scale: float) -> dict:
    binary = build_dir / bench
    if not binary.exists():
        sys.exit(f"bench binary not found: {binary} (build first)")
    env = dict(os.environ, DPPR_BENCH_SCALE=str(scale))
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = pathlib.Path(tmp) / f"{bench}.json"
        subprocess.run([str(binary), f"--json={snapshot}"], check=True,
                       env=env, stdout=subprocess.DEVNULL)
        return json.loads(snapshot.read_text())


def rows_by_name(doc: dict) -> dict:
    return {row["name"]: row["metrics"] for row in doc["rows"]}


def check(bench: str, snapshot: dict, fresh: dict, det_tol: float,
          timing_tol: float) -> list:
    failures = []
    fresh_rows = rows_by_name(fresh)
    print(f"\n== {bench} ==")
    print(f"{'row/metric':<52} {'snapshot':>12} {'now':>12} {'delta':>9}")
    for row in snapshot["rows"]:
        name = row["name"]
        if name not in fresh_rows:
            failures.append(f"{bench}: row {name} missing from fresh run")
            print(f"{name:<52} {'(missing row)':>12}")
            continue
        for metric, want in row["metrics"].items():
            got = fresh_rows[name].get(metric)
            label = f"{name}/{metric}"
            if got is None:
                failures.append(f"{bench}: {label} missing from fresh run")
                print(f"{label:<52} {'(missing)':>12}")
                continue
            tol = det_tol if metric in DETERMINISTIC else timing_tol
            if want == 0:
                ok = got == 0
                delta = "n/a" if ok else "inf"
            else:
                rel = (got - want) / want
                ok = abs(rel) <= tol
                delta = f"{rel:+.1%}"
            flag = "" if ok else "  <-- outside ±" + f"{tol:.0%}"
            print(f"{label:<52} {want:>12.4g} {got:>12.4g} {delta:>9}{flag}")
            if not ok:
                failures.append(
                    f"{bench}: {label} = {got:.4g}, snapshot {want:.4g} "
                    f"({delta}, tolerance ±{tol:.0%})")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build", type=pathlib.Path)
    parser.add_argument("--snapshots", default="bench/snapshots",
                        type=pathlib.Path)
    parser.add_argument("--deterministic-tolerance", default=0.05, type=float,
                        help="relative tolerance for byte/round counts")
    parser.add_argument("--timing-tolerance", default=1.50, type=float,
                        help="relative tolerance for qps/latency metrics "
                             "(wide on purpose: the gate catches collapses, "
                             "not machine-to-machine variance)")
    args = parser.parse_args()

    failures = []
    for bench in BENCHES:
        snapshot_path = args.snapshots / f"BENCH_{bench}.json"
        snapshot = json.loads(snapshot_path.read_text())
        scale = snapshot.get("params", {}).get("scale", 1.0)
        fresh = run_bench(args.build_dir, bench, scale)
        failures += check(bench, snapshot, fresh,
                          args.deterministic_tolerance, args.timing_tolerance)

    if failures:
        print(f"\nBENCH GATE: {len(failures)} metric(s) outside tolerance:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nBENCH GATE: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
