#!/usr/bin/env python3
"""CI gate for the cluster scale-out sweep.

Runs bench_cluster, parses its machine-readable `CLUSTER machines=...` rows
(one per cluster width) and the `CLUSTER_SMOKE ...` line, and fails when any
of:
  - trace_equal != 1 on any row — a re-run or the 4-host-thread run diverged
    from the reference per-machine trace hashes. Gated UNCONDITIONALLY:
    determinism does not depend on how many CPUs the runner has. (The bench
    RR_CHECKs this too; the gate catches a build where asserts are compiled
    out.)
  - m1_equal_bare != 1 — the degenerate M=1 cluster diverged from a bare
    machine running the identical farm, breaking the layer's identity pin.
  - a row served nothing, or its percentile columns are out of order.
  - the sweep lost its scale-out shape: served requests must strictly grow
    with machines, reach at least 8x the M=1 goodput at M=16 (the offered
    stream scales with M, so flat goodput means the router or the nodes
    stopped absorbing it), and the feedback router's load-imbalance ratio must
    stay under 1.5 on every multi-machine row.
  - the ~2M-thread configuration smoke is missing, shrank below 2M simulated
    threads, or injected nothing.
  - a row's cluster hash differs from the committed baseline — the cluster
    schedule itself changed. Compared only when the baseline file exists,
    skipped (with an explicit SKIP) under --equality-only.
  - sweep wall time regressed more than MAX_REGRESSION over the baseline,
    gated ONLY when the host has >= 4 CPUs (explicit SKIP otherwise).

With --equality-only the baseline and wall-time comparisons are skipped and
the configuration smoke is not run at all (REALRATE_CLUSTER_SMOKE=0): the
sanitizer legs run this, where instrumentation multiplies the smoke's ~5 GB
footprint without adding coverage the sweep rows don't already have.

Refresh the baseline with:
  scripts/check_cluster_scale.py BUILD_DIR --write-baseline
"""
import json
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_cluster_baseline.json"
MAX_REGRESSION = 2.0  # Wall-time keys may drift up to 2x across runner speeds.
SMOKE_MIN_THREADS = 2_000_000


def parse_fields(text: str) -> dict:
    fields = dict(kv.split("=", 1) for kv in text.split())
    # Hashes are full 64-bit values: a float would silently drop the low 11
    # bits and weaken the baseline pin to hash-prefix equality.
    return {k: (int(v) if k == "cluster_hash" else float(v))
            for k, v in fields.items()}


def run_bench(build_dir: pathlib.Path, smoke: bool) -> tuple[list[dict], dict | None]:
    bench = build_dir / "bench" / "bench_cluster"
    if not bench.exists():
        sys.exit(f"error: {bench} not found — build bench_cluster first")
    env = dict(os.environ)
    if not smoke:
        env["REALRATE_CLUSTER_SMOKE"] = "0"
    out = subprocess.run([str(bench), "--benchmark_min_time=0.01"],
                         check=True, capture_output=True, text=True, env=env).stdout
    rows = [parse_fields(m.group(1)) for m in re.finditer(r"^CLUSTER (.*)$", out, re.M)]
    if not rows:
        sys.exit("error: bench output has no CLUSTER lines")
    smoke_row = None
    match = re.search(r"^CLUSTER_SMOKE (.*)$", out, re.M)
    if match and "skipped" not in match.group(1):
        smoke_row = parse_fields(match.group(1))
    return rows, smoke_row


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    build_dir = pathlib.Path(args[0]) if args else REPO / "build"
    equality_only = "--equality-only" in sys.argv
    rows, smoke = run_bench(build_dir, smoke=not equality_only)
    for row in rows:
        print(f"[check_cluster_scale] measured: {row}")
    if smoke is not None:
        print(f"[check_cluster_scale] smoke: {smoke}")

    failures = []
    for row in rows:
        machines = int(row["machines"])
        if row["trace_equal"] != 1:
            failures.append(f"M={machines}: trace_equal != 1 — a re-run or the "
                            "4-host-thread run diverged from the reference trace")
        if row["m1_equal_bare"] != 1:
            failures.append(f"M={machines}: the degenerate cluster diverged from "
                            "the bare machine (m1_equal_bare != 1)")
        if row["served"] <= 0:
            failures.append(f"M={machines}: served nothing")
        if row["p50_ms"] > row["p99_ms"]:
            failures.append(f"M={machines}: percentiles out of order "
                            f"(p50={row['p50_ms']} p99={row['p99_ms']})")
        if machines > 1 and row["imbalance"] > 1.5:
            failures.append(f"M={machines}: load imbalance {row['imbalance']} > 1.5 "
                            "— the feedback router stopped levelling the farm")

    by_m = {int(row["machines"]): row for row in rows}
    if sorted(by_m) != [1, 4, 16]:
        failures.append(f"expected M=1/4/16 rows, got {sorted(by_m)}")
    else:
        if not by_m[1]["served"] < by_m[4]["served"] < by_m[16]["served"]:
            failures.append(
                "goodput did not grow with machines: served "
                f"{by_m[1]['served']:.0f} / {by_m[4]['served']:.0f} / "
                f"{by_m[16]['served']:.0f} at M=1/4/16")
        if by_m[16]["served"] < 8 * by_m[1]["served"]:
            failures.append(
                f"scale-out collapsed: M=16 served {by_m[16]['served']:.0f} < 8x "
                f"the M=1 goodput {by_m[1]['served']:.0f}")

    if equality_only:
        print("[check_cluster_scale] SKIP: configuration smoke (--equality-only)")
    elif smoke is None:
        failures.append("no CLUSTER_SMOKE line — the configuration smoke vanished")
    else:
        if smoke["total_threads"] < SMOKE_MIN_THREADS:
            failures.append(f"configuration smoke shrank to "
                            f"{smoke['total_threads']:.0f} simulated threads "
                            f"(< {SMOKE_MIN_THREADS})")
        if smoke["injected"] <= 0:
            failures.append("configuration smoke injected nothing")

    if "--write-baseline" in sys.argv:
        if failures:
            for failure in failures:
                print(f"[check_cluster_scale] FAIL: {failure}", file=sys.stderr)
            return 1
        BASELINE.write_text(json.dumps({"sweep": rows, "smoke": smoke},
                                       indent=2, sort_keys=True) + "\n")
        print(f"[check_cluster_scale] wrote {BASELINE}")
        return 0

    if equality_only:
        print("[check_cluster_scale] SKIP: baseline and wall-time gates "
              "(--equality-only)")
    else:
        if BASELINE.exists():
            baseline = json.loads(BASELINE.read_text())
            pinned_sweep = {int(row["machines"]): row for row in baseline["sweep"]}
            for machines, row in sorted(by_m.items()):
                pinned = pinned_sweep.get(machines)
                if pinned is None:
                    failures.append(f"M={machines} missing from the baseline — "
                                    "refresh with --write-baseline")
                elif row["cluster_hash"] != pinned["cluster_hash"]:
                    failures.append(
                        f"M={machines}: cluster hash {row['cluster_hash']} != "
                        f"baseline {pinned['cluster_hash']} — the cluster schedule "
                        "changed (refresh the baseline if intended)")
            if smoke is not None and baseline.get("smoke") is not None:
                if smoke["cluster_hash"] != baseline["smoke"]["cluster_hash"]:
                    failures.append(
                        f"smoke: cluster hash {smoke['cluster_hash']} != baseline "
                        f"{baseline['smoke']['cluster_hash']} — the 2M-thread "
                        "schedule changed (refresh the baseline if intended)")
        host_cpus = int(rows[0]["host_cpus"])
        if host_cpus >= 4:
            if BASELINE.exists():
                baseline = json.loads(BASELINE.read_text())
                baseline_wall = sum(r["wall_ms"] for r in baseline["sweep"])
                measured_wall = sum(r["wall_ms"] for r in rows)
                if measured_wall > baseline_wall * MAX_REGRESSION:
                    failures.append(
                        f"sweep wall time {measured_wall:.1f} ms is more than "
                        f"{MAX_REGRESSION}x above the baseline {baseline_wall:.1f} ms")
        else:
            print(f"[check_cluster_scale] SKIP: wall-time gate (host has {host_cpus} "
                  "CPUs < 4); determinism and shape gates still bind")

    if failures:
        for failure in failures:
            print(f"[check_cluster_scale] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[check_cluster_scale] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
