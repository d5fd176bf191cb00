#!/usr/bin/env python3
"""CI gate for the open-loop web-farm sweep.

Runs bench_web_farm, parses its machine-readable `WEB_FARM ratio=...` rows
(one per offered-load ratio), and fails when any of:
  - trace_equal != 1 on any row — a re-run or the 4-host-thread run diverged
    from the reference trace. Gated UNCONDITIONALLY: determinism does not
    depend on how many CPUs the runner has. (The bench RR_CHECKs this too; the
    gate catches a build where asserts are compiled out.)
  - a row's percentile columns are out of order (p50 <= p99 <= p999) or it
    served nothing.
  - the sweep lost its overload shape: the drop fraction must rise from the
    0.5x row to the 2x row, and goodput must not fall (the feedback allocator
    targets half-full queues, so overload surfaces as admission drops while
    served requests saturate near capacity — see bench_web_farm.cc).
  - a row's trace hash differs from the committed baseline — the farm schedule
    itself changed. Compared only when the baseline file exists, skipped (with
    an explicit SKIP) under --equality-only.
  - total wall time regressed more than MAX_REGRESSION over the baseline,
    gated ONLY when the host has >= 4 CPUs (reported as an explicit SKIP
    otherwise — on starved runners wall time is noise, the shape gates above
    still bind).

With --equality-only the baseline and wall-time comparisons are skipped
entirely (the sanitizer legs run this: instrumentation inflates wall time, but
trace equality and the sweep's shape must still hold).

Refresh the baseline with:
  scripts/check_web_farm.py BUILD_DIR --write-baseline
"""
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_web_farm_baseline.json"
MAX_REGRESSION = 2.0  # Wall-time keys may drift up to 2x across runner speeds.


def run_bench(build_dir: pathlib.Path) -> list[dict]:
    bench = build_dir / "bench" / "bench_web_farm"
    if not bench.exists():
        sys.exit(f"error: {bench} not found — build bench_web_farm first")
    out = subprocess.run([str(bench), "--benchmark_min_time=0.01"],
                         check=True, capture_output=True, text=True).stdout
    rows = []
    for match in re.finditer(r"^WEB_FARM (.*)$", out, re.M):
        fields = dict(kv.split("=", 1) for kv in match.group(1).split())
        # trace_hash is a full 64-bit value: a float would silently drop its low
        # 11 bits and weaken the baseline pin to hash-prefix equality.
        rows.append({k: (int(v) if k == "trace_hash" else float(v))
                     for k, v in fields.items()})
    if not rows:
        sys.exit("error: bench output has no WEB_FARM lines")
    return rows


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    build_dir = pathlib.Path(args[0]) if args else REPO / "build"
    rows = run_bench(build_dir)
    for row in rows:
        print(f"[check_web_farm] measured: {row}")

    failures = []
    for row in rows:
        ratio = row["ratio"]
        if row["trace_equal"] != 1:
            failures.append(f"ratio {ratio}: trace_equal != 1 — re-run or parallel "
                            "run diverged from the reference trace")
        if not row["p50_ms"] <= row["p99_ms"] <= row["p999_ms"]:
            failures.append(f"ratio {ratio}: percentiles out of order "
                            f"(p50={row['p50_ms']} p99={row['p99_ms']} "
                            f"p999={row['p999_ms']})")
        if row["served"] <= 0:
            failures.append(f"ratio {ratio}: served nothing")

    by_ratio = {row["ratio"]: row for row in rows}
    low, high = min(by_ratio), max(by_ratio)
    if len(by_ratio) < 2:
        failures.append("sweep has fewer than two distinct ratios")
    else:
        if by_ratio[high]["drop_frac"] <= by_ratio[low]["drop_frac"]:
            failures.append(
                f"drop fraction did not rise with load: {by_ratio[low]['drop_frac']} "
                f"at {low}x vs {by_ratio[high]['drop_frac']} at {high}x")
        if by_ratio[high]["served"] < by_ratio[low]["served"]:
            failures.append(
                f"goodput fell under overload: served {by_ratio[high]['served']:.0f} "
                f"at {high}x vs {by_ratio[low]['served']:.0f} at {low}x")
        if by_ratio[high]["listen_drops"] + by_ratio[high]["dispatch_drops"] <= 0:
            failures.append(f"no admission drops at {high}x offered load — the sweep "
                            "never actually overloaded the farm")

    if "--write-baseline" in sys.argv:
        if failures:
            for failure in failures:
                print(f"[check_web_farm] FAIL: {failure}", file=sys.stderr)
            return 1
        BASELINE.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"[check_web_farm] wrote {BASELINE}")
        return 0

    if "--equality-only" in sys.argv:
        print("[check_web_farm] SKIP: baseline and wall-time gates (--equality-only)")
    else:
        if BASELINE.exists():
            baseline = {row["ratio"]: row for row in json.loads(BASELINE.read_text())}
            for ratio, row in sorted(by_ratio.items()):
                pinned = baseline.get(ratio)
                if pinned is None:
                    failures.append(f"ratio {ratio} missing from the baseline — "
                                    "refresh with --write-baseline")
                elif row["trace_hash"] != pinned["trace_hash"]:
                    failures.append(
                        f"ratio {ratio}: trace hash {row['trace_hash']} != "
                        f"baseline {pinned['trace_hash']} — the farm schedule "
                        "changed (refresh the baseline if intended)")
        host_cpus = int(rows[0]["host_cpus"])
        if host_cpus >= 4:
            if BASELINE.exists():
                baseline_wall = sum(r["wall_ms"] for r in json.loads(BASELINE.read_text()))
                measured_wall = sum(r["wall_ms"] for r in rows)
                if measured_wall > baseline_wall * MAX_REGRESSION:
                    failures.append(
                        f"sweep wall time {measured_wall:.1f} ms is more than "
                        f"{MAX_REGRESSION}x above the baseline {baseline_wall:.1f} ms")
        else:
            print(f"[check_web_farm] SKIP: wall-time gate (host has {host_cpus} "
                  "CPUs < 4); determinism and shape gates still bind")

    if failures:
        for failure in failures:
            print(f"[check_web_farm] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[check_web_farm] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
