#!/usr/bin/env python3
"""CI regression gate for the thread-state slab layout.

Runs bench_thread_slabs, parses its machine-readable `SLAB_SCALE ...` line, and
fails when either:
  - the slab column sweep throughput at 4096 threads fell more than 2x below the
    committed baseline (BENCH_slab_baseline.json), or
  - the slab-vs-AoS sweep speedup dropped below 1.05x — the column layout must
    stay strictly cheaper to sweep than pointer-chasing thread records, on any
    host; a drop below that bar means the slab sweep regressed to per-record
    loads (or the mirror write-through got hot enough to poison the columns).

The 2x tolerance absorbs CI-runner speed variance; a real layout regression
(the sweep degenerating to the AoS pattern) lands at 1.0x and trips the
speedup bar regardless of host speed. Refresh the baseline with:
  scripts/check_slab_scale.py BUILD_DIR --write-baseline
"""
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_slab_baseline.json"
MIN_SWEEP_SPEEDUP = 1.05
MAX_REGRESSION = 2.0


def run_bench(build_dir: pathlib.Path) -> dict:
    bench = build_dir / "bench" / "bench_thread_slabs"
    if not bench.exists():
        sys.exit(f"error: {bench} not found — build bench_thread_slabs first")
    out = subprocess.run([str(bench), "--benchmark_min_time=0.01"],
                         check=True, capture_output=True, text=True).stdout
    match = re.search(r"^SLAB_SCALE (.*)$", out, re.M)
    if not match:
        sys.exit("error: bench output has no SLAB_SCALE line")
    fields = dict(kv.split("=", 1) for kv in match.group(1).split())
    return {k: float(v) for k, v in fields.items()}


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    build_dir = pathlib.Path(args[0]) if args else REPO / "build"
    measured = run_bench(build_dir)

    if "--write-baseline" in sys.argv:
        BASELINE.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        print(f"[check_slab_scale] wrote {BASELINE}")
        return 0

    baseline = json.loads(BASELINE.read_text())
    failures = []
    key = "slab_sweep_per_wsec"
    floor = baseline[key] / MAX_REGRESSION
    if measured[key] < floor:
        failures.append(
            f"{key} = {measured[key]:.0f} is more than {MAX_REGRESSION}x below "
            f"the baseline {baseline[key]:.0f} (floor {floor:.0f})")
    if measured["sweep_speedup"] < MIN_SWEEP_SPEEDUP:
        failures.append(
            f"sweep_speedup = {measured['sweep_speedup']:.2f}x at 4096 threads is "
            f"below the pinned {MIN_SWEEP_SPEEDUP}x bar")

    print(f"[check_slab_scale] measured: {measured}")
    print(f"[check_slab_scale] baseline: {baseline}")
    if failures:
        for failure in failures:
            print(f"[check_slab_scale] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[check_slab_scale] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
