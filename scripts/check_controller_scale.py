#!/usr/bin/env python3
"""CI regression gate for the controller's control-plane pipeline.

Runs bench_controller_scale, parses its machine-readable `CONTROLLER_SCALE ...`
line, and fails when pipeline RunOnce throughput at 4096 controlled threads fell
more than 2x below the committed baseline (BENCH_controller_baseline.json).

The threshold only means anything on an optimized build, so only the Release CI
matrix runs this gate. The 2x tolerance absorbs CI-runner speed variance; a real
algorithmic regression (the pipeline degenerating back to per-tick sweeps)
overshoots it by an order of magnitude. Refresh the baseline with:
  scripts/check_controller_scale.py BUILD_DIR --write-baseline
"""
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_controller_baseline.json"
MAX_REGRESSION = 2.0


def run_bench(build_dir: pathlib.Path) -> dict:
    bench = build_dir / "bench" / "bench_controller_scale"
    if not bench.exists():
        sys.exit(f"error: {bench} not found — build bench_controller_scale first")
    out = subprocess.run([str(bench), "--benchmark_min_time=0.01"],
                         check=True, capture_output=True, text=True).stdout
    match = re.search(r"^CONTROLLER_SCALE (.*)$", out, re.M)
    if not match:
        sys.exit("error: bench output has no CONTROLLER_SCALE line")
    fields = dict(kv.split("=", 1) for kv in match.group(1).split())
    return {k: float(v) for k, v in fields.items()}


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    build_dir = pathlib.Path(args[0]) if args else REPO / "build"
    measured = run_bench(build_dir)

    if "--write-baseline" in sys.argv:
        BASELINE.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        print(f"[check_controller_scale] wrote {BASELINE}")
        return 0

    baseline = json.loads(BASELINE.read_text())
    failures = []
    key = "pipeline_runonce_per_wsec"
    floor = baseline[key] / MAX_REGRESSION
    if measured[key] < floor:
        failures.append(
            f"{key} = {measured[key]:.0f} is more than {MAX_REGRESSION}x below the "
            f"baseline {baseline[key]:.0f} (floor {floor:.0f})")

    print(f"[check_controller_scale] measured: {measured}")
    print(f"[check_controller_scale] baseline: {baseline}")
    if failures:
        for failure in failures:
            print(f"[check_controller_scale] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[check_controller_scale] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
