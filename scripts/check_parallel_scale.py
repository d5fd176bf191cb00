#!/usr/bin/env python3
"""CI gate for the parallel dispatch engine.

Runs bench_parallel_engine and parses its machine-readable lines:
  - `PARALLEL_SCALE ...` — the pure-hog farm table (every round passes the
    independence gate with no queue traffic at all).
  - `PARALLEL_SCALE_MAILBOX family=... ...` — the queue-driven rows (matched-rate
    pipeline farm, web farm at 85% capacity) whose rounds stake real
    BoundedBuffer push/pop traffic through the per-core epoch mailboxes.

The gate fails when any of:
  - trace_equal != 1 on any row — a parallel run did not reproduce the
    single-threaded reference trace bit for bit. Gated UNCONDITIONALLY:
    determinism does not depend on how many CPUs the runner has. (The bench also
    RR_CHECKs this internally, so a divergence usually aborts before we get here;
    the gate catches a build where asserts are compiled out.)
  - parallel_rounds == 0 (hog farm) or mailbox_rounds == 0 (mailbox rows) — the
    engine never fanned the rounds out, so the equality above would be vacuous.
    Also gated unconditionally: the gate decision is deterministic.
  - a 4-host-thread end-to-end speedup fell below the bar, gated ONLY when the
    host actually has >= 4 CPUs — on starved runners the extra host threads just
    time-slice one core and the column is noise.

With --equality-only the speedup and baseline comparisons are skipped entirely
(the sanitizer legs run this: TSan serializes everything, so wall time is
meaningless there, but trace equality and round-count vacuity must still hold).

Refresh the baseline with:
  scripts/check_parallel_scale.py BUILD_DIR --write-baseline
"""
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_parallel_baseline.json"
MIN_SPEEDUP_HT4 = 1.5   # The acceptance bar: >= 1.5x farm e2e at 4 host threads.
MAX_REGRESSION = 2.0    # Wall-time keys may drift up to 2x across runner speeds.
MAILBOX_FAMILIES = ("pipeline", "webfarm")


def parse_fields(blob: str) -> dict:
    fields = dict(kv.split("=", 1) for kv in blob.split())
    return {k: (v if k == "family" else float(v)) for k, v in fields.items()}


def run_bench(build_dir: pathlib.Path) -> dict:
    bench = build_dir / "bench" / "bench_parallel_engine"
    if not bench.exists():
        sys.exit(f"error: {bench} not found — build bench_parallel_engine first")
    out = subprocess.run([str(bench)], check=True, capture_output=True, text=True).stdout
    match = re.search(r"^PARALLEL_SCALE (.*)$", out, re.M)
    if not match:
        sys.exit("error: bench output has no PARALLEL_SCALE line")
    measured = {"farm": parse_fields(match.group(1)), "mailbox": {}}
    for blob in re.findall(r"^PARALLEL_SCALE_MAILBOX (.*)$", out, re.M):
        fields = parse_fields(blob)
        measured["mailbox"][fields.pop("family")] = fields
    for family in MAILBOX_FAMILIES:
        if family not in measured["mailbox"]:
            sys.exit(f"error: bench output has no PARALLEL_SCALE_MAILBOX line "
                     f"for family={family}")
    return measured


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    build_dir = pathlib.Path(args[0]) if args else REPO / "build"
    measured = run_bench(build_dir)
    print(f"[check_parallel_scale] measured: {measured}")

    failures = []
    farm = measured["farm"]
    if farm["trace_equal"] != 1:
        failures.append("farm trace_equal != 1: parallel runs diverged from the "
                        "single-threaded reference trace")
    if farm["parallel_rounds"] <= 0:
        failures.append("farm parallel_rounds == 0: the engine never fanned a round "
                        "out (gate regression? the equality above would be vacuous)")
    for family, row in measured["mailbox"].items():
        if row["trace_equal"] != 1:
            failures.append(f"mailbox[{family}] trace_equal != 1: a staked round "
                            "diverged from the single-threaded reference trace")
        if row["mailbox_rounds"] <= 0:
            failures.append(f"mailbox[{family}] mailbox_rounds == 0: no round staked "
                            "queue ops through the mailbox gate (the equality above "
                            "would be vacuous for queue-driven rounds)")
        if row["parallel_rounds"] <= 0:
            failures.append(f"mailbox[{family}] parallel_rounds == 0: the engine "
                            "never fanned a round out at all")

    if "--write-baseline" in sys.argv:
        if failures:
            for failure in failures:
                print(f"[check_parallel_scale] FAIL: {failure}", file=sys.stderr)
            return 1
        BASELINE.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        print(f"[check_parallel_scale] wrote {BASELINE}")
        return 0

    if "--equality-only" not in sys.argv:
        host_cpus = int(farm["host_cpus"])
        if host_cpus >= 4:
            if farm["speedup_ht4"] < MIN_SPEEDUP_HT4:
                failures.append(
                    f"farm speedup_ht4 = {farm['speedup_ht4']:.2f}x at 512 "
                    f"threads/core is below the pinned {MIN_SPEEDUP_HT4}x bar "
                    f"(host has {host_cpus} CPUs)")
            for family, row in measured["mailbox"].items():
                if row["speedup_ht4"] < MIN_SPEEDUP_HT4:
                    failures.append(
                        f"mailbox[{family}] speedup_ht4 = {row['speedup_ht4']:.2f}x "
                        f"is below the pinned {MIN_SPEEDUP_HT4}x bar (host has "
                        f"{host_cpus} CPUs)")
        else:
            print(f"[check_parallel_scale] SKIP: speedup gates (host has {host_cpus} "
                  "CPUs < 4); trace equality and round-count vacuity still bind")
        if BASELINE.exists():
            baseline = json.loads(BASELINE.read_text())
            print(f"[check_parallel_scale] baseline: {baseline}")
            if "farm" not in baseline:
                # Pre-mailbox flat baseline: only the farm keys existed.
                baseline = {"farm": baseline, "mailbox": {}}
            floor = baseline["farm"]["wall_ht1"] * MAX_REGRESSION
            if farm["wall_ht1"] > floor:
                failures.append(
                    f"farm wall_ht1 = {farm['wall_ht1']:.3f}s is more than "
                    f"{MAX_REGRESSION}x above the baseline "
                    f"{baseline['farm']['wall_ht1']:.3f}s — the sequential engine "
                    "itself regressed")
            for family, row in baseline.get("mailbox", {}).items():
                got = measured["mailbox"].get(family)
                if got is not None and got["wall_ht1"] > row["wall_ht1"] * MAX_REGRESSION:
                    failures.append(
                        f"mailbox[{family}] wall_ht1 = {got['wall_ht1']:.3f}s is more "
                        f"than {MAX_REGRESSION}x above the baseline "
                        f"{row['wall_ht1']:.3f}s — the sequential engine itself "
                        "regressed")

    if failures:
        for failure in failures:
            print(f"[check_parallel_scale] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[check_parallel_scale] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
