#!/usr/bin/env python3
"""Build and run the realrate benchmark.

One workload, as BENCHMARK.json's command runs it:

    python3 benchmark/run.py --workload farm_steady --seed 99 --seconds 15 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; each value is the median over the run's
repetitions, except that throughput takes the fastest repetition.

The whole set, as run.sh runs it:

    python3 benchmark/run.py --set [--seed N] [--reps 7] [--seconds 15] [--out FILE] [--record]
    python3 benchmark/run.py --smoke

--set runs every workload untraced and traced, each for at least --reps
repetitions and --seconds, prints one METRIC line per workload and metric,
and writes every sample to one JSON file that compare.py reads. --record
writes two sets to results/baseline_4cpu.json and refuses to do so from a
non-Release or sanitized build.

The program is built from source into build-benchmark/ on first use. Exit
status is 0 only when every correctness check passed.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-benchmark"
BINARY = BUILD_DIR / "realrate_bench"
BASELINE = BENCH_DIR / "results" / "baseline_4cpu.json"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_pins():
    with open(BENCH_DIR / "pins.json") as f:
        return json.load(f)


def build():
    """Configures and builds realrate_bench (a no-op when up to date); output goes to stderr.

    A fresh build directory is configured as Release; an existing one keeps its
    build type, which the program reports and --record checks.
    """
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure.append("-DCMAKE_BUILD_TYPE=Release")
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (configure,
                ["cmake", "--build", str(BUILD_DIR), "--target", "realrate_bench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))


def run_binary(args):
    """Runs realrate_bench and returns its JSON report (exit 1 = a check failed)."""
    cmd = [str(BINARY)] + [str(a) for a in args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(metric):
    """The metric's value (its fastest sample for reduce "max", else the median)
    and its quartiles, as statistics.quantiles(n=4) gives them."""
    samples = metric["samples"]
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (max(samples) if metric["reduce"] == "max" else median), q1, q3


def pin_failures(report, pins):
    """The default seed's full-horizon hashes must equal the pinned ones."""
    if report["seed"] != pins["seed"] or report["divisor"] != 1:
        return []
    expected = pins["hashes"].get(report["workload"])
    if expected != report["hashes"]:
        return [f"{report['workload']}: hashes {report['hashes']} != pinned {expected}"]
    return []


def failed_checks(report):
    return [f"{report['workload']}: {c['name']}: {c['detail']}"
            for c in report["checks"] if not c["ok"]]


def run_one(args):
    spec = load_spec()
    build()
    before, stolen = loadavg(), steal_s()
    report = run_binary(["--workload", args.workload, "--seed", args.seed,
                         "--seconds", args.seconds, "--trace", args.trace])
    log(f"loadavg before {before} after {loadavg()}; steal {steal_since(stolen)} s")
    extra = pin_failures(report, load_pins())
    names = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    metrics = {}
    for name in names:
        entry = report["metrics"].get(name)
        if entry is None:
            extra.append(f"metric {name} missing")
            continue
        metrics[name] = {"value": summarize(entry)[0], "unit": entry["unit"]}
    problems = failed_checks(report) + extra
    for p in problems:
        log("FAILED", p)
    print(json.dumps({"correct": not problems, "attempted": report["attempted"],
                      "failed": report["failed"] + len(extra), "metrics": metrics}))
    return 0 if not problems else 1


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def steal_s():
    """CPU seconds the hypervisor gave to others while this guest's vCPUs wanted
    to run, summed over vCPUs: direct evidence of interference."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def steal_since(start):
    now = steal_s()
    return None if start is None or now is None else round(now - start, 2)


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                              "--abbrev=12"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_set(seed, reps, seconds):
    """Every workload untraced then traced, with the load around each."""
    spec = load_spec()
    pins = load_pins()
    result = {"meta": {"host_cpus": os.cpu_count(), "commit": commit(),
                       "machine": platform.machine(), "seed": seed, "reps": reps,
                       "seconds": seconds,
                       "started": time.strftime("%Y-%m-%dT%H:%M:%S")},
              "workloads": {}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        before, stolen = loadavg(), steal_s()
        reports = [run_binary(["--workload", workload, "--seed", seed, "--trace", trace,
                               "--reps", reps, "--seconds", seconds]) for trace in (0, 1)]
        entry = {"loadavg_before": before, "loadavg_after": loadavg(),
                 "steal_s": steal_since(stolen),
                 "hashes": reports[0]["hashes"], "reps": reports[0]["reps"],
                 "checks": reports[0]["checks"] + reports[1]["checks"], "metrics": {}}
        for report in reports:
            problems += failed_checks(report) + pin_failures(report, pins)
            for name, m in report["metrics"].items():
                value, q1, q3 = summarize(m)
                entry["metrics"][name] = dict(m, value=value, q1=q1, q3=q3)
                print(f"METRIC workload={workload} name={name} value={value:.6g} "
                      f"unit={m['unit']} q1={q1:.6g} q3={q3:.6g} n={len(m['samples'])}",
                      flush=True)
        result["workloads"][workload] = entry
        result["meta"]["build_type"] = reports[0]["build_type"]
        result["meta"]["sanitized"] = reports[0]["sanitized"]
    return result, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", action="store_true", help="run every workload")
    parser.add_argument("--reps", type=int, default=7, help="repetitions per workload (--set)")
    parser.add_argument("--out", type=Path, default=BUILD_DIR / "set.json")
    parser.add_argument("--record", action="store_true",
                        help=f"run two sets into {BASELINE.relative_to(ROOT)}")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/50 horizon, one repetition, all checks")
    args = parser.parse_args()

    if args.workload and not (args.set or args.record or args.smoke):
        return run_one(args)
    if not (args.set or args.record or args.smoke):
        parser.error("give --workload, --set, --record or --smoke")
    build()
    if args.smoke:
        return subprocess.run([str(BINARY), "--smoke"]).returncode
    sets = []
    problems = []
    for _ in range(2 if args.record else 1):
        result, failures = run_set(args.seed, args.reps, args.seconds)
        sets.append(result)
        problems += failures
    for p in problems:
        log("FAILED", p)
    if problems:
        return 1
    if args.record:
        if any(s["meta"]["build_type"] != "Release" or s["meta"]["sanitized"] for s in sets):
            raise SystemExit("refusing to record: not an unsanitized Release build")
        out = BASELINE
    else:
        out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"sets": sets}, indent=1) + "\n")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
