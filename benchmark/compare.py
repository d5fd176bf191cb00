#!/usr/bin/env python3
"""Compare two sets of realrate benchmark results.

    python3 benchmark/compare.py BASE.json NEW.json [--all]
    python3 benchmark/compare.py --repeatability FILE [FILE2]

Each file is what run.py --set or --record writes; the sets inside one file
are pooled. There is one row per workload and end-to-end metric (--all adds
the per-layer metrics) with both sides' value and quartiles and a verdict.
The value is the one run.py reports: the fastest sample for throughput, the
median otherwise.

  improved, worse  the value moved by more than the metric's bound in
                   BENCHMARK.json, in its "better" direction or against it
  unchanged        the value stayed within the bound
  unresolved       a side's quartile spread is wider than the bound, and
                   neither side's every run beats every run of the other
  info             a per-layer host-time metric: it has no bound

Metrics of kind "sim" are functions of the simulated schedule and repeat
exactly for one seed, so between sets of the same seed any change counts.

--repeatability compares two sets of the same code (the two sets of one
recorded baseline, or two files) and exits 1 unless every bounded row and
every simulated row is unchanged. Otherwise the exit status is 1 when a row
is worse.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_sets(path):
    with open(path) as f:
        data = json.load(f)
    return data["sets"]


def summarize(samples, reduce):
    """The value run.py reports (fastest sample for "max", else the median) and
    the quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (max(samples) if reduce == "max" else median), q1, q3


def rel_spread(samples, reduce):
    value, q1, q3 = summarize(samples, reduce)
    return (q3 - q1) / abs(value) if value else 0.0


def verdict(base, new, better, bound, kind, reduce, same_seed):
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = summarize(base, reduce)[0], summarize(new, reduce)[0]
    if kind == "sim" and same_seed:
        if mn == mb:
            return "unchanged"
        return "improved" if (mn - mb) * sign > 0 else "worse"
    if bound is None:
        return "info"
    if max(rel_spread(base, reduce), rel_spread(new, reduce)) > bound:
        if all((y - x) * sign > 0 for x in base for y in new):
            return "improved"
        if all((x - y) * sign > 0 for x in base for y in new):
            return "worse"
        return "unresolved"
    delta = (mn - mb) / abs(mb) * sign if mb else 0.0
    if delta > bound:
        return "improved"
    if delta < -bound:
        return "worse"
    return "unchanged"


def pool(sets, workload, metric):
    samples, entry = [], None
    for s in sets:
        found = s["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if found is not None:
            samples += found["samples"]
            entry = found
    return samples, entry


def compare(base_sets, new_sets, include_layers):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = [(m, True) for m in spec["end_to_end"]]
    metrics += [(m, False) for m in spec["per_layer"]]
    seeds = {s["meta"]["seed"] for s in base_sets + new_sets}
    same_seed = len(seeds) == 1
    if not same_seed:
        print(f"note: the sets use different seeds {sorted(seeds)}; "
              "simulated metrics are compared with their bounds", file=sys.stderr)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for m, end_to_end in metrics:
            base, entry = pool(base_sets, workload, m["name"])
            new, _ = pool(new_sets, workload, m["name"])
            if not base or not new:
                continue
            kind, reduce = entry["kind"], entry["reduce"]
            v = verdict(base, new, m["better"], m.get("bound"), kind, reduce, same_seed)
            if end_to_end or include_layers or (kind == "sim" and v != "unchanged"):
                rows.append((workload, m["name"], m["unit"], summarize(base, reduce),
                             summarize(new, reduce), v))
    return rows


def fmt(stats):
    return f"{stats[0]:.5g} [{stats[1]:.5g}, {stats[2]:.5g}]"


def print_rows(rows):
    print(f"{'workload':<16} {'metric':<28} {'unit':<13} {'base value [q1, q3]':<36} "
          f"{'new value [q1, q3]':<36} {'change':>8}  verdict")
    for workload, name, unit, b, n, v in rows:
        change = f"{(n[0] - b[0]) / abs(b[0]) * 100:+.1f}%" if b[0] else "n/a"
        print(f"{workload:<16} {name:<28} {unit:<13} {fmt(b):<36} {fmt(n):<36} "
              f"{change:>8}  {v}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", type=Path)
    parser.add_argument("--all", action="store_true", help="include per-layer metrics")
    parser.add_argument("--repeatability", action="store_true",
                        help="two sets of the same code must agree")
    args = parser.parse_args()

    if len(args.files) == 2:
        base_sets, new_sets = load_sets(args.files[0]), load_sets(args.files[1])
    elif len(args.files) == 1 and args.repeatability:
        sets = load_sets(args.files[0])
        if len(sets) != 2:
            parser.error(f"{args.files[0]} holds {len(sets)} sets; --repeatability needs 2")
        base_sets, new_sets = sets[:1], sets[1:]
    else:
        parser.error("give two files, or one file of two sets with --repeatability")

    rows = compare(base_sets, new_sets, args.all)
    print_rows(rows)
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("summary: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    if args.repeatability:
        failing = [r for r in rows if r[-1] not in ("unchanged", "info")]
        return 1 if failing else 0
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
