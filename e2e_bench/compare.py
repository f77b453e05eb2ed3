#!/usr/bin/env python3
"""Compare two sets of rdb_bench runs, workload by workload.

    python3 e2e_bench/compare.py BEFORE AFTER [--spec BENCHMARK.json]
                                 [--baseline e2e_bench/baseline.json]
    python3 e2e_bench/compare.py --summarize RUNS... --note TEXT > baseline.json

BEFORE and AFTER are run records (the JSON lines rdb_bench appends to
--out; files or directories of *.jsonl) or a baseline.json written by
--summarize. For every workload and end-to-end metric of BENCHMARK.json the
report gives each side's median and quartiles and a verdict:

  regressed     the after median is worse than the before median by more
                than the bound
  unresolved    a side's quartile spread is wider than the bound, and not
                every after run beats every before run
  improved      the after side wins at least 9 of 10 run pairs and the
                medians differ by more than the before side's quartile spread
  within-bound  otherwise
  diagnostic    the metric did not repeat within a tenth on this workload
                when the baseline was measured, or it is one of DIAGNOSTICS,
                which repeat that badly on every workload; it is reported,
                not judged

The bound of a workload and metric comes from the baseline: its quartile
spread there, but at least FLOOR. A spread above CEILING makes the pairing
a diagnostic. Pairings the baseline lacks take BENCHMARK.json's bound.

Every failed request misses every latency limit, so the share of failed
requests is judged too: the after side regresses when its share exceeds
the before side's by more than FAIL_BOUND. Exit status 1 when any pairing
regressed or a run was invalid.
"""
import argparse
import glob
import json
import os
import statistics
import sys

FLOOR = 0.05
CEILING = 0.10
FAIL_BOUND = 0.001
# Measured in every untraced run but not an end-to-end metric of
# BENCHMARK.json: (name, better).
DIAGNOSTICS = [("throughput_txn_s", "higher"), ("lat_p999_ms", "lower")]
HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(paths):
    files = []
    for p in paths:
        files += sorted(glob.glob(os.path.join(p, "*.jsonl"))) if os.path.isdir(p) else [p]
    records = []
    for path in files:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return [r for r in records if not r.get("traced")]


def load_baseline(path):
    """The parsed baseline.json at path, or None when path holds run records."""
    if os.path.isdir(path):
        return None
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError:
        return None  # several JSON lines: run records
    return doc if isinstance(doc, dict) and "workloads" in doc else None


def load_side(path):
    """{workload: {"values": {metric: [..]}, "failed": [(failed, attempted)], "invalid": n}}"""
    doc = load_baseline(path)
    if doc is not None:
        return {w: {"values": {m: s["values"] for m, s in d["metrics"].items()},
                    "failed": [tuple(x) for x in d["failed"]],
                    "invalid": d["invalid"]}
                for w, d in doc["workloads"].items()}
    side = {}
    for r in load_records([path]):
        w = side.setdefault(r["workload"], {"values": {}, "failed": [], "invalid": 0})
        w["invalid"] += 0 if r["valid"] else 1
        w["failed"].append((r["failed"], r["attempted"]))
        for name, m in r["metrics"].items():
            w["values"].setdefault(name, []).append(m["value"])
    return side


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(before, after, bound, lower_is_better):
    b1, bm, b3 = quartiles(before)
    am = statistics.median(after)
    sign = 1 if lower_is_better else -1
    worse = sign * (am - bm) / bm if bm else 0.0
    noisy = max(spread(before), spread(after)) > bound
    after_better_always = (max(after) < min(before)) if lower_is_better \
        else (min(after) > max(before))
    pairs = list(zip(before, after))
    wins = sum(1 for b, a in pairs if sign * (a - b) < 0)
    if worse > bound and not noisy:
        return "regressed", worse
    if noisy and not after_better_always:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if pairs and wins >= 0.9 * len(pairs) and abs(am - bm) > (b3 - b1):
        return "improved", worse
    return "within-bound", worse


def fail_share(failed):
    attempted = sum(a for _, a in failed)
    return sum(f for f, _ in failed) / attempted if attempted else 0.0


def summarize(paths, note, spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    side = {}
    for r in load_records(paths):
        w = side.setdefault(r["workload"], {"metrics": {}, "failed": [], "invalid": 0})
        w["invalid"] += 0 if r["valid"] else 1
        w["failed"].append([r["failed"], r["attempted"]])
        for name, m in r["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for w in side.values():
        for name, s in w["metrics"].items():
            q1, med, q3 = quartiles(s["values"])
            s.update(median=med, q1=q1, q3=q3, spread=spread(s["values"]))
            if name in end_to_end:
                s.update(bound=max(s["spread"], FLOOR), gated=s["spread"] <= CEILING)
    json.dump({"runs": note, "workloads": side}, sys.stdout, indent=1, sort_keys=True)
    print()


def bound_for(baseline, workload, metric, spec_bound):
    """(bound, gated) of a workload and metric."""
    s = (baseline or {}).get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric)
    if s is None or "bound" not in s:
        return spec_bound, True
    return s["bound"], s["gated"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("paths", nargs="+")
    ap.add_argument("--spec", default="BENCHMARK.json")
    ap.add_argument("--baseline", default=os.path.join(HERE, "baseline.json"))
    ap.add_argument("--summarize", action="store_true")
    ap.add_argument("--note", default="", help="how the summarized runs were taken")
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    if args.summarize:
        summarize(args.paths, args.note, spec)
        return 0
    if len(args.paths) != 2:
        ap.error("give BEFORE and AFTER")
    baseline = load_baseline(args.baseline) if os.path.exists(args.baseline) else None
    before, after = load_side(args.paths[0]), load_side(args.paths[1])
    bad = False
    fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
    print(f"{'workload':14s} {'metric':18s} {'before q1/med/q3':>32s} "
          f"{'after q1/med/q3':>32s} {'worse':>8s} {'bound':>6s}  verdict")
    metrics = spec["end_to_end"] + [{"name": n, "better": b, "bound": None}
                                     for n, b in DIAGNOSTICS]
    for w in sorted(set(before) & set(after)):
        for m in metrics:
            name = m["name"]
            bv, av = before[w]["values"].get(name), after[w]["values"].get(name)
            if not bv or not av:
                continue
            bound, gated = (None, False) if m["bound"] is None \
                else bound_for(baseline, w, name, m["bound"])
            v, worse = verdict(bv, av, bound or 0.0, m["better"] == "lower")
            if not gated:
                v = "diagnostic"
            bad = bad or v == "regressed"
            shown = "-" if bound is None else f"{bound:.3f}"
            print(f"{w:14s} {name:18s} {fmt(quartiles(bv)):>32s} "
                  f"{fmt(quartiles(av)):>32s} {worse:+8.3f} {shown:>6s}  {v}")
        fb, fa = fail_share(before[w]["failed"]), fail_share(after[w]["failed"])
        v = "regressed" if fa - fb > FAIL_BOUND else "within-bound"
        bad = bad or v == "regressed"
        print(f"{w:14s} {'failed share':18s} {fb:>32.6f} {fa:>32.6f} "
              f"{fa - fb:+8.4f} {FAIL_BOUND:6.3f}  {v}")
        invalid = before[w]["invalid"] + after[w]["invalid"]
        if invalid:
            print(f"{w:14s} {invalid} invalid run(s)")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
