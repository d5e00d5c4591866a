#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs (README.md in this directory).

    python3 bench/e2e/bench_compare.py BASE_DIR HEAD_DIR [--self] [--detail]

Each directory holds the stamped results bench_e2e writes
(<workload>-seed<N>.json; run.py writes them to build-e2e/runs). Traced and
smoke results are skipped. For every workload and end-to-end metric it
prints each side's median and quartiles (statistics.quantiles, n=4) and,
with the bounds from BENCHMARK.json:

  regression   head's median is worse than base's by more than the bound
  gain         head wins at least 9 of 10 seed-matched pairs (ties count for
               neither) and the medians differ by more than base's
               interquartile range
  unresolved   either side's spread (IQR / median) exceeds the bound, unless
               every head run beats every base run

--self judges an A/A pair of run sets of one commit instead: each side's
spread and the distance between the two medians must stay within the bound
(setup_s's spread is shown but not judged). --detail also prints the medians
of the workload-specific and per-layer metrics, without bounds.

Exits 1 on a regression or a failed A/A check, 2 on unusable input.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(directory):
    """workload -> seed -> result, untraced and non-smoke only."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            try:
                result = json.load(f)
            except json.JSONDecodeError:
                continue
        stamp = result.get("stamp")
        if not isinstance(stamp, dict) or stamp.get("smoke"):
            continue
        key = stamp["workload"] + (" (traced)" if stamp.get("traced") else "")
        runs.setdefault(key, {})[stamp["seed"]] = result
    return runs


def summary(values):
    """(median, q1, q3, spread) of a sample."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base, head, better):
    """Relative change of head against base, positive when head is worse."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def values_of(results, section, name):
    return {seed: r[section][name]["value"] for seed, r in results.items()
            if name in r.get(section, {})}


def fmt(med, q1, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base, head, metrics, self_check):
    failed = False
    header = (f"{'workload':<15} {'metric':<12} {'base median [q1, q3]':<32} "
              f"{'spread':>7} {'head median [q1, q3]':<32} {'spread':>7} "
              f"{'worse':>7} {'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(base) | set(head)):
        if workload.endswith("(traced)"):
            continue
        if workload not in base or workload not in head:
            print(f"{workload:<15} missing from {'head' if workload in base else 'base'}")
            failed = True
            continue
        for spec in metrics:
            name, bound, better = spec["name"], spec["bound"], spec["better"]
            a = values_of(base[workload], "end_to_end", name)
            b = values_of(head[workload], "end_to_end", name)
            if not a or not b:
                print(f"{workload:<15} {name:<12} missing")
                failed = True
                continue
            ma, qa1, qa3, sa = summary(list(a.values()))
            mb, qb1, qb3, sb = summary(list(b.values()))
            worse = worse_by(ma, mb, better)
            judged_spread = name != "setup_s"
            if self_check:
                ok = abs(worse) <= bound and (
                    not judged_spread or (sa <= bound and sb <= bound))
                verdict = "agree" if ok else "DISAGREE"
                failed |= not ok
            else:
                seeds = sorted(set(a) & set(b))
                wins = sum(1 for s in seeds
                           if worse_by(a[s], b[s], better) < 0)
                all_better = all(worse_by(x, y, better) < 0
                                 for x in a.values() for y in b.values())
                if worse > bound:
                    verdict = "REGRESSION"
                    failed = True
                elif judged_spread and max(sa, sb) > bound and not all_better:
                    verdict = "unresolved"
                elif (seeds and wins >= 0.9 * len(seeds)
                      and abs(mb - ma) > qa3 - qa1):
                    verdict = f"gain ({wins}/{len(seeds)} pairs)"
                else:
                    verdict = "no change"
            print(f"{workload:<15} {name:<12} {fmt(ma, qa1, qa3):<32} "
                  f"{sa:>7.1%} {fmt(mb, qb1, qb3):<32} {sb:>7.1%} "
                  f"{worse:>+7.1%} {bound:>6.0%}  {verdict}")
    return failed


def detail(base, head):
    for workload in sorted(set(base) & set(head)):
        names = set()
        for r in list(base[workload].values()) + list(head[workload].values()):
            for section in ("per_layer", "detail"):
                names |= {(section, n) for n in r.get(section, {})}
        print(f"\n{workload}")
        for section, name in sorted(names):
            a = list(values_of(base[workload], section, name).values())
            b = list(values_of(head[workload], section, name).values())
            if a and b:
                print(f"  {name:<40} {statistics.median(a):>14.6g} "
                      f"{statistics.median(b):>14.6g}")


def main():
    parser = argparse.ArgumentParser(
        description="Compare two directories of bench_e2e results.")
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="A/A check of two run sets of one commit")
    parser.add_argument("--detail", action="store_true",
                        help="also print medians of the unbounded metrics")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    base, head = load_runs(args.base), load_runs(args.head)
    if not base or not head:
        print("bench_compare: no results in one of the directories",
              file=sys.stderr)
        return 2
    failed = compare(base, head, metrics, args.self_check)
    if args.detail:
        detail(base, head)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
