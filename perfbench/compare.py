#!/usr/bin/env python3
"""Compare two sets of benchmark results.

Usage (from the repository root):

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are directories of run logs (the standard output of
`perfbench/run.py`, which keeps a copy of each under `.bench_out/runs/`)
or single log files. Runs are grouped by workload and by traced or
untraced. For each workload and metric the table shows each side's
median and quartiles, the metric's bound from BENCHMARK.json, the share
of seed-paired runs the change wins (ties count for neither), and a
verdict:

- better: the change wins at least nine tenths of the pairs and the
  medians differ by more than the base's own quartile spread;
- worse: the change's median is worse than the base's by more than the
  bound;
- unresolved: the base's quartile spread exceeds the bound, unless every
  change run beats every base run;
- unchanged: none of the above.

Per-layer metrics have no bound: they read better or worse only by the
win-share and spread rule, otherwise unchanged.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def parse_log(text):
    """(provenance, result) of one run's output, or None."""
    prov = result = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "provenance" in obj:
            prov = obj["provenance"]
        elif {"correct", "attempted", "failed", "metrics"} <= obj.keys():
            result = obj
    if prov is None or result is None:
        return None
    return prov, result


def load(path):
    """{(workload, traced): {seed: result}} from a directory or file."""
    p = Path(path)
    files = sorted(p.rglob("*")) if p.is_dir() else [p]
    runs = {}
    for f in files:
        if not f.is_file():
            continue
        parsed = parse_log(f.read_text(errors="replace"))
        if parsed is None:
            continue
        prov, result = parsed
        key = (prov["workload"], bool(prov["traced"]))
        runs.setdefault(key, {})[prov["seed"]] = result
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, pairs, bound, lower_is_better):
    """Verdict for one metric; `pairs` is a list of (base, change)."""
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    iqr = bq3 - bq1
    sign = 1.0 if lower_is_better else -1.0
    # > 0: the change is better
    gains = [sign * (b - c) for b, c in pairs]
    wins = sum(g > 0 for g in gains)
    share = wins / len(pairs) if pairs else float("nan")
    gain = sign * (bmed - cmed)
    losses = sum(g < 0 for g in gains)
    if bound is not None and bmed and iqr / abs(bmed) > bound:
        every = all(sign * (b - c) > 0 for b in base for c in change)
        return ("better" if every else "unresolved"), share
    if bound is not None and bmed and -gain / abs(bmed) > bound:
        return "worse", share
    if gain > iqr and pairs and wins >= 0.9 * len(pairs):
        return "better", share
    # without a bound, a clear loss by the same rule as a gain
    if bound is None and -gain > iqr and pairs and losses >= 0.9 * len(pairs):
        return "worse", share
    return "unchanged", share


def fmt(x):
    return f"{x:.4g}" if isinstance(x, (int, float)) else str(x)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    a = ap.parse_args(argv)
    spec = json.loads(Path(a.benchmark).read_text())
    rules = {m["name"]: (m.get("bound"), m["better"] == "lower") for m in spec["end_to_end"]}
    rules.update({m["name"]: (None, m["better"] == "lower") for m in spec["per_layer"]})
    base, change = load(a.base), load(a.change)
    header = ("workload", "mode", "metric", "unit", "base q1/med/q3", "change q1/med/q3",
              "bound", "wins", "verdict")
    rows = []
    for key in sorted(set(base) & set(change)):
        workload, traced = key
        b_runs, c_runs = base[key], change[key]
        names = [n for n in rules if all(n in r["metrics"] for r in list(b_runs.values()) + list(c_runs.values()))]
        for name in names:
            bv = {s: r["metrics"][name]["value"] for s, r in b_runs.items()}
            cv = {s: r["metrics"][name]["value"] for s, r in c_runs.items()}
            if any(v is None for v in list(bv.values()) + list(cv.values())):
                continue
            unit = next(iter(b_runs.values()))["metrics"][name]["unit"]
            pairs = [(bv[s], cv[s]) for s in sorted(set(bv) & set(cv))]
            bound, lower = rules[name]
            v, share = verdict(list(bv.values()), list(cv.values()), pairs, bound, lower)
            bq, cq = quartiles(list(bv.values())), quartiles(list(cv.values()))
            rows.append((workload, "traced" if traced else "untraced", name, unit,
                         "/".join(fmt(x) for x in bq), "/".join(fmt(x) for x in cq),
                         fmt(bound) if bound is not None else "-",
                         f"{share:.2f} of {len(pairs)}", v))
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
