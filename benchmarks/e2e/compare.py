"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A/ B/

``A/`` (the parent) and ``B/`` (the change) hold run records written by
``run.py --out``; the i-th file of each, by name, form a pair, so make the
runs alternately (A1 B1 B2 A2 A3 B3 ...).  One row per workload x
end-to-end metric:

* ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the metric's bound, unless every B run beats every A run;
* ``better`` — at least 10 pairs, B wins at least 9/10 of them (ties count
  for neither) and the medians differ by more than A's quartile distance;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``unchanged`` — otherwise.

A further row per workload compares the share of operations that failed or
were refused, summed over each side's runs; it is ``worse`` when B's share
is higher than A's, since a change that fails more operations gains
nothing by being faster at the rest.

Refuses (exit 2) to compare runs whose host metadata differ, or that were
made with different arguments other than ``--seed``, ``--out`` and
``--workload``.  Exits 1
when any row is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from harness import HOST_KEYS, load_spec

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9
#: Run arguments that may differ between the runs compared (a record holds
#: the workloads it ran, so one-workload and all-workload records mix).
FREE_ARGS = ("seed", "out", "workload")


def load_runs(directory: str):
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise SystemExit(f"error: no run records (*.json) in {directory}")
    runs = []
    for path in paths:
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def host_key(run) -> tuple:
    return tuple(run["host"].get(k) for k in HOST_KEYS)


def args_key(run) -> str:
    return json.dumps({k: v for k, v in run["args"].items() if k not in FREE_ARGS},
                      sort_keys=True)


def failed_share(runs, workload: str) -> float:
    results = [r["results"][workload] for r in runs if workload in r["results"]]
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def values(runs, workload: str, name: str):
    out = []
    for run in runs:
        metrics = run["results"].get(workload, {}).get("metrics")
        if metrics and name in metrics:
            out.append(metrics[name]["value"])
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(a, b, bound: float, higher_is_better: bool):
    """Classify B against A; returns ``(verdict, relative change, wins)``."""
    sign = 1.0 if higher_is_better else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / med_a  # > 0 means B is better
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    spread_a = (qa[2] - qa[0]) / med_a
    spread_b = (qb[2] - qb[0]) / med_b
    every_b_better = all(sign * (y - x) > 0 for x in a for y in b)
    if (spread_a > bound or spread_b > bound) and not every_b_better:
        result = "unresolved"
    elif (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
          and abs(med_b - med_a) > qa[2] - qa[0]):
        result = "better"
    elif change < -bound:
        result = "worse"
    else:
        result = "unchanged"
    return result, change, wins, len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    hosts = {host_key(r) for r in runs_a + runs_b}
    if len(hosts) != 1:
        print("error: the runs come from different hosts "
              f"({', '.join(HOST_KEYS)}): {sorted(map(str, hosts))}", file=sys.stderr)
        return 2
    settings = {args_key(r) for r in runs_a + runs_b}
    if len(settings) != 1:
        print(f"error: the runs were made with different arguments: {sorted(settings)}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"A={argv[0]} ({len(runs_a)} runs)  B={argv[1]} ({len(runs_b)} runs)")
    print(f"{'workload':<14} {'metric':<21} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'wins':>6} {'bound':>6}  verdict")
    worse = 0
    for workload in workloads:
        for m in spec["end_to_end"]:
            a, b = values(runs_a, workload, m["name"]), values(runs_b, workload, m["name"])
            if not a or not b:
                continue
            result, change, wins, n = verdict(a, b, m["bound"], m["better"] == "higher")
            worse += result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:<14} {m['name']:<21} "
                  f"{_cell(qa):>30} {_cell(qb):>30} {100 * change:>+7.1f}% "
                  f"{wins:>3}/{n:<2} {m['bound']:>6.2f}  {result}")
        fa, fb = failed_share(runs_a, workload), failed_share(runs_b, workload)
        result = "worse" if fb > fa else "unchanged"
        worse += result == "worse"
        print(f"{workload:<14} {'failed_share':<21} {fa:>30.4g} {fb:>30.4g} "
              f"{'':>8} {'':>6} {'':>6}  {result}")
    return 1 if worse else 0


def _cell(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


if __name__ == "__main__":
    sys.exit(main())
