#!/usr/bin/env python
"""PR5 backend benchmark: length × workers × backend, plus kernel fast path.

Sweeps the two wavefront backends (``serial`` / ``threads``) over a grid
of sequence lengths and worker counts,
median-of-``--repeats`` wall times on fixed-seed workloads, and verifies
**parity** as it goes: every backend run must reproduce the serial
backend's score *and* traceback path bit-for-bit — any mismatch makes
the script exit non-zero (the CI ``bench-smoke`` job runs ``--smoke``
for exactly this check).

Also times the PR5 kernel fast path (fused row sweep + hoisted score-row
gather) against the pre-PR5 kernel shape (per-row ``table[a][b_codes]``
gather, fresh temporaries per row) and asserts the ≥1.3× bar in full
mode.

Results land in ``BENCH_pr5_backends.json`` at the repo root, including
``cpu_count`` — speedups are only meaningful relative to the cores the
host actually had.

Usage::

    python benchmarks/bench_pr5_backends.py            # default sweep
    python benchmarks/bench_pr5_backends.py --smoke    # CI-sized, parity-focused
    python benchmarks/bench_pr5_backends.py --full     # adds the 50k × 50k point
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
if os.path.isdir(os.path.join(_REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro import fastlsa  # noqa: E402
from repro.core import AlignConfig  # noqa: E402
from repro.kernels.linear import score_profile, sweep_last_row_col  # noqa: E402
from repro.parallel import shutdown_pools  # noqa: E402
from repro.scoring import ScoringScheme, dna_simple, linear_gap  # noqa: E402
from repro.workloads import dna_pair  # noqa: E402

SEED = 42
KERNEL_BAR = 1.3


def _legacy_sweep_last_row_col(a_codes, b_codes, table, gap, first_row, first_col):
    """The pre-PR5 kernel shape: per-row score gather, per-row temporaries."""
    M, N = len(a_codes), len(b_codes)
    gap = int(gap)
    last_col = np.empty(M + 1, dtype=np.int64)
    last_col[0] = first_row[N]
    prev = np.asarray(first_row, dtype=np.int64).copy()
    gj = np.arange(N + 1, dtype=np.int64) * gap
    for i in range(1, M + 1):
        s = table[a_codes[i - 1]][b_codes]  # the hoistable gather
        v = np.maximum(prev[:-1] + s, prev[1:] + gap)
        t = np.empty(N + 1, dtype=np.int64)
        t[0] = first_col[i]
        t[1:] = v - gj[1:]
        np.maximum.accumulate(t, out=t)
        cur = t + gj
        cur[0] = first_col[i]
        last_col[i] = cur[N]
        prev = cur
    return prev, last_col


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def bench_kernel(length, repeats):
    """Legacy vs fused sequential kernel on one dense sweep."""
    scheme = ScoringScheme(dna_simple(), linear_gap(-2))
    a, b = dna_pair(length, divergence=0.25, seed=SEED)
    a_codes, b_codes = scheme.encode(a), scheme.encode(b)
    table = scheme.matrix.table
    first_row = np.arange(len(b_codes) + 1, dtype=np.int64) * -2
    first_col = np.arange(len(a_codes) + 1, dtype=np.int64) * -2
    prof = score_profile(table, b_codes)

    ref_row, ref_col = _legacy_sweep_last_row_col(
        a_codes, b_codes, table, -2, first_row, first_col
    )
    new_row, new_col = sweep_last_row_col(
        a_codes, b_codes, table, -2, first_row, first_col, profile=prof
    )
    parity = bool(
        np.array_equal(ref_row, new_row) and np.array_equal(ref_col, new_col)
    )

    legacy_s, _ = _median_time(
        lambda: _legacy_sweep_last_row_col(
            a_codes, b_codes, table, -2, first_row, first_col
        ),
        repeats,
    )
    fused_s, _ = _median_time(
        lambda: sweep_last_row_col(
            a_codes, b_codes, table, -2, first_row, first_col, profile=prof
        ),
        repeats,
    )
    return {
        "length": length,
        "legacy_s": round(legacy_s, 6),
        "fused_s": round(fused_s, 6),
        "speedup": round(legacy_s / fused_s, 3) if fused_s else None,
        "bar": KERNEL_BAR,
        "parity": parity,
    }


def bench_backends(lengths, workers_list, repeats, k, base_cells):
    """The length × workers × backend sweep, parity-checked against serial."""
    scheme = ScoringScheme(dna_simple(), linear_gap(-2))
    rows = []
    failures = []
    for length in lengths:
        a, b = dna_pair(length, divergence=0.25, seed=SEED)
        serial_cfg = AlignConfig(k=k, base_cells=base_cells)
        ref = fastlsa(a, b, scheme, config=serial_cfg)
        serial_s, serial_runs = _median_time(
            lambda: fastlsa(a, b, scheme, config=serial_cfg), repeats
        )
        rows.append({
            "length": length, "backend": "serial", "workers": 1,
            "median_s": round(serial_s, 6),
            "runs_s": [round(t, 6) for t in serial_runs],
            "cells_per_s": int(length * length / serial_s) if serial_s else None,
            "speedup_vs_serial": 1.0,
            "score": ref.score, "parity": True,
        })
        print(f"  {length:>6} serial       w=1  {serial_s:8.3f}s", flush=True)
        for workers in workers_list:
            cfg = AlignConfig(
                k=k, base_cells=base_cells,
                max_workers=workers, backend="threads",
            )
            got = fastlsa(a, b, scheme, config=cfg)
            parity = (
                got.score == ref.score
                and got.path.points == ref.path.points
            )
            if not parity:
                failures.append(
                    f"threads w={workers} length={length}: "
                    f"score {got.score} vs {ref.score}"
                )
            med_s, runs = _median_time(
                lambda: fastlsa(a, b, scheme, config=cfg), repeats
            )
            rows.append({
                "length": length, "backend": "threads", "workers": workers,
                "median_s": round(med_s, 6),
                "runs_s": [round(t, 6) for t in runs],
                "cells_per_s": int(length * length / med_s) if med_s else None,
                "speedup_vs_serial": round(serial_s / med_s, 3) if med_s else None,
                "score": got.score, "parity": parity,
            })
            print(
                f"  {length:>6} threads      w={workers}  {med_s:8.3f}s  "
                f"{serial_s / med_s:5.2f}x  parity={'ok' if parity else 'FAIL'}",
                flush=True,
            )
    return rows, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: tiny problems, parity is the point")
    parser.add_argument("--full", action="store_true",
                        help="add the 50k x 50k / 4-worker point (slow)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per point (default 5; 2 for --smoke)")
    parser.add_argument("--lengths", type=int, nargs="+", default=None)
    parser.add_argument("--workers", type=int, nargs="+", default=None)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--base-cells", type=int, default=256 * 1024)
    parser.add_argument("--out", default=os.path.join(_REPO_ROOT, "BENCH_pr5_backends.json"))
    args = parser.parse_args(argv)

    if args.smoke:
        lengths = args.lengths or [256, 400]
        workers_list = args.workers or [2]
        repeats = args.repeats or 2
        kernel_length = 400
        base_cells = 1024  # force real FillCache regions at toy sizes
    else:
        lengths = args.lengths or [2000, 5000, 10000]
        workers_list = args.workers or [2, 4]
        repeats = args.repeats or 5
        kernel_length = 2000
        base_cells = args.base_cells
    if args.full and 50000 not in lengths:
        lengths = lengths + [50000]

    print(f"# kernel fast path ({kernel_length} x {kernel_length})", flush=True)
    kernel = bench_kernel(kernel_length, repeats)
    print(
        f"  legacy {kernel['legacy_s']:.3f}s  fused {kernel['fused_s']:.3f}s  "
        f"-> {kernel['speedup']}x (bar {KERNEL_BAR}x)  "
        f"parity={'ok' if kernel['parity'] else 'FAIL'}",
        flush=True,
    )

    print(f"# backend sweep: lengths={lengths} workers={workers_list} "
          f"repeats={repeats}", flush=True)
    rows, failures = bench_backends(
        lengths, workers_list, repeats, args.k, base_cells
    )
    shutdown_pools()

    payload = {
        "meta": {
            "bench": "pr5_backends",
            "smoke": args.smoke,
            "repeats": repeats,
            "seed": SEED,
            "k": args.k,
            "base_cells": base_cells,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "kernel_fastpath": kernel,
        "sweep": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"[wrote {args.out}]", flush=True)

    if not kernel["parity"]:
        failures.append("kernel fast path output differs from legacy kernel")
    if not args.smoke and kernel["speedup"] is not None \
            and kernel["speedup"] < KERNEL_BAR:
        failures.append(
            f"kernel fast path speedup {kernel['speedup']}x below the "
            f"{KERNEL_BAR}x bar"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr, flush=True)
        return 1
    print("all parity checks passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
