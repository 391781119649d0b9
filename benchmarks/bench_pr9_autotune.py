#!/usr/bin/env python
"""PR9 autotune benchmark: measured calibration → auto plan selection.

Proves the tentpole guarantee end-to-end on the current host:

* **Calibrate** — runs (or reuses) the ``fastlsa calibrate`` probe and
  records the measured curves the decisions below consume.
* **Tuned vs serial** — ``autotune_config`` on an empty ``AlignConfig``
  against the serial/numpy reference at several sizes, median-of-5 both
  ways.  Every point is parity-checked (score *and* gapped strings must
  match the serial/numpy run exactly) and any mismatch exits non-zero.
* **Never-below-serial** — for every tuned point that picked a parallel
  backend, the profile's measured throughput at that ``(backend,
  workers)`` must strictly beat the measured serial throughput; a sweep
  of :func:`repro.tune.decision.choose` over a size grid re-checks the
  same invariant.  This is the BENCH_pr5 regression (threads at 0.22×
  serial being selected on a 1-CPU host), now structurally impossible.
* **Synthetic decisions** — the frozen ``slow-1cpu`` / ``fast-8cpu``
  fixtures must resolve to serial / parallel respectively, so the JSON
  also witnesses the deterministic decision layer CI runs.

Results land in ``BENCH_pr9_autotune.json`` at the repo root with honest
host metadata.

Usage::

    python benchmarks/bench_pr9_autotune.py            # default sweep
    python benchmarks/bench_pr9_autotune.py --smoke    # CI-sized
    python benchmarks/bench_pr9_autotune.py --force    # re-probe first
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

from repro import AlignConfig, fastlsa  # noqa: E402
from repro.kernels import registry  # noqa: E402
from repro.scoring import ScoringScheme, dna_simple, linear_gap  # noqa: E402
from repro.tune import (  # noqa: E402
    autotune_config,
    calibrate,
    choose,
    load_cached,
    synthetic_profile,
)
from repro.workloads import dna_pair  # noqa: E402

SEED = 42


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _profile_summary(profile):
    return {
        "fingerprint": profile.host.get("fingerprint"),
        "cpu_count": profile.cpu_count(),
        "quick": profile.quick,
        "serial_cells_per_s": int(profile.serial_cells_per_s()),
        "backends": {
            b: {str(w): int(v) for w, v in c.items()}
            for b, c in profile.backends.items()
        },
        "kernels": {
            t: {k: int(v) for k, v in c.items()}
            for t, c in profile.kernels.items()
        },
        "band_fill_cells_per_s": int(profile.band_fill_cells_per_s),
        "best_base_cells": profile.best_base_cells(),
    }


def _check_never_below_serial(profile, backend, workers, failures, where):
    """The tentpole invariant: a selected parallel point's *measured*
    curve must strictly beat measured serial throughput."""
    if backend in (None, "serial"):
        return True
    cps = profile.cells_per_s(backend, workers or 1)
    serial = profile.serial_cells_per_s()
    if cps is None or cps <= serial:
        failures.append(
            f"{where}: tuned pick {backend}@{workers} has measured "
            f"{cps} cells/s, not above serial {serial}"
        )
        return False
    return True


def bench_tuned_vs_serial(profile, lengths, repeats, failures):
    """autotune_config vs the serial/numpy reference, parity-checked."""
    rows = []
    scheme = ScoringScheme(dna_simple(), linear_gap(-6))
    for length in lengths:
        a, b = dna_pair(length, divergence=0.2, seed=SEED)
        m, n = len(a), len(b)
        with registry.use("numpy"):
            ref = fastlsa(a, b, scheme)
            serial_s = _median_time(lambda: fastlsa(a, b, scheme), repeats)
        cfg, notes = autotune_config(AlignConfig(), m, n, profile=profile)
        got = fastlsa(a, b, scheme, config=cfg)
        parity = (
            ref.score == got.score
            and ref.gapped_a == got.gapped_a
            and ref.gapped_b == got.gapped_b
        )
        if not parity:
            failures.append(f"tuned result differs from serial/numpy at {length}")
        _check_never_below_serial(
            profile, cfg.backend, cfg.max_workers, failures, f"tuned@{length}"
        )
        tuned_s = _median_time(
            lambda: fastlsa(a, b, scheme, config=cfg), repeats
        )
        rows.append({
            "length": length,
            "tuned_backend": cfg.backend or "serial",
            "tuned_workers": cfg.max_workers,
            "tuned_kernel": cfg.kernel,
            "tuned_band": cfg.band,
            "tuned_notes": list(notes),
            "serial_numpy_s": round(serial_s, 6),
            "tuned_s": round(tuned_s, 6),
            "speedup": round(serial_s / tuned_s, 3) if tuned_s else None,
            "score": ref.score,
            "parity": parity,
        })
        print(
            f"  tuned   {length:>6}  serial/numpy {serial_s:7.4f}s  "
            f"tuned({cfg.backend or 'serial'}"
            f"{'' if not cfg.max_workers else 'x%d' % cfg.max_workers}"
            f"{',' + cfg.kernel if cfg.kernel else ''}) {tuned_s:7.4f}s"
            f"  -> {serial_s / tuned_s:5.2f}x  parity={'ok' if parity else 'FAIL'}",
            flush=True,
        )
    return rows


def sweep_decision_guarantee(profile, failures):
    """choose() over a size grid: every pick honours the invariant."""
    rows = []
    for size in (64, 256, 1_000, 4_000, 16_000, 65_000, 260_000):
        choice = choose(profile, size, size)
        ok = _check_never_below_serial(
            profile, choice.backend, choice.workers, failures, f"choose@{size}"
        )
        rows.append({
            "size": size,
            "backend": choice.backend,
            "workers": choice.workers,
            "kernel": choice.kernel,
            "band": choice.band,
            "predicted_s": round(choice.predicted_s, 6),
            "never_below_serial": ok,
        })
    return rows


def synthetic_decisions(failures):
    """The frozen CI fixtures must resolve deterministically."""
    rows = []
    for kind, size, expect in (
        ("slow-1cpu", 100_000, ("serial",)),
        ("fast-8cpu", 100_000, ("threads",)),
        ("fast-8cpu", 96, ("serial",)),
    ):
        profile = synthetic_profile(kind)
        choice = choose(profile, size, size)
        ok = choice.backend in expect
        if not ok:
            failures.append(
                f"synthetic {kind}@{size}: picked {choice.backend}, "
                f"expected one of {expect}"
            )
        _check_never_below_serial(
            profile, choice.backend, choice.workers, failures,
            f"synthetic:{kind}@{size}",
        )
        rows.append({
            "profile": kind,
            "size": size,
            "backend": choice.backend,
            "workers": choice.workers,
            "expected": list(expect),
            "ok": ok,
        })
        print(
            f"  synth   {kind:<9} n={size:>6}  -> {choice.backend}@"
            f"{choice.workers}  {'ok' if ok else 'FAIL'}",
            flush=True,
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: quick probe, tiny problems")
    parser.add_argument("--force", action="store_true",
                        help="re-run the calibration probe even if cached")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per point (default 5; 2 for --smoke)")
    parser.add_argument("--out",
                        default=os.path.join(_REPO_ROOT, "BENCH_pr9_autotune.json"))
    args = parser.parse_args(argv)

    lengths = [300] if args.smoke else [600, 1200, 2400]
    repeats = args.repeats or (2 if args.smoke else 5)
    failures: list = []

    profile = None if args.force else load_cached()
    calibrated_now = profile is None
    if profile is None:
        print("# calibrating (no valid cached profile)", flush=True)
        profile = calibrate(
            quick=args.smoke, seed=SEED,
            progress=lambda msg: print(f"  probe: {msg}", flush=True),
        )
        path = profile.save()
        print(f"# profile saved to {path}", flush=True)
    else:
        print("# reusing cached calibration profile", flush=True)

    print(f"# tuned vs serial/numpy: lengths={lengths} repeats={repeats}",
          flush=True)
    tuned = bench_tuned_vs_serial(profile, lengths, repeats, failures)
    print("# decision guarantee sweep (measured profile)", flush=True)
    guarantee = sweep_decision_guarantee(profile, failures)
    print("# synthetic fixture decisions", flush=True)
    synthetic = synthetic_decisions(failures)

    payload = {
        "meta": {
            "bench": "pr9_autotune",
            "smoke": args.smoke,
            "repeats": repeats,
            "seed": SEED,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "calibrated_now": calibrated_now,
        },
        "profile": _profile_summary(profile),
        "tuned_vs_serial": tuned,
        "decision_guarantee": guarantee,
        "synthetic_decisions": synthetic,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"[wrote {args.out}]", flush=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr, flush=True)
        return 1
    print("all parity and never-below-serial checks passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
