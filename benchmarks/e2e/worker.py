"""One workload in its own process.

    python worker.py --workload NAME --seed N --seconds S --trace 0|1
                     --role setup|run --workdir DIR --trace-dir DIR [--corrupt]

``run.py`` starts it with ``PYTHONPATH`` on the benchmark's private copy of
``src/`` and ``FASTLSA_CACHE_DIR`` on an empty directory.  It times its own
set-up (``import repro``, calibration, index build/save/load).  With
``--role run`` it then runs the workload, verifies every output and prints
one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List

from harness import WORKLOADS, host_scale, median, metric, percentile, reference_probe

#: Set-up parts whose sum is ``setup_s``.
SETUP_PARTS = ("import_s", "calibrate_s", "index_build_s", "index_save_s", "index_load_s")
#: Wall-clock budget of each per-layer probe.
PROBE_BUDGET_S = 0.5
#: Errors quoted in the result (the count is always complete).
MAX_QUOTED = 10


def main(argv=None) -> int:
    args = parse_args(argv)
    probe_before = reference_probe()
    t0 = time.perf_counter()
    import repro  # noqa: F401  -- timed: importing the library is set-up
    import_s = time.perf_counter() - t0

    import numpy as np
    from repro.tune.probe import calibrate

    t0 = time.perf_counter()
    profile = calibrate(quick=True, seed=args.seed)
    profile.save()
    setup = {"import_s": import_s, "calibrate_s": time.perf_counter() - t0,
             "probe_before_s": probe_before}

    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    result = run_workload(args, setup, rng)
    result.update(workload=args.workload, seed=args.seed, role=args.role,
                  calibration=calibration_summary(profile))
    print(json.dumps(result))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "run"), default="run")
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--quick", action="store_true", help="a tenth of the inputs")
    p.add_argument("--corrupt", action="store_true",
                   help="off-by-one the first oracle value (self-test)")
    return p.parse_args(argv)


def finish_setup(setup: dict) -> dict:
    """Sum the set-up parts; the reference probes run before and after
    the set-up give the factor that puts it at the reference host speed."""
    setup["setup_s"] = sum(setup.get(k, 0.0) for k in SETUP_PARTS)
    setup["scale"] = host_scale(setup["probe_before_s"], reference_probe())
    return setup


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the workloads: one caller, closed loop
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """The timed repetitions of one run."""

    wall: float = 0.0
    attempts: int = 0
    done_cells: int = 0  # nominal cells of the completed attempts
    cells: dict = field(default_factory=dict)  # input key -> nominal cells
    #: input key -> [(seconds, index of the last probe before it)] per attempt
    times: dict = field(default_factory=dict)
    failed: set = field(default_factory=set)  # input keys with a failed attempt
    outputs: dict = field(default_factory=dict)  # (input key, record) -> op, once each
    errors: List[str] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)  # reference probe seconds

    def at_reference_speed(self, seconds: float, probe: int) -> float:
        """An attempt's time scaled by the probes just before and after it."""
        return seconds * host_scale(self.probes[probe], self.probes[probe + 1])


def run_closed(ops, index, passes: int, probe_every: int = 0, tracer=None) -> Pass:
    """Call every op ``passes`` times, cycling through the list, so that each
    input's repetitions spread over the whole run.  The count is fixed, so
    a faster program does the same work, not more.  With ``probe_every``,
    the host-speed reference probe runs, untimed, before every
    ``probe_every``-th op and once at the end.  ``tracer`` wraps each call
    in an op span."""
    from layers import OP_SPAN
    from workloads import execute

    out = Pass()
    start = time.perf_counter()
    for _ in range(passes):
        for i, op in enumerate(ops):
            if probe_every and i % probe_every == 0:
                out.probes.append(reference_probe())
            span = (nullcontext() if tracer is None
                    else tracer.span(OP_SPAN, "e2e", kind=op.kind, key=op.key))
            t0 = time.perf_counter()
            try:
                with span:
                    record = execute(op, index)
            except Exception as exc:  # a failed op is counted and reported, not fatal
                record = None
                out.failed.add(op.key)
                out.errors.append(f"{op.kind}#{op.key}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
            out.attempts += 1
            out.cells[op.key] = op.cells
            out.times.setdefault(op.key, []).append((elapsed, len(out.probes) - 1))
            if record is not None:
                out.done_cells += op.cells
                out.outputs.setdefault((op.key, record), op)
    if probe_every:
        out.probes.append(reference_probe())
    out.wall = time.perf_counter() - start
    return out


def run_workload(args, setup: dict, rng) -> dict:
    import workloads as wl
    from verify import SEARCH_BRUTE_FORCE, Verifier

    index = corpus = None
    if args.workload == "corpus_search":
        records, bases = wl.search_corpus(rng)
        index, timings = wl.build_index(records, args.workdir)
        setup.update(timings)
    finish_setup(setup)
    if args.role == "setup":
        return {"setup": setup}
    if args.workload == "genome_pair":
        ops = wl.genome_pair(rng)
    elif args.workload == "short_pairs":
        ops = wl.short_pairs(rng)
    else:
        ops = wl.search_queries(rng, bases)
        corpus = records
        residues = sum(len(r.text) for r in corpus)
        for op in ops:
            op.cells = len(op.a) * residues
    if args.quick:
        ops = ops[:max(2, len(ops) // 10)]
    passes = max(1, round(args.seconds / wl.PASS_S[args.workload]))

    result = {"setup": setup, "plan": resolved_plan(ops, corpus), "passes": passes}
    if args.trace:
        from layers import spans_by_name
        from repro import obs

        untraced = run_closed(ops, index, max(1, passes // 2))
        with obs.instrumented() as inst:
            traced = run_closed(ops, index, max(1, passes // 2), tracer=inst.tracer)
        runs = [untraced, traced]
        result.update(layer_report(
            args, inst.tracer, spans_by_name(inst.tracer), inst.metrics.snapshot(),
            traced.wall, traced.done_cells, traced.wall / untraced.wall, setup,
            [p for op in ops for p in wl.probe_pairs(op, index)],
        ))
    else:
        timed = run_closed(ops, index, passes, probe_every=wl.PROBE_EVERY[args.workload])
        runs = [timed]
        rss = peak_rss_mb()
        result["timed_s"] = timed.wall
        result["probes_ms"] = [1000.0 * t for t in timed.probes]
        result["metrics"] = closed_loop_metrics(timed, rss, at_reference_speed=True)
        result["raw_metrics"] = closed_loop_metrics(timed, rss, at_reference_speed=False)
        result["input_ms"] = {key: [1000.0 * t for t, _ in attempts]
                              for key, attempts in sorted(timed.times.items())}

    t0 = time.perf_counter()
    verifier = Verifier(args.workload, corrupt=args.corrupt)
    outputs = {}  # a repetition that returned the same record needs no second check
    for p in runs:
        outputs.update(p.outputs)
    for (key, rec), op in outputs.items():
        label = f"{op.kind}#{key}"
        if op.kind == "global":
            verifier.global_pair(label, key, op.a, op.b, op.scheme, rec,
                                 full_matrix=args.workload == "short_pairs")
        elif op.kind == "local":
            verifier.local_pair(label, key, op.a, op.b, op.scheme, rec)
        elif op.kind == "semiglobal":
            verifier.semiglobal_pair(label, key, op.a, op.b, op.scheme, rec)
        else:
            verifier.search_hits(label, key, op.a, corpus, op.scheme, rec, wl.TOP_K,
                                 brute_force=key < SEARCH_BRUTE_FORCE)
    result["verify_s"] = time.perf_counter() - t0
    errors = [e for p in runs for e in p.errors]
    result.update(outcome(sum(p.attempts for p in runs), errors, verifier))
    return result


def closed_loop_metrics(p: Pass, rss_mb: float, at_reference_speed: bool) -> dict:
    """Each distinct input's latency is the median of its repetitions,
    which are spread over the whole run; every input runs the same number
    of times on every commit.  With ``at_reference_speed`` each repetition
    is first scaled by the reference probes around it.  An input with a
    failed attempt counts as an infinite latency, and its work as not done,
    while the time spent on it still counts.  Throughput is the completed
    inputs' work over the sum of all inputs' times; percentiles run across
    inputs."""
    per_input = {
        k: median([p.at_reference_speed(t, j) if at_reference_speed else t for t, j in attempts])
        for k, attempts in p.times.items()
    }
    done_cells = sum(p.cells[k] for k in per_input if k not in p.failed)
    lat_ms = [math.inf if k in p.failed else 1000.0 * t for k, t in per_input.items()]
    return {
        "peak_rss_mb": metric(rss_mb, "MB", 1),
        "nominal_mcells_per_s": metric(done_cells / sum(per_input.values()) / 1e6,
                                       "Mcells/s", p.attempts),
        "op_p50_ms": metric(percentile(lat_ms, 50), "ms", len(lat_ms)),
        "op_p90_ms": metric(percentile(lat_ms, 90), "ms", len(lat_ms)),
    }


def resolved_plan(ops, corpus) -> dict:
    """The auto-tuned plan for the first op of each kind and gap model."""
    from repro.kernels import registry
    from repro.tune.decision import autotune_config, batch_lanes
    from repro.tune.profile import load_profile
    from workloads import TUNED

    shapes = {}
    for op in ops:
        label = f"{op.kind}/{'linear' if op.scheme.is_linear else 'affine'}"
        n = len(op.b) if op.b is not None else sum(len(r.text) for r in corpus) // len(corpus)
        shapes.setdefault(label, (len(op.a), n, not op.scheme.is_linear))
    profile = load_profile("auto")
    plans = {}
    for label, (m, n, affine) in shapes.items():
        cfg, notes = autotune_config(TUNED, m, n, affine=affine)
        tier = registry.resolve_tier(cfg.kernel)
        plans[label] = {
            "m": m, "n": n, "backend": cfg.backend or "serial", "workers": cfg.max_workers or 1,
            "kernel": tier, "band": cfg.band,
            "lanes": batch_lanes(profile, tier, "affine" if affine else "linear"),
            "notes": list(notes),
        }
    return plans


def calibration_summary(profile) -> dict:
    """What the calibration measured, and the decisions that vary with it."""
    from repro.kernels import registry

    tiers = registry.available_tiers()
    return {
        "tiers": list(tiers),
        "best_kernel": profile.best_kernel(tiers),
        "best_backend": list(profile.best_backend()),
        "best_base_cells": profile.best_base_cells(),
        "serial_mcells_per_s": profile.serial_cells_per_s() / 1e6,
        "kernel_linear_mcells_per_s": {
            t: v.get("linear_cells_per_s", 0.0) / 1e6 for t, v in profile.kernels.items()
        },
    }


def outcome(attempted: int, errors: List[str], verifier) -> dict:
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:MAX_QUOTED],
        "checked": verifier.checked,
        "correct": not verifier.errors,
        "verify_errors": verifier.errors[:MAX_QUOTED],
    }


# ----------------------------------------------------------------------
# per-layer attribution (--trace 1)
# ----------------------------------------------------------------------
def probes(pairs) -> dict:
    """Replay the workload's pairs through single layers' public functions."""
    import repro
    from repro.tune.decision import autotune_config
    from workloads import TUNED

    def timed(fn):
        t0 = time.perf_counter()
        n = cells = 0
        for a, b, scheme in pairs:
            fn(a, b, scheme)
            n += 1
            cells += len(a) * len(b)
            if time.perf_counter() - t0 >= PROBE_BUDGET_S:
                break
        return time.perf_counter() - t0, n, cells

    enc_s, enc_n, _ = timed(lambda a, b, s: (s.encode(a), s.encode(b)))
    tune_s, tune_n, _ = timed(
        lambda a, b, s: autotune_config(TUNED, len(a), len(b), affine=not s.is_linear))
    sweep_s, sweep_n, sweep_cells = timed(repro.align_score)
    return {
        "encode_ms": metric(1000.0 * enc_s / enc_n, "ms", enc_n),
        "autotune_ms": metric(1000.0 * tune_s / tune_n, "ms", tune_n),
        "sweep_mcells_per_s": metric(sweep_cells / sweep_s / 1e6, "Mcells/s", sweep_n),
    }


def layer_report(args, tracer, by_name, counters, basis_s: float, cells: int,
                 overhead: float, setup, pairs) -> dict:
    """Per-layer table + metrics; writes the chrome trace.  ``by_name`` is
    the span summary (``layers.spans_by_name``), layer shares are of
    ``basis_s``, and ``overhead`` is traced ÷ untraced wall over the same
    work."""
    from layers import layer_rows, per_layer_metrics

    table = layer_rows(by_name, basis_s)
    os.makedirs(args.trace_dir, exist_ok=True)
    trace_file = os.path.join(args.trace_dir, f"{args.workload}-seed{args.seed}.json")
    with open(trace_file, "w") as fh:
        json.dump(tracer.chrome_trace(), fh)
    return {
        "per_layer": per_layer_metrics(by_name, table, basis_s, counters, cells,
                                       setup, probes(pairs), overhead),
        "layer_table": table,
        "trace_file": os.path.relpath(trace_file),
    }


if __name__ == "__main__":
    sys.exit(main())
