"""Command-line interface.

``fastlsa`` (or ``python -m repro``) exposes the library's main entry
points:

* ``fastlsa align A.fasta B.fasta [--method ...] [--mode ...]`` — align
  the first record of each file (global/local/semiglobal/overlap modes,
  ``--score-only``, custom ``--matrix-file``);
* ``fastlsa msa FAMILY.fasta [--method star|progressive]`` — multiple
  alignment of all records;
* ``fastlsa demo`` — the paper's worked example (Table 1 / Figure 1);
* ``fastlsa plan M N MEMORY`` — show the adaptive plan (``MEMORY`` is DP
  cells, or a byte size like ``64M`` / ``2G``);
* ``fastlsa matrix NAME`` — print a built-in matrix in NCBI format;
* ``fastlsa speedup LENGTH`` — simulated parallel speedup table;
* ``fastlsa trace A.fasta B.fasta`` — align under instrumentation and
  write a Chrome ``trace_event`` file plus a per-phase breakdown;
* ``fastlsa serve`` — NDJSON alignment service over stdin/stdout or TCP
  (job queue, micro-batching, result cache, global memory governor,
  deadlines/retry/degradation — see ``docs/SERVICE.md`` and
  ``docs/ROBUSTNESS.md``);
* ``fastlsa index CORPUS.fasta -o corpus.flsa`` — ingest a FASTA corpus
  into a persisted, fingerprinted search index (see ``docs/SEARCH.md``);
* ``fastlsa search corpus.flsa QUERY.fasta --top-k 5`` — exact top-K
  local-alignment search with composition-bound pruning;
* ``fastlsa chaos [PLAN]`` — run a seeded fault-injection scenario
  against the full service stack (or, with ``--scenario search``, the
  corpus-search stack) and verify every completed job still returns the
  optimal answer (exit 1 on any mismatch or hang).

The global ``--profile`` flag runs any command under instrumentation and
prints a per-phase breakdown table to stderr afterwards (see
``docs/OBSERVABILITY.md``).  ``--quiet`` suppresses the informational
``#`` header lines and the serve banner; every error exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .align import format_alignment, format_dpm, read_fasta
from .align.sequence import Sequence
from .analysis.tables import format_rows
from .baselines import needleman_wunsch
from .core.config import AlignConfig
from .core.planner import parse_memory, plan_alignment
from .errors import ConfigError, ReproError
from .parallel import simulated_parallel_fastlsa
from .scoring import (
    ScoringScheme,
    affine_gap,
    blosum62,
    dna_simple,
    linear_gap,
    paper_scheme,
)

__all__ = ["main", "build_parser"]


def _scheme_from_args(args) -> ScoringScheme:
    if getattr(args, "matrix_file", None):
        from .scoring import read_matrix

        matrix = read_matrix(args.matrix_file)
    else:
        matrix = {"blosum62": blosum62, "dna": dna_simple}[args.matrix]()
    if args.gap_extend is not None:
        gap = affine_gap(args.gap_open, args.gap_extend)
    else:
        gap = linear_gap(args.gap_open)
    return ScoringScheme(matrix, gap)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="fastlsa",
        description="FastLSA sequence alignment (paper reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress informational '#' lines and banners")
    parser.add_argument("--profile", action="store_true",
                        help="run the command under instrumentation and print "
                             "a per-phase breakdown table to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align the first records of two FASTA files")
    p_align.add_argument("fasta_a")
    p_align.add_argument("fasta_b")
    p_align.add_argument("--method", default="fastlsa",
                         choices=["fastlsa", "needleman-wunsch", "hirschberg"])
    p_align.add_argument("--mode", default="global",
                         choices=["global", "local", "semiglobal", "overlap"],
                         help="alignment mode (non-global modes are FastLSA-backed)")
    p_align.add_argument("--matrix", default="dna", choices=["dna", "blosum62"])
    p_align.add_argument("--matrix-file", default=None,
                         help="NCBI-format matrix file (overrides --matrix)")
    p_align.add_argument("--gap-open", type=int, default=-10)
    p_align.add_argument("--gap-extend", type=int, default=None,
                         help="affine extension penalty (omit for linear gaps)")
    p_align.add_argument("--k", type=int, default=8, help="FastLSA k parameter")
    p_align.add_argument("--base-cells", type=int, default=256 * 1024)
    p_align.add_argument("--backend", default=None,
                         choices=["serial", "threads"],
                         help="wavefront backend for the FillCache phase "
                              "(default: serial)")
    p_align.add_argument("--band", default=None, metavar="W",
                         help="exact banded fast path: an initial half-width "
                              "or 'auto'; certificate-checked, so results "
                              "stay bit-identical to full DP")
    p_align.add_argument("--kernel", default=None,
                         choices=["auto", "numpy", "compiled"],
                         help="kernel tier (default auto: compiled when built)")
    p_align.add_argument("--tune", default=None, metavar="MODE",
                         help="hardware autotuning: 'auto' (use the cached "
                              "calibration profile), 'off', or a profile "
                              "path (default: off)")
    p_align.add_argument("--workers", type=int, default=None, metavar="P",
                         help="wavefront workers for --backend threads "
                              "(default 2)")
    p_align.add_argument("--width", type=int, default=60)
    p_align.add_argument("--score-only", action="store_true",
                         help="print only the optimal score (single sweep)")
    p_align.add_argument("--stats", action="store_true", help="print execution statistics")

    p_matrix = sub.add_parser("matrix", help="print a built-in matrix in NCBI format")
    p_matrix.add_argument("name", choices=["dna", "blosum62", "pam250", "table1"])

    p_kernels = sub.add_parser(
        "kernels", help="list kernel providers, tiers and the parity report"
    )
    p_kernels.add_argument("--json", action="store_true",
                           help="machine-readable output")

    p_cal = sub.add_parser(
        "calibrate",
        help="measure this host's kernel/backend throughput curves and "
             "cache them for --tune auto",
    )
    p_cal.add_argument("--quick", action="store_true",
                       help="smaller probes (seconds, not minutes); good "
                            "enough for backend selection")
    p_cal.add_argument("--force", action="store_true",
                       help="re-probe even if a valid cached profile exists")
    p_cal.add_argument("--out", default=None, metavar="PATH",
                       help="write the profile here instead of the cache "
                            "(~/.cache/fastlsa/ or $FASTLSA_CACHE_DIR)")
    p_cal.add_argument("--json", action="store_true",
                       help="print the full profile as JSON")

    p_msa = sub.add_parser("msa", help="multiple alignment of all records in a FASTA file")
    p_msa.add_argument("fasta")
    p_msa.add_argument("--method", default="star", choices=["star", "progressive"])
    p_msa.add_argument("--matrix", default="dna", choices=["dna", "blosum62"])
    p_msa.add_argument("--gap-open", type=int, default=-6)
    p_msa.add_argument("--gap-extend", type=int, default=None)
    p_msa.add_argument("--width", type=int, default=72)

    p_demo = sub.add_parser("demo", help="the paper's worked example")

    p_plan = sub.add_parser("plan", help="adaptive parameter plan for a memory budget")
    p_plan.add_argument("m", type=int)
    p_plan.add_argument("n", type=int)
    p_plan.add_argument("memory_cells", metavar="memory",
                        help="budget: DP cells (bare integer) or a byte size "
                             "with K/M/G suffix, e.g. 64M or 2G")
    p_plan.add_argument("--affine", action="store_true")

    p_speed = sub.add_parser("speedup", help="simulated parallel speedup table")
    p_speed.add_argument("length", type=int)
    p_speed.add_argument("--k", type=int, default=6)
    p_speed.add_argument("--procs", type=int, nargs="+", default=[1, 2, 4, 8])
    p_speed.add_argument("--overhead", type=float, default=0.0)

    p_trace = sub.add_parser(
        "trace", help="align under instrumentation; write a Chrome trace_event "
                      "file and print the per-phase breakdown"
    )
    p_trace.add_argument("fasta_a")
    p_trace.add_argument("fasta_b")
    p_trace.add_argument("--matrix", default="dna", choices=["dna", "blosum62"])
    p_trace.add_argument("--matrix-file", default=None,
                         help="NCBI-format matrix file (overrides --matrix)")
    p_trace.add_argument("--gap-open", type=int, default=-10)
    p_trace.add_argument("--gap-extend", type=int, default=None)
    p_trace.add_argument("--k", type=int, default=8, help="FastLSA k parameter")
    p_trace.add_argument("--base-cells", type=int, default=256 * 1024)
    p_trace.add_argument("--parallel", type=int, default=None, metavar="P",
                         help="trace the threaded wavefront driver with P workers")
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace_event output path (chrome://tracing "
                              "or ui.perfetto.dev)")
    p_trace.add_argument("--rows", default=None, metavar="PATH",
                         help="also write flat recorder-compatible span rows (JSON)")

    p_serve = sub.add_parser(
        "serve", help="NDJSON alignment service (stdin/stdout, or TCP with --tcp)"
    )
    p_serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                         help="listen on TCP instead of stdin/stdout")
    p_serve.add_argument("--backend", default=None,
                         choices=["serial", "threads"],
                         help="wavefront backend pinned onto jobs without one")
    p_serve.add_argument("--tune", default="auto", metavar="MODE",
                         help="hardware autotuning for unpinned jobs: "
                              "'auto' (cached calibration profile, the "
                              "default), 'off', or a profile path")
    p_serve.add_argument("--backend-workers", type=int, default=2, metavar="P",
                         help="wavefront workers per job for --backend (default 2)")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="concurrent job groups / thread-pool size")
    p_serve.add_argument("--memory-cells", type=int, default=4_000_000,
                         help="process-wide DP-cell budget split across workers")
    p_serve.add_argument("--memory", default=None, metavar="SIZE",
                         help="budget as a byte size (64M, 2G) or bare cells; "
                              "overrides --memory-cells")
    p_serve.add_argument("--cache-size", type=int, default=1024,
                         help="LRU result-cache capacity (0 disables)")
    p_serve.add_argument("--queue-depth", type=int, default=256,
                         help="pending jobs before submissions are rejected")
    p_serve.add_argument("--max-batch", type=int, default=16,
                         help="max requests coalesced into one batch (1 disables)")
    p_serve.add_argument("--batch-window", type=float, default=0.0,
                         help="seconds to linger for batchable requests")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="default per-job deadline in seconds")
    p_serve.add_argument("--deadline", type=float, default=None,
                         help="alias of --timeout; deadlines are enforced "
                              "end to end, including mid-run at tile "
                              "boundaries (cooperative cancellation)")
    p_serve.add_argument("--max-retries", type=int, default=2,
                         help="retries with exponential backoff for "
                              "transient worker/cache failures")
    p_serve.add_argument("--no-degrade", action="store_true",
                         help="fail jobs on memory pressure / repeated "
                              "failure instead of re-planning them with a "
                              "degraded configuration")
    p_serve.add_argument("--matrix", default="dna",
                         choices=["dna", "blosum62", "pam250", "table1"],
                         help="default matrix for requests that omit one")
    p_serve.add_argument("--gap-open", type=int, default=-6)
    p_serve.add_argument("--gap-extend", type=int, default=None)
    p_serve.add_argument("--shards", type=int, default=0, metavar="N",
                         help="fork N scheduler-shard processes behind a "
                              "consistent-hash router (0 = single in-process "
                              "scheduler); the memory budget is split across "
                              "shards and the result cache partitions "
                              "instead of duplicating")
    p_serve.add_argument("--tenant-inflight", type=int, default=64,
                         help="[--shards] per-tenant admission quota "
                              "(concurrent requests; typed QueueFullError "
                              "beyond it)")
    p_serve.add_argument("--router-concurrent", type=int, default=None,
                         metavar="N",
                         help="[--shards] router-wide concurrency cap; when "
                              "saturated, tenants drain under weighted fair "
                              "queueing")

    p_index = sub.add_parser(
        "index", help="ingest a FASTA corpus into a persisted search index"
    )
    p_index.add_argument("fasta", help="corpus FASTA file")
    p_index.add_argument("-o", "--out", required=True,
                         help="index output path (conventionally .flsa)")
    p_index.add_argument("--matrix", default="dna",
                         choices=["dna", "blosum62"],
                         help="take the alphabet from this matrix "
                              "(searches must use a matching matrix)")
    p_index.add_argument("--alphabet", default=None,
                         help="explicit alphabet (overrides --matrix)")

    p_search = sub.add_parser(
        "search", help="exact top-K local-alignment search of an index"
    )
    p_search.add_argument("index", help="index file built by 'fastlsa index'")
    p_search.add_argument("query", help="query FASTA file (first record)")
    p_search.add_argument("--top-k", type=int, default=5)
    p_search.add_argument("--min-score", type=int, default=1)
    p_search.add_argument("--matrix", default="dna", choices=["dna", "blosum62"])
    p_search.add_argument("--matrix-file", default=None,
                          help="NCBI-format matrix file (overrides --matrix)")
    p_search.add_argument("--gap-open", type=int, default=-6)
    p_search.add_argument("--gap-extend", type=int, default=None)
    p_search.add_argument("--backend", default=None,
                          choices=["serial", "threads"],
                          help="candidate-scoring backend (default: serial)")
    p_search.add_argument("--workers", type=int, default=None, metavar="P")
    p_search.add_argument("--tune", default=None, metavar="MODE",
                          help="hardware autotuning: 'auto', 'off', or a "
                               "profile path (default: off)")
    p_search.add_argument("--deadline", type=float, default=None,
                          help="whole-search deadline in seconds")
    p_search.add_argument("--alignments", action="store_true",
                          help="print the top hits' alignments too")
    p_search.add_argument("--width", type=int, default=60)

    from .faults import NAMED_PLANS

    p_chaos = sub.add_parser(
        "chaos", help="run a seeded fault-injection scenario against the "
                      "service stack and verify correctness under it"
    )
    p_chaos.add_argument("plan", nargs="?", default="everything",
                         choices=sorted(NAMED_PLANS),
                         help="named fault plan (default: everything)")
    p_chaos.add_argument("--seed", type=int, default=11,
                         help="fault-plan and jitter seed (deterministic)")
    p_chaos.add_argument("--jobs", type=int, default=12,
                         help="number of alignment jobs to push through")
    p_chaos.add_argument("--length", type=int, default=120,
                         help="sequence length of each synthetic pair")
    p_chaos.add_argument("--divergence", type=float, default=0.2,
                         help="mutation rate between each pair")
    p_chaos.add_argument("--memory-cells", type=int, default=200_000,
                         help="service memory budget in DP cells")
    p_chaos.add_argument("--workers", type=int, default=2)
    p_chaos.add_argument("--deadline", type=float, default=30.0,
                         help="per-job deadline in seconds")
    p_chaos.add_argument("--max-retries", type=int, default=3)
    p_chaos.add_argument("--list", dest="list_plans", action="store_true",
                         help="list the named fault plans and exit")
    p_chaos.add_argument("--scenario", default="service",
                         choices=["service", "search", "shards"],
                         help="workload to chaos-test: the alignment "
                              "service (default), the corpus-search "
                              "stack (index load + candidate scoring), or "
                              "the sharded router (shard-kill, reroute, "
                              "bit-identity vs the serial reference)")
    p_chaos.add_argument("--corpus", type=int, default=40,
                         help="[search scenario] corpus size in sequences")
    p_chaos.add_argument("--top-k", type=int, default=4,
                         help="[search scenario] hits per query")
    p_chaos.add_argument("--shards", type=int, default=2,
                         help="[shards scenario] shard processes to fork")
    return parser


def _info_printer(args):
    """A print-like callable that is a no-op under ``--quiet``."""
    if getattr(args, "quiet", False):
        return lambda *a, **k: None
    return print


def _cmd_align(args) -> int:
    from . import align as align_fn
    from .core import align_score, fastlsa_local, overlap_align, semiglobal_align

    scheme = _scheme_from_args(args)
    rec_a = read_fasta(args.fasta_a)[0]
    rec_b = read_fasta(args.fasta_b)[0]

    if args.score_only:
        print(align_score(rec_a, rec_b, scheme))
        return 0

    say = _info_printer(args)
    workers = args.workers if args.workers is not None else (
        2 if args.backend == "threads" else None
    )
    band = args.band
    if band is not None and band != "auto":
        try:
            band = int(band)
        except ValueError:
            raise ConfigError(
                f"--band must be an integer or 'auto', got {band!r}"
            ) from None
    config = AlignConfig(
        k=args.k, base_cells=args.base_cells,
        max_workers=workers, backend=args.backend,
        band=band, kernel=args.kernel, tune=args.tune,
    )
    if args.mode == "local":
        loc = fastlsa_local(rec_a, rec_b, scheme, config=config)
        say(
            f"# local score={loc.score}  a[{loc.a_start}:{loc.a_end}] x "
            f"b[{loc.b_start}:{loc.b_end}]"
        )
        result = loc.alignment
    elif args.mode in ("semiglobal", "overlap"):
        fn = semiglobal_align if args.mode == "semiglobal" else overlap_align
        ef = fn(rec_a, rec_b, scheme, config=config)
        say(
            f"# {args.mode} score={ef.score}  a[{ef.a_start}:{ef.a_end}] x "
            f"b[{ef.b_start}:{ef.b_end}]"
        )
        result = ef.alignment
    else:
        kwargs = {"config": config} if args.method == "fastlsa" else {}
        result = align_fn(rec_a, rec_b, scheme, method=args.method, **kwargs)
    print(format_alignment(result, width=args.width, scheme=scheme,
                           show_header=not args.quiet))
    if args.stats:
        s = result.stats
        say(
            f"# cells_computed={s.cells_computed} peak_cells={s.peak_cells_resident} "
            f"subproblems={s.subproblems} depth={s.recursion_depth} "
            f"wall_time={s.wall_time:.3f}s"
            + (f" kernel={s.kernel}" if s.kernel else "")
            + (f" band_width={s.band_width}" if s.band_width else "")
        )
    return 0


def _cmd_msa(args) -> int:
    from .msa import center_star_msa, progressive_msa

    scheme = _scheme_from_args(args)
    records = read_fasta(args.fasta)
    fn = center_star_msa if args.method == "star" else progressive_msa
    msa = fn(records, scheme)
    say = _info_printer(args)
    say(f"# {args.method} MSA: {len(msa)} sequences x {msa.width} columns, "
        f"{msa.conserved_columns()} conserved, "
        f"sum-of-pairs {msa.sum_of_pairs_score(scheme)}")
    print(msa.format(width=args.width))
    return 0


def _cmd_matrix(args) -> int:
    from .scoring import format_matrix, pam250, table1_matrix

    matrix = {
        "dna": dna_simple,
        "blosum62": blosum62,
        "pam250": pam250,
        "table1": table1_matrix,
    }[args.name]()
    print(format_matrix(matrix), end="")
    return 0


def _cmd_demo(_args) -> int:
    scheme = paper_scheme()
    a = Sequence("TDVLKAD", name="TDVLKAD")
    b = Sequence("TLDKLLKD", name="TLDKLLKD")
    result = needleman_wunsch(a, b, scheme)
    mats = __import__("repro.baselines", fromlist=["nw_score_matrix"]).nw_score_matrix(
        a, b, scheme
    )
    print("Paper worked example (Table 1 scoring, gap -10).")
    print("Figure 1 dynamic programming matrix ('*' marks the optimal path):\n")
    print(format_dpm(mats.H, a.text, b.text, path=result.path))
    print()
    print(format_alignment(result, scheme=scheme))
    print(f"\nOptimal score: {result.score} (paper: 82)")
    return 0 if result.score == 82 else 1


def _cmd_plan(args) -> int:
    plan = plan_alignment(
        args.m, args.n, parse_memory(args.memory_cells), affine=args.affine
    )
    print(f"method:              {plan.method}")
    print(f"k:                   {plan.config.k}")
    print(f"base_cells:          {plan.config.base_cells}")
    print(f"predicted peak:      {plan.predicted_peak_cells} cells")
    print(f"predicted ops ratio: {plan.predicted_ops_ratio:.3f} x full-matrix")
    return 0


def _cmd_speedup(args) -> int:
    from .workloads import dna_pair

    a, b = dna_pair(args.length, seed=42)
    scheme = ScoringScheme(dna_simple(), linear_gap(-6))
    rows = []
    for p in args.procs:
        _, rep = simulated_parallel_fastlsa(
            a, b, scheme, P=p, k=args.k, overhead=args.overhead
        )
        rows.append(
            {
                "P": p,
                "speedup": round(rep.speedup, 2),
                "efficiency": round(rep.efficiency, 3),
                "par_time_cells": int(rep.par_time),
            }
        )
    print(format_rows(rows, title=f"Simulated Parallel FastLSA, {args.length}x{args.length}, k={args.k}"))
    return 0


def _cmd_trace(args) -> int:
    import json

    from .core import fastlsa
    from .obs import instrumented, phase_table

    scheme = _scheme_from_args(args)
    rec_a = read_fasta(args.fasta_a)[0]
    rec_b = read_fasta(args.fasta_b)[0]
    config = AlignConfig(k=args.k, base_cells=args.base_cells)
    with instrumented() as inst:
        if args.parallel:
            from .parallel import parallel_fastlsa

            result = parallel_fastlsa(
                rec_a, rec_b, scheme, P=args.parallel, config=config
            )
        else:
            result = fastlsa(rec_a, rec_b, scheme, config=config)
    with open(args.out, "w") as fh:
        json.dump(inst.tracer.chrome_trace(), fh)
    if args.rows:
        with open(args.rows, "w") as fh:
            json.dump(inst.tracer.to_rows(), fh, indent=0)
    say = _info_printer(args)
    say(
        f"# score={result.score}  spans={len(inst.tracer)}  "
        f"chrome trace -> {args.out}"
    )
    print(
        phase_table(
            inst,
            title=f"trace {rec_a.name} x {rec_b.name}",
            m=len(rec_a),
            n=len(rec_b),
        )
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import (
        AlignmentService,
        ProtocolHandler,
        ShardRouter,
        TenantQuota,
        serve_stdio,
        serve_tcp,
    )

    memory_cells = (
        parse_memory(args.memory) if args.memory is not None else args.memory_cells
    )
    deadline = args.deadline if args.deadline is not None else args.timeout
    if args.tune not in (None, "off"):
        # Pin the fastest calibrated kernel tier process-wide so every
        # worker (and every shard, which re-runs this resolution) uses it.
        from .kernels import registry as kernel_registry
        from .tune import load_profile

        tune_profile = load_profile(args.tune)
        if tune_profile is not None:
            best_tier = tune_profile.best_kernel(kernel_registry.available_tiers())
            if best_tier is not None:
                kernel_registry.set_preferred_tier(best_tier)
    service_kwargs = dict(
        memory_cells=memory_cells,
        max_workers=args.workers,
        cache_size=args.cache_size,
        max_queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        default_timeout=deadline,
        max_retries=args.max_retries,
        degrade=not args.no_degrade,
        default_backend=args.backend,
        backend_workers=args.backend_workers,
        tune=args.tune,
    )
    handler_kwargs = dict(
        default_matrix=args.matrix,
        default_gap_open=args.gap_open,
        default_gap_extend=args.gap_extend,
    )
    if args.shards and args.shards > 0:
        service = None
        handler = ShardRouter(
            shards=args.shards,
            service_kwargs=service_kwargs,
            handler_kwargs=handler_kwargs,
            default_quota=TenantQuota("default", args.tenant_inflight),
            max_concurrent=args.router_concurrent,
        )
        budget = (
            f"{memory_cells} cells / {args.workers} workers "
            f"across {args.shards} shards"
        )
    else:
        service = AlignmentService(**service_kwargs)
        handler = ProtocolHandler(service, **handler_kwargs)
        budget = f"{memory_cells} cells / {args.workers} workers"
    if args.tcp is None:
        if not args.quiet:
            print(f"# fastlsa serve: NDJSON on stdin/stdout, {budget}",
                  file=sys.stderr)
        asyncio.run(serve_stdio(service, handler=handler))
        return 0

    host, _, port_text = args.tcp.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(f"--tcp expects HOST:PORT, got {args.tcp!r}") from None

    async def run() -> None:
        ready = asyncio.Event()
        task = asyncio.ensure_future(
            serve_tcp(service, host or "127.0.0.1", port, handler=handler,
                      ready=ready)
        )
        await ready.wait()
        if not args.quiet:
            bound = serve_tcp.bound
            print(f"# fastlsa serve: NDJSON on {bound[0]}:{bound[1]}, {budget}",
                  file=sys.stderr)
        await task

    asyncio.run(run())
    return 0


def _cmd_index(args) -> int:
    from .search import CorpusIndex

    if args.alphabet is not None:
        alphabet = args.alphabet
    else:
        alphabet = {"dna": dna_simple, "blosum62": blosum62}[args.matrix]().alphabet
    index = CorpusIndex.from_fasta(args.fasta, alphabet)
    fingerprint = index.save(args.out)
    say = _info_printer(args)
    s = index.stats()
    say(f"# indexed {s['sequences']} sequences / {s['residues']} residues "
        f"over {s['alphabet']!r} -> {args.out}")
    say(f"# lengths {s['min_length']}..{s['max_length']}  "
        f"fingerprint {fingerprint[:16]}…")
    return 0


def _cmd_search(args) -> int:
    from .align import format_alignment
    from .search import CorpusIndex, search

    scheme = _scheme_from_args(args)
    index = CorpusIndex.load(args.index)
    query = read_fasta(args.query)[0]
    workers = args.workers if args.workers is not None else (
        2 if args.backend == "threads" else None
    )
    config = AlignConfig(max_workers=workers, backend=args.backend,
                         tune=args.tune)
    if args.tune not in (None, "off") and args.backend is None:
        from .tune import autotune_config, load_profile

        profile = load_profile(args.tune)
        if profile is not None:
            qn = max(1, len(query.text))
            config, _ = autotune_config(
                config, qn, qn, affine=not scheme.is_linear,
                profile=profile,
            )
    result = search(
        query, index, scheme, top_k=args.top_k, config=config,
        min_score=args.min_score, deadline=args.deadline,
    )
    say = _info_printer(args)
    st = result.stats
    say(f"# query {query.name!r} ({len(query.text)} aa/nt) vs "
        f"{st.candidates} candidates: {st.pruned} pruned "
        f"({st.prune_rate:.0%}), {st.scored} scored, {st.aligned} aligned "
        f"in {st.wall_time:.3f}s")
    rows = [
        {
            "rank": rank,
            "name": hit.name,
            "score": hit.score,
            "bound": hit.bound,
            "a_range": f"{hit.local.a_start}:{hit.local.a_end}",
            "b_range": f"{hit.local.b_start}:{hit.local.b_end}",
        }
        for rank, hit in enumerate(result.hits, start=1)
    ]
    if not rows:
        print(f"no hits with score >= {args.min_score}")
        return 0
    print(format_rows(rows, title=f"top {len(rows)} of {st.candidates}"))
    if args.alignments:
        for hit in result.hits:
            print()
            print(format_alignment(hit.local.alignment, width=args.width,
                                   scheme=scheme, show_header=not args.quiet))
    return 0


def _chaos_search(args, say) -> int:
    """Chaos scenario for the corpus-search stack.

    Ground truth is computed fault-free; then every query repeats the
    full index-load + search path under the armed plan.  Acceptable
    outcomes are a matching top-K or a *typed* failure
    (CorruptIndexError, CandidateFailedError, ...) — a wrong answer or a
    hang fails the run.
    """
    import os
    import random
    import tempfile

    import numpy as np

    from .faults import chaos, named_plan
    from .search import CorpusIndex, search
    from .workloads import evolve

    scheme = ScoringScheme(dna_simple(), linear_gap(-6))
    rng = random.Random(args.seed)
    queries = [
        Sequence("".join(rng.choice("ACGT") for _ in range(args.length)),
                 name=f"query{i}")
        for i in range(args.jobs)
    ]
    corpus = []
    for i in range(args.corpus):
        if i < args.corpus // 3:
            base = queries[i % len(queries)]
            descendant = evolve(
                base, sub_rate=args.divergence, indel_rate=0.02,
                rng=np.random.default_rng(args.seed * 100 + i),
                alphabet="ACGT", name=f"hom{i}",
            )
            corpus.append(descendant)
        else:
            n = rng.randrange(max(10, args.length // 6), args.length // 2 + 12)
            corpus.append(Sequence(
                "".join(rng.choice("ACGT") for _ in range(n)), name=f"bg{i}"))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.flsa")
        CorpusIndex.build(corpus, "ACGT").save(path)
        # Ground truth, fault-free: through the same load path.
        clean = CorpusIndex.load(path)
        expected = [
            [(h.corpus_index, h.score) for h in
             search(q, clean, scheme, top_k=args.top_k).hits]
            for q in queries
        ]

        plan = named_plan(args.plan, seed=args.seed)
        say(f"# chaos plan '{args.plan}' seed={args.seed}: "
            f"{len(plan.specs)} fault spec(s) armed, scenario=search")
        rows = []
        bad = 0
        with chaos(plan):
            for i, (q, want) in enumerate(zip(queries, expected)):
                row = {"query": i, "outcome": "", "topk_ok": "-", "retries": 0}
                try:
                    index = CorpusIndex.load(path)
                    result = search(
                        q, index, scheme, top_k=args.top_k,
                        retries=args.max_retries, deadline=args.deadline,
                    )
                except ReproError as exc:
                    # Typed failure: the fault surfaced, no wrong answer.
                    row["outcome"] = f"failed:{type(exc).__name__}"
                    rows.append(row)
                    continue
                got = [(h.corpus_index, h.score) for h in result.hits]
                ok = got == want
                bad += 0 if ok else 1
                row["outcome"] = "ok"
                row["topk_ok"] = "yes" if ok else "NO"
                row["retries"] = result.stats.retries
                rows.append(row)
    print(format_rows(
        rows,
        title=f"chaos '{args.plan}' seed={args.seed}, scenario=search, "
              f"{args.jobs} queries x {args.corpus} candidates",
    ))
    fired = ", ".join(
        f"{site}={info['fired']}/{info['hits']}"
        for site, info in plan.stats().items() if info["fired"]
    )
    say(f"# faults fired: {fired or 'none'}")
    if bad:
        print(f"error: {bad} search(es) returned a wrong top-K under chaos",
              file=sys.stderr)
        return 1
    say("# every completed search returned the exact top-K")
    return 0


def _chaos_shards(args, say) -> int:
    """Chaos scenario for the sharded router (the differential harness).

    Ground truth is the serial, fault-free service driven through the
    same protocol requests.  The sharded run then replays those requests
    through a :class:`~repro.service.ShardRouter` under the armed plan
    (shipped to shard 0, so e.g. ``shard-kill`` murders it mid-burst and
    the survivors take over).  Acceptable outcomes are **bit-identical**
    responses — same score *and* same gapped alignment strings — or a
    typed failure; a silently wrong answer fails the run.
    """
    import asyncio

    from .faults import chaos, named_plan
    from .service import AlignmentService, ProtocolHandler, ShardRouter
    from .workloads import dna_pair

    pairs = [
        dna_pair(args.length, divergence=args.divergence,
                 seed=args.seed * 1000 + i)
        for i in range(args.jobs)
    ]
    scheme = ScoringScheme(dna_simple(), linear_gap(-6))
    requests = [
        {"op": "align", "id": i, "a": a.text, "b": b.text, "gap_open": -6,
         "timeout": args.deadline, "tenant": f"tenant{i % 3}"}
        for i, (a, b) in enumerate(pairs)
    ]

    async def reference():
        handler = ProtocolHandler(AlignmentService(
            memory_cells=args.memory_cells, max_workers=args.workers,
        ))
        async with handler:
            return [await handler.handle(dict(r)) for r in requests]

    expected = asyncio.run(reference())
    for (a, b), resp in zip(pairs, expected):
        if not resp["ok"]:
            print(f"error: fault-free reference failed: {resp['error']}",
                  file=sys.stderr)
            return 2
        want = needleman_wunsch(a, b, scheme).score
        if resp["result"]["score"] != want:
            print("error: fault-free reference is not optimal",
                  file=sys.stderr)
            return 2

    plan = named_plan(args.plan, seed=args.seed)
    say(f"# chaos plan '{args.plan}' seed={args.seed}: "
        f"{len(plan.specs)} fault spec(s) armed, scenario=shards "
        f"({args.shards} shard processes, plan shipped to shard 0)")

    async def sharded():
        # Full budget per shard (split_memory=False) so each shard plans
        # jobs exactly like the serial reference — bit-identity requires
        # identical k/base_cells.
        router = ShardRouter(
            shards=args.shards,
            service_kwargs={"memory_cells": args.memory_cells,
                            "max_workers": args.workers},
            split_memory=False,
        )
        async with router:
            responses = await asyncio.gather(
                *(router.handle(dict(r)) for r in requests)
            )
            stats = (await router.handle({"op": "stats", "id": "s"}))["result"]
            return responses, stats

    with chaos(plan):
        responses, stats = asyncio.run(sharded())

    rows = []
    bad = 0
    for i, (resp, want) in enumerate(zip(responses, expected)):
        row = {"job": i, "outcome": "", "identical": "-"}
        if not resp["ok"]:
            row["outcome"] = f"failed:{resp['error']['type']}"
            rows.append(row)
            continue
        got_r, want_r = resp["result"], want["result"]
        identical = all(
            got_r.get(field) == want_r.get(field)
            for field in ("score", "gapped_a", "gapped_b", "a_range", "b_range")
        )
        bad += 0 if identical else 1
        row["outcome"] = "ok"
        row["identical"] = "yes" if identical else "NO"
        rows.append(row)
    print(format_rows(
        rows,
        title=f"chaos '{args.plan}' seed={args.seed}, scenario=shards, "
              f"{args.jobs} jobs over {args.shards} shards",
    ))
    router_stats = stats.get("router", {})
    say(f"# router: {router_stats.get('shards_live')}/"
        f"{router_stats.get('shards')} shards live, "
        f"{router_stats.get('shard_deaths')} death(s), "
        f"{router_stats.get('reroutes')} reroute(s); tenants: "
        f"{sorted(router_stats.get('tenants', {}))}")
    fired = ", ".join(
        f"{site}={info['fired']}/{info['hits']}"
        for site, info in plan.stats().items() if info["fired"]
    )
    say(f"# router-side faults fired: {fired or 'none'} "
        f"(shard-side faults fire in the shard process)")
    if bad:
        print(f"error: {bad} response(s) diverged from the serial reference",
              file=sys.stderr)
        return 1
    say("# every completed response is bit-identical to the serial reference")
    return 0


def _cmd_chaos(args) -> int:
    from concurrent.futures import TimeoutError as FutureTimeout

    from .faults import NAMED_PLANS, chaos, named_plan
    from .service import AlignmentClient
    from .workloads import dna_pair

    say = _info_printer(args)
    if args.list_plans:
        for name in sorted(NAMED_PLANS):
            specs = named_plan(name, seed=args.seed).specs
            sites = ", ".join(sorted({s.site for s in specs}))
            print(f"{name}: {len(specs)} fault spec(s) at {sites}")
        return 0

    if args.scenario == "search":
        return _chaos_search(args, say)
    if args.scenario == "shards":
        return _chaos_shards(args, say)

    scheme = ScoringScheme(dna_simple(), linear_gap(-6))
    pairs = [
        dna_pair(args.length, divergence=args.divergence,
                 seed=args.seed * 1000 + i)
        for i in range(args.jobs)
    ]
    # Ground truth computed fault-free, before chaos is switched on.
    expected = [needleman_wunsch(a, b, scheme).score for a, b in pairs]

    plan = named_plan(args.plan, seed=args.seed)
    say(f"# chaos plan '{args.plan}' seed={args.seed}: "
        f"{len(plan.specs)} fault spec(s) armed")
    rows = []
    bad = 0
    with chaos(plan):
        with AlignmentClient(
            memory_cells=args.memory_cells,
            max_workers=args.workers,
            default_timeout=args.deadline,
            max_retries=args.max_retries,
            retry_seed=args.seed,
        ) as client:
            futures = [
                client.submit(a, b, scheme, timeout=args.deadline)
                for a, b in pairs
            ]
            for i, (fut, want) in enumerate(zip(futures, expected)):
                row = {"job": i, "outcome": "", "score_ok": "-",
                       "retries": 0, "downgrades": 0}
                try:
                    result = fut.result(timeout=args.deadline + 30)
                except FutureTimeout:
                    bad += 1
                    row["outcome"] = "HUNG"
                    rows.append(row)
                    continue
                except ReproError as exc:
                    # A typed failure is an acceptable outcome: the fault
                    # surfaced, nothing hung, no wrong answer was served.
                    row["outcome"] = f"failed:{type(exc).__name__}"
                    rows.append(row)
                    continue
                ok = result.score == want
                bad += 0 if ok else 1
                row["outcome"] = (
                    "degraded" if result.downgrades
                    else "cached" if result.cached else "ok"
                )
                row["score_ok"] = "yes" if ok else f"NO ({result.score}!={want})"
                row["retries"] = result.retries
                row["downgrades"] = len(result.downgrades)
                rows.append(row)
    print(format_rows(
        rows, title=f"chaos '{args.plan}' seed={args.seed}, {args.jobs} jobs"
    ))
    fired = ", ".join(
        f"{site}={info['fired']}/{info['hits']}"
        for site, info in plan.stats().items() if info["fired"]
    )
    say(f"# faults fired: {fired or 'none'}")
    if bad:
        print(f"error: {bad} job(s) hung or returned a wrong score under chaos",
              file=sys.stderr)
        return 1
    say("# every completed job returned the optimal score")
    return 0


def _batch_kernel_report() -> dict:
    """Per-tier batch kernel status for ``fastlsa kernels``: availability,
    plus — when a calibration is cached — the measured lanes→cells/s
    curve and the lane count the decision layer would auto-select."""
    from .kernels import registry
    from .tune import decision
    from .tune.profile import load_cached

    profile = load_cached()
    report: dict = {"calibrated": profile is not None}
    tiers = {}
    for tier in registry.available_tiers():
        try:
            provider = registry.get_batch_kernel(tier)
        except Exception:  # pragma: no cover - defensive
            continue
        entry: dict = {"available": True, "compiled": provider.compiled}
        for kind in ("linear", "affine"):
            curve = profile.batch_curve(tier, kind) if profile else {}
            entry[kind] = {
                "calibrated_cells_per_s": {
                    str(b): v for b, v in sorted(curve.items())
                },
                "auto_lanes": decision.batch_lanes(profile, tier, kind),
            }
        tiers[tier] = entry
    report["tiers"] = tiers
    return report


def _cmd_kernels(args) -> int:
    import json as _json

    from .kernels import registry

    info = registry.describe()
    batch = _batch_kernel_report()
    if args.json:
        # Augment a *copy* for CLI output; registry.describe()'s own
        # shape is part of the library API and stays untouched.
        payload = dict(info)
        payload["batch"] = batch
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    say = print
    say(f"tiers available: {', '.join(info['available'])} "
        f"(default: {info['default']})")
    if not info["compiled"]["available"] and info["compiled"]["error"]:
        say(f"compiled tier unavailable: {info['compiled']['error']}")
    say("")
    say("providers:")
    for prov in info["providers"]:
        say(f"  {prov['name']:18s} scheme={prov['scheme_kind']:6s} "
            f"compiled={'yes' if prov['compiled'] else 'no'}")
    say("")
    say("batch kernels (lane-packed many-pair DP):")
    for tier, entry in batch["tiers"].items():
        for kind in ("linear", "affine"):
            curve = entry[kind]["calibrated_cells_per_s"]
            lanes = entry[kind]["auto_lanes"]
            if curve:
                pts = ", ".join(
                    f"B={b}: {v / 1e6:.0f}M" for b, v in curve.items()
                )
                detail = f"measured [{pts}] cells/s"
            else:
                detail = "not calibrated (run `fastlsa calibrate`)"
            pick = f"auto_lanes={lanes}" + ("" if lanes else " (per-pair wins)")
            say(f"  {tier:9s} {kind:6s} {pick:18s} {detail}")
    say("")
    parity = info["parity"]
    if parity["checks"]:
        status = "ok" if parity["ok"] else "FAILED"
        say(f"parity self-check ({status}):")
        for chk in parity["checks"]:
            say(f"  {'ok ' if chk['ok'] else 'BAD'} {chk['name']}")
    else:
        say("parity self-check: not run (compiled tier absent)")
    return 0 if (info["compiled"]["available"] or not info["parity"]["checks"]) else (
        0 if info["parity"]["ok"] else 1
    )


def _cmd_calibrate(args) -> int:
    import json as _json

    from .tune import calibrate, default_cache_path, load_cached

    say = _info_printer(args)
    out = args.out if args.out is not None else default_cache_path()
    if not args.force and args.out is None:
        cached = load_cached(out)
        if cached is not None:
            say(f"# valid calibration profile already cached at {out} "
                f"(use --force to re-probe)")
            if args.json:
                print(_json.dumps(cached.to_dict(), indent=2, sort_keys=True))
            return 0
    say(f"# probing {'quick ' if args.quick else ''}calibration curves "
        f"(kernel tiers x backends x workers, handoff, band, BM sweep)…")
    profile = calibrate(quick=args.quick, progress=say)
    profile.save(out)
    say(f"# wrote {out}")
    if args.json:
        print(_json.dumps(profile.to_dict(), indent=2, sort_keys=True))
        return 0
    serial = profile.serial_cells_per_s()
    say(f"# serial: {serial / 1e6:.1f} Mcells/s "
        f"(cpu_count={profile.cpu_count()})")
    for backend, workers, cps in profile.backend_points():
        verdict = "beats serial" if cps > serial else "loses to serial"
        say(f"#   {backend:9s} x{workers}: {cps / 1e6:.1f} Mcells/s "
            f"({verdict})")
    best = profile.best_backend()
    say(f"# auto pick: backend={best[0]}"
        + (f" workers={best[1]}" if best[0] != "serial" else ""))
    return 0


_COMMANDS = {
    "align": _cmd_align,
    "calibrate": _cmd_calibrate,
    "kernels": _cmd_kernels,
    "matrix": _cmd_matrix,
    "msa": _cmd_msa,
    "demo": _cmd_demo,
    "plan": _cmd_plan,
    "speedup": _cmd_speedup,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "index": _cmd_index,
    "search": _cmd_search,
    "chaos": _cmd_chaos,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Every failure path — library errors and OS-level problems like a
    missing FASTA file — prints ``error: ...`` to stderr and exits 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
    try:
        if args.profile:
            from .obs import instrumented, phase_table

            with instrumented() as inst:
                code = handler(args)
            print(phase_table(inst, title=f"profile: {args.command}"),
                  file=sys.stderr)
            return code
        return handler(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
