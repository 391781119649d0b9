#!/usr/bin/env python
"""PR6 corpus-search benchmark: indexed top-K vs brute-force Smith–Waterman.

Builds a homologs + decoys + background corpus (≥200 sequences even in
``--smoke``), indexes it, and runs every query two ways:

* **brute force** — full Smith–Waterman against every corpus sequence,
  the reference answer and the reference cost;
* **indexed search** — :func:`repro.search.search` over the persisted
  :class:`~repro.search.CorpusIndex`, per backend.

**Exactness is the point**: every search run must return the brute-force
top-K bit-for-bit — (score, candidate, ranges, gapped strings) — and any
mismatch makes the script exit non-zero (the CI ``bench-smoke`` job runs
``--smoke`` for exactly this check).  The run also enforces the PR's
pruning bar: the bound tier must reject ≥50% of candidates before any DP
on the primary corpus.

Results land in ``BENCH_pr6_search.json`` at the repo root: prune rate,
candidates/s, end-to-end latency and speedup vs brute force per
(query × backend) point.

Usage::

    python benchmarks/bench_search.py            # default sweep
    python benchmarks/bench_search.py --smoke    # CI-sized, exactness-focused
    python benchmarks/bench_search.py --full     # adds a larger corpus point
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

from repro import AlignConfig, smith_waterman  # noqa: E402
from repro.align import Sequence  # noqa: E402
from repro.scoring import ScoringScheme, dna_simple, linear_gap  # noqa: E402
from repro.search import CorpusIndex, search  # noqa: E402
from repro.workloads import evolve  # noqa: E402

SEED = 42
PRUNE_BAR = 0.5


def _random_dna(rng, length):
    return "".join(rng.choice(list("ACGT"), length))


def build_corpus(rng, base_len, n_homologs, n_decoys, n_randoms, n_queries):
    """Queries plus a shuffled homolog/decoy/background corpus."""
    bases = [Sequence(_random_dna(rng, base_len), name=f"base{i}")
             for i in range(n_queries)]
    queries = [
        evolve(b, sub_rate=0.05, indel_rate=0.01, rng=rng, alphabet="ACGT",
               name=f"query{i}")
        for i, b in enumerate(bases)
    ]
    records = []
    for i in range(n_homologs):
        records.append(
            evolve(bases[i % n_queries], sub_rate=0.08, indel_rate=0.02,
                   rng=rng, alphabet="ACGT", name=f"hom{i}")
        )
    for i in range(n_decoys):
        length = int(rng.integers(10, 31))
        records.append(Sequence(_random_dna(rng, length), name=f"decoy{i}"))
    for i in range(n_randoms):
        records.append(Sequence(_random_dna(rng, base_len), name=f"bg{i}"))
    order = rng.permutation(len(records))
    return queries, [records[i] for i in order]


def brute_force(query, records, scheme, top_k):
    rows = []
    for idx, rec in enumerate(records):
        loc = smith_waterman(query, rec, scheme)
        if loc.score >= 1:
            rows.append((idx, loc))
    rows.sort(key=lambda r: (-r[1].score, r[0]))
    return rows[:top_k]


def check_exact(hits, expected):
    """Bit-identity of the hit set; returns a list of mismatch strings."""
    problems = []
    got = [(h.corpus_index, h.score) for h in hits]
    want = [(idx, loc.score) for idx, loc in expected]
    if got != want:
        return [f"hit set differs: search {got} vs brute force {want}"]
    for hit, (idx, loc) in zip(hits, expected):
        if (hit.local.a_start, hit.local.a_end, hit.local.b_start,
                hit.local.b_end) != (loc.a_start, loc.a_end, loc.b_start,
                                     loc.b_end):
            problems.append(f"candidate {idx}: ranges differ")
        elif (hit.local.alignment.gapped_a != loc.alignment.gapped_a
                or hit.local.alignment.gapped_b != loc.alignment.gapped_b):
            problems.append(f"candidate {idx}: gapped strings differ")
    return problems


def _median_time(fn, repeats):
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def bench_corpus(label, queries, records, scheme, top_k, backends, repeats,
                 index_path):
    """One corpus point: index build/load + per-(query × backend) searches."""
    rows = []
    failures = []

    t0 = time.perf_counter()
    index = CorpusIndex.build(records, "ACGT")
    build_s = time.perf_counter() - t0
    index.save(index_path)
    load_s, index = _median_time(lambda: CorpusIndex.load(index_path), repeats)
    print(f"# [{label}] {len(records)} sequences, "
          f"{int(index.lengths.sum())} residues: "
          f"build {build_s:.3f}s  load {load_s:.3f}s", flush=True)

    for qi, query in enumerate(queries):
        ref_s, expected = _median_time(
            lambda: brute_force(query, records, scheme, top_k), repeats
        )
        for backend in backends:
            cfg = AlignConfig(backend=None if backend == "serial" else backend,
                              max_workers=2)
            med_s, res = _median_time(
                lambda: search(query, index, scheme, top_k=top_k, config=cfg),
                repeats,
            )
            problems = check_exact(res.hits, expected)
            failures += [f"[{label}] query{qi} {backend}: {p}" for p in problems]
            st = res.stats
            rows.append({
                "corpus": label,
                "query": query.name,
                "backend": backend,
                "candidates": st.candidates,
                "pruned": st.pruned,
                "scored": st.scored,
                "prune_rate": round(st.prune_rate, 4),
                "search_s": round(med_s, 6),
                "brute_force_s": round(ref_s, 6),
                "speedup_vs_brute": round(ref_s / med_s, 3) if med_s else None,
                "candidates_per_s": int(st.candidates / med_s) if med_s else None,
                "top_k": top_k,
                "best_score": res.hits[0].score if res.hits else 0,
                "exact": not problems,
            })
            print(
                f"  [{label}] query{qi} {backend:<9} "
                f"prune {st.prune_rate:5.0%}  search {med_s:7.4f}s  "
                f"brute {ref_s:7.4f}s  {ref_s / med_s:5.2f}x  "
                f"exact={'ok' if not problems else 'FAIL'}",
                flush=True,
            )
    return rows, failures, {"build_s": round(build_s, 6),
                            "load_s": round(load_s, 6),
                            "sequences": len(records),
                            "residues": int(index.lengths.sum())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: exactness + prune bar are the point")
    parser.add_argument("--full", action="store_true",
                        help="add a 1000-sequence corpus point (slow)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per point (default 3; 1 for --smoke)")
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument("--out",
                        default=os.path.join(_REPO_ROOT, "BENCH_pr6_search.json"))
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.smoke else 3)
    backends = ["serial"] if args.smoke else ["serial", "threads"]
    rng = np.random.default_rng(SEED)
    scheme = ScoringScheme(dna_simple(), linear_gap(-6))

    # Primary corpus: ≥200 sequences, homolog-rich head, decoy-heavy tail —
    # the acceptance-criterion shape (mirrors
    # tests/test_search_engine.py::test_acceptance_200_corpus_exact_and_pruned).
    points = [("corpus208", 120, 12, 160, 40, 2 if args.smoke else 3)]
    if args.full:
        points.append(("corpus1000", 200, 20, 800, 180, 3))

    all_rows = []
    failures = []
    corpora = {}
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for label, base_len, n_hom, n_dec, n_bg, n_q in points:
            queries, records = build_corpus(rng, base_len, n_hom, n_dec,
                                            n_bg, n_q)
            assert len(records) >= 200
            rows, fails, meta = bench_corpus(
                label, queries, records, scheme, args.top_k, backends,
                repeats, os.path.join(tmp, f"{label}.flsa"),
            )
            all_rows += rows
            failures += fails
            corpora[label] = meta

    primary = [r for r in all_rows if r["corpus"] == "corpus208"]
    min_prune = min(r["prune_rate"] for r in primary)
    if min_prune < PRUNE_BAR:
        failures.append(
            f"prune rate {min_prune:.0%} below the {PRUNE_BAR:.0%} bar "
            f"on the primary corpus"
        )

    payload = {
        "meta": {
            "bench": "pr6_search",
            "smoke": args.smoke,
            "repeats": repeats,
            "seed": SEED,
            "top_k": args.top_k,
            "prune_bar": PRUNE_BAR,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "corpora": corpora,
        "sweep": all_rows,
        "exact": all(r["exact"] for r in all_rows),
        "min_prune_rate_primary": min_prune,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"[wrote {args.out}]", flush=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr, flush=True)
        return 1
    print(f"exactness: every backend matched brute force bit-for-bit; "
          f"min prune rate {min_prune:.0%}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
