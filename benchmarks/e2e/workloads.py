"""Seeded inputs for the three workloads and the public call each
op makes.

Sizes, divergences and the order of ops are fixed grids that do not depend
on the seed; the seed only draws the residues.  Every seed therefore asks
for the same DP work, so runs with different seeds are comparable.  A run
makes a fixed number of passes over its ops, so each op repeats.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

import repro
from repro import AlignConfig, CorpusIndex, ScoringScheme

DNA = "ACGT"
PROTEIN = "ARNDCQEGHILKMFPSTWYV"
TOP_K = 10

#: Global DNA (+5/-4, gap -6): the scheme of the paper's DNA runs.
LINEAR = ScoringScheme(repro.dna_simple(), repro.linear_gap(-6))
AFFINE = ScoringScheme(repro.dna_simple(), repro.affine_gap(-10, -1))
PROTEIN_AFFINE = ScoringScheme(repro.blosum62(), repro.affine_gap(-11, -1))

#: What every op passes as ``config``: the calibrated auto-tuned plan.
TUNED = AlignConfig(tune="auto")

#: Seconds one pass over a workload's ops took on a 2-vCPU Xeon host with
#: the compiled tier, at the commit that added this benchmark.  A run of
#: ``run_seconds`` S makes ``round(S / PASS_S)`` passes: a fixed amount of
#: work that is the same on every commit and took about S seconds there.
PASS_S = {"genome_pair": 5.3, "short_pairs": 1.35, "corpus_search": 7.5}
#: The reference probe runs before every this many ops: one to four times
#: a second, at most a few per cent of the run.
PROBE_EVERY = {"genome_pair": 1, "short_pairs": 64, "corpus_search": 1}


def random_text(rng: np.random.Generator, length: int, alphabet: str = DNA) -> str:
    letters = np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)
    return letters[rng.integers(0, len(letters), int(length))].tobytes().decode("ascii")


def mutate(rng: np.random.Generator, text: str, sub_rate: float,
           indel_rate: float, alphabet: str = DNA) -> str:
    """A homolog of ``text``: point substitutions plus short indel runs."""
    letters = np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8).copy()
    hit = rng.random(len(codes)) < sub_rate
    codes[hit] = letters[rng.integers(0, len(letters), int(hit.sum()))]
    pieces, pos = [], 0
    for event in np.flatnonzero(rng.random(len(codes)) < indel_rate):
        if event < pos:
            continue  # inside the previous deletion
        pieces.append(codes[pos:event])
        run = int(rng.geometric(0.5))
        if rng.random() < 0.5:
            pos = event + run
        else:
            pieces.append(letters[rng.integers(0, len(letters), run)])
            pos = event
    pieces.append(codes[pos:])
    return np.concatenate(pieces).tobytes().decode("ascii")


@dataclass
class Op:
    """One call into the library.  ``key`` names the distinct input; a run
    cycles through its ops, so one key can be executed several times."""

    key: int
    kind: str  # global | local | semiglobal | search
    a: str
    b: Optional[str]
    scheme: ScoringScheme
    cells: int  # nominal DP cells the op asks for


def execute(op: Op, index: Optional[CorpusIndex]):
    """Run ``op`` through its public entry point; return the compact record
    the verifier checks (plain strings and ints, so no result object stays
    alive between ops)."""
    if op.kind == "global":
        aln = repro.align(op.a, op.b, op.scheme, config=TUNED)
        return aln.score, aln.gapped_a, aln.gapped_b
    if op.kind == "local":
        loc = repro.fastlsa_local(op.a, op.b, op.scheme, config=TUNED)
        return (loc.score, loc.a_start, loc.a_end, loc.b_start, loc.b_end,
                loc.alignment.gapped_a, loc.alignment.gapped_b)
    if op.kind == "semiglobal":
        ef = repro.semiglobal_align(op.a, op.b, op.scheme, config=TUNED)
        return (ef.score, ef.a_start, ef.a_end, ef.b_start, ef.b_end,
                ef.alignment.gapped_a, ef.alignment.gapped_b)
    if op.kind == "search":
        res = repro.search(op.a, index, op.scheme, top_k=TOP_K, config=TUNED)
        return tuple(
            (h.corpus_index, h.score, h.local.a_start, h.local.a_end,
             h.local.b_start, h.local.b_end,
             h.local.alignment.gapped_a, h.local.alignment.gapped_b)
            for h in res.hits
        )
    raise ValueError(f"unknown op kind {op.kind!r}")


def probe_pairs(op: Op, index: Optional[CorpusIndex]):
    """The ``(a, b, scheme)`` pairs whose DP an op performs, replayed by the
    per-layer probes.  A search is represented by its query against the
    first few corpus records."""
    if op.kind != "search":
        return [(op.a, op.b, op.scheme)]
    return [(op.a, index.sequence(i).text, op.scheme) for i in range(4)]


# ----------------------------------------------------------------------
# genome_pair: the paper's case — long global pairs, FillCache-bound
# ----------------------------------------------------------------------
#: Eight pairs, a quarter of them affine.  One pass takes about 5 s, so
#: each pair repeats a few times in a run.
GENOME_PAIRS = 8
#: Interleaves small and large pairs.
GENOME_ORDER = (0, 7, 2, 5, 4, 3, 6, 1)


def genome_pair(rng: np.random.Generator) -> List[Op]:
    lengths = np.linspace(8000, 24000, GENOME_PAIRS).round().astype(int)
    divergence = np.linspace(0.02, 0.30, GENOME_PAIRS)
    ops = []
    for key, i in enumerate(GENOME_ORDER):
        a = random_text(rng, lengths[i])
        b = mutate(rng, a, divergence[i], 0.01)
        scheme = AFFINE if i % 4 == 1 else LINEAR
        ops.append(Op(key, "global", a, b, scheme, len(a) * len(b)))
    return ops


# ----------------------------------------------------------------------
# short_pairs: below the Base Case threshold — per-call overhead-bound
# ----------------------------------------------------------------------
SHORT_PAIRS = 300
#: 40% global DNA, 20% global protein, 20% local, 20% semiglobal.
SHORT_PATTERN = ("global", "protein", "local", "global", "semiglobal")


def short_pairs(rng: np.random.Generator) -> List[Op]:
    ops = []
    for key in range(SHORT_PAIRS):
        length = 100 + (key * 131) % 501  # 100..600 bp
        div = 0.1 + 0.2 * ((key * 7) % 10) / 9
        slot = SHORT_PATTERN[key % len(SHORT_PATTERN)]
        if slot == "global":
            a = random_text(rng, length)
            op = Op(key, "global", a, mutate(rng, a, div, 0.03), LINEAR, 0)
        elif slot == "protein":
            a = random_text(rng, length, PROTEIN)
            b = mutate(rng, a, div, 0.03, PROTEIN)
            op = Op(key, "global", a, b, PROTEIN_AFFINE, 0)
        elif slot == "local":
            a = random_text(rng, length)
            core = mutate(rng, a[length // 4: 3 * length // 4], div, 0.03)
            b = random_text(rng, length // 4) + core + random_text(rng, length // 4)
            op = Op(key, "local", a, b, AFFINE, 0)
        else:
            b = random_text(rng, length)
            start = length // 5
            a = mutate(rng, b[start:start + 3 * length // 5], div, 0.03)
            op = Op(key, "semiglobal", a, b, LINEAR, 0)
        op.cells = len(op.a) * len(op.b)
        ops.append(op)
    return ops


# ----------------------------------------------------------------------
# corpus_search: exact top-K search over a persisted index
# ----------------------------------------------------------------------
CORPUS_SIZE = 2000
HOMOLOG_BASES = 16
HOMOLOGS = 64
#: Three of each query type (homolog or random x linear or affine).  At
#: 0.4-0.7 s a query, one pass takes about 7 s, so every query repeats
#: several times in a run.
QUERIES = 12


def search_corpus(rng: np.random.Generator):
    """Corpus records plus the base sequences its homologs descend from."""
    bases = [random_text(rng, 300) for _ in range(HOMOLOG_BASES)]
    stride = CORPUS_SIZE // HOMOLOGS
    records = []
    for i in range(CORPUS_SIZE):
        if i % stride == stride // 2 and i // stride < HOMOLOGS:
            j = i // stride
            text = mutate(rng, bases[j % HOMOLOG_BASES], 0.1 + 0.15 * (j % 4) / 3, 0.02)
        else:
            text = random_text(rng, 80 + (i * 53) % 521)  # 80..600 bp
        records.append(repro.Sequence(text, name=f"r{i}"))
    return records, bases


def search_queries(rng: np.random.Generator, bases) -> List[Op]:
    """Half homolog queries (pruning stops early), half random (it does
    not); each half split between the linear and the affine scheme."""
    ops = []
    for key in range(QUERIES):
        if key % 2 == 0:
            q = mutate(rng, bases[(key // 2) % len(bases)], 0.1, 0.02)
        else:
            q = random_text(rng, 300)
        scheme = LINEAR if key % 4 < 2 else AFFINE
        ops.append(Op(key, "search", q, None, scheme, 0))
    return ops


def build_index(records, workdir: str):
    """Build, save and load the corpus index: the search set-up, timed."""
    t0 = time.perf_counter()
    built = CorpusIndex.build(records, DNA)
    t1 = time.perf_counter()
    path = os.path.join(workdir, "corpus.flsa")
    built.save(path)
    t2 = time.perf_counter()
    index = CorpusIndex.load(path)
    t3 = time.perf_counter()
    timings = {"index_build_s": t1 - t0, "index_save_s": t2 - t1, "index_load_s": t3 - t2}
    return index, timings
