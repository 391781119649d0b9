"""Corpus search: indexed top-K local alignment with exact pruning bounds.

The homology-search subsystem (ROADMAP item: "what FastLSA is *for*"):

* :mod:`repro.search.index` — ingest FASTA into a persisted, versioned,
  fingerprinted :class:`CorpusIndex` (``fastlsa index``);
* :mod:`repro.search.bounds` — admissible composition/length upper bounds
  on local scores, the ALAE-style pruning tier;
* :mod:`repro.search.engine` — :func:`search`: exact top-K over the
  corpus, pruning candidates that provably cannot reach the running
  floor, scoring survivors with linear-space sweeps (serial or thread
  backend) and materialising full FastLSA alignments for the final K
  only.

Results are bit-identical to brute-force Smith–Waterman over every corpus
sequence — pruning is an optimisation, never an approximation (enforced
by ``tests/test_search_engine.py`` and ``benchmarks/bench_search.py``).
The service surfaces this as the streaming ``search`` op; the CLI as
``fastlsa index`` / ``fastlsa search``.
"""

from .bounds import candidate_bounds, index_bounds, pair_bound
from .engine import SearchHit, SearchResult, SearchStats, search
from .index import INDEX_MAGIC, INDEX_VERSION, CorpusIndex, load_index

__all__ = [
    "CorpusIndex",
    "INDEX_MAGIC",
    "INDEX_VERSION",
    "SearchHit",
    "SearchResult",
    "SearchStats",
    "candidate_bounds",
    "index_bounds",
    "load_index",
    "pair_bound",
    "search",
]
