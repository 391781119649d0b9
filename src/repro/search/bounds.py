"""Exact (admissible) upper bounds on local alignment scores.

The pruning tier of :func:`repro.search.engine.search`: before paying an
``O(m·n)`` DP sweep for a corpus candidate, bound its best possible
Smith–Waterman score from composition histograms alone, in ``O(|Σ|²)``.
A candidate whose bound falls below the running top-K floor cannot enter
the result set and is skipped — *soundly*: every bound here is a true
upper bound, so pruning never changes the answer (the ALAE property; see
``docs/SEARCH.md`` for the full argument, and
``tests/test_search_bounds.py`` for the property test against full SW).

Why the bounds are sound
------------------------

The library's :class:`~repro.scoring.gaps.GapModel` enforces gap scores
``≤ 0``, so any local alignment's score is at most the sum of its matched
(substitution) pairs' *positive* parts: ``score ≤ Σ S⁺[xᵢ, yᵢ]`` where
``S⁺ = max(S, 0)``.  A local alignment of ``q`` (length ``m``) against
``t`` (length ``n``) has at most ``L = min(m, n)`` matched pairs, and
each residue of either side appears in at most one pair.  Three bounds
follow, each the sum of the ``L`` largest values of a multiset that
dominates the matched pairs:

* **query-capped** — pair ``(x, y)`` scores at most
  ``vq[x] = max{S⁺[x, y] : y occurs in t}``; residue ``x`` of the query
  contributes at most ``count_q(x)`` pairs.
* **target-capped** — symmetric: ``vt[y] = max{S⁺[x, y] : x occurs in
  q}``, fixed per query, weighted by the candidate's histogram.
* **diagonal-refined** — a pair of *equal* symbols ``(x, x)`` scores at
  most ``S⁺[x, x]`` and there are at most ``min(count_q(x), count_t(x))``
  of them; every *unequal* pair scores at most
  ``offmax = max{S⁺[x, y] : x ≠ y}``.  For match/mismatch matrices
  (DNA: ``offmax = 0``) this collapses to
  ``match · min(Σ min(count_q, count_t), L)`` — the classic shared-
  composition bound.

The engine takes the minimum of the three (clamped at 0, since the empty
local alignment always scores 0).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigError
from ..scoring.scheme import ScoringScheme

__all__ = [
    "candidate_bounds",
    "descending_order",
    "index_bounds",
    "pair_bound",
    "row_top_sums",
]


def row_top_sums(values: np.ndarray, counts: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Per row ``r``: the sum of the ``limit[r]`` largest elements of the
    multiset ``{values[r, k] × counts[r, k]}``.

    One vectorised pass: sort each row's values descending, ``cumsum``
    the counts in that order, clip the running total to the row's limit
    and weight each value by what its step added.  Values must be
    non-negative, counts and limits ``≥ 0``; returns ``int64`` of shape
    ``(n,)``.
    """
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    order = np.argsort(-values, axis=1)
    taken = np.minimum(
        np.cumsum(np.take_along_axis(counts, order, axis=1), axis=1),
        np.maximum(np.asarray(limit, dtype=np.int64), 0)[:, None],
    )
    steps = np.diff(taken, axis=1, prepend=0)
    return (np.take_along_axis(values, order, axis=1) * steps).sum(axis=1)


def candidate_bounds(
    query_codes: np.ndarray,
    histograms: np.ndarray,
    lengths: np.ndarray,
    scheme: ScoringScheme,
) -> np.ndarray:
    """Upper bounds for every candidate: ``int64`` array, one per row of
    ``histograms``.

    min(query-capped, target-capped, diagonal-refined), clamped at 0, for
    all rows in one numpy pass over the ``(n, |Σ|)`` histogram matrix.
    """
    table = np.asarray(scheme.matrix.table, dtype=np.int64)
    a = len(scheme.alphabet)
    if table.shape[0] < a or table.shape[1] < a:
        raise ConfigError(
            f"scoring table {table.shape} smaller than alphabet size {a}"
        )
    s_plus = np.maximum(table[:a, :a], 0)
    q_counts = np.bincount(np.asarray(query_codes, dtype=np.int64), minlength=a)[:a]
    hist = np.asarray(histograms, dtype=np.int64).reshape(-1, a)
    limit = np.minimum(len(query_codes), np.asarray(lengths, dtype=np.int64))

    # query-capped: best score of each query symbol vs anything present
    # (S⁺ ≥ 0, so masking absent target symbols to 0 leaves the max)
    vq = (s_plus[None, :, :] * (hist > 0)[:, None, :]).max(axis=2)
    bound_q = row_top_sums(vq, np.broadcast_to(q_counts, hist.shape), limit)
    # target-capped: best positive score any query residue can reach
    # against target symbol y
    vt = s_plus[q_counts > 0].max(axis=0, initial=0)
    bound_t = row_top_sums(np.broadcast_to(vt, hist.shape), hist, limit)
    # diagonal-refined: equal-symbol pairs are scarce, unequal pairs flat
    off = s_plus.copy()
    np.fill_diagonal(off, 0)
    values = np.append(np.diagonal(s_plus), off.max(initial=0))
    counts = np.column_stack((np.minimum(q_counts, hist), limit))
    bound_d = row_top_sums(np.broadcast_to(values, counts.shape), counts, limit)
    return np.maximum(0, np.minimum(np.minimum(bound_q, bound_t), bound_d))


def index_bounds(query, index, scheme: ScoringScheme) -> np.ndarray:
    """Bounds for every sequence of a :class:`~repro.search.index.CorpusIndex`."""
    codes = scheme.encode(query.text if hasattr(query, "text") else str(query))
    return candidate_bounds(codes, index.histograms, index.lengths, scheme)


def pair_bound(query_text: str, target_text: str, scheme: ScoringScheme) -> int:
    """Bound for a single pair (the unit the property tests exercise)."""
    q = scheme.encode(query_text)
    t = scheme.encode(target_text)
    a = len(scheme.alphabet)
    counts = np.bincount(np.asarray(t, dtype=np.int64), minlength=a)[:a]
    return int(candidate_bounds(q, counts[None, :], np.array([len(t)]), scheme)[0])


def descending_order(bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate order for the engine: bound-descending, index-ascending.

    Processing high-bound candidates first establishes the top-K floor
    early, so one strong homolog prunes the long tail of weak candidates
    in a single comparison.  Returns ``(order, ordered_bounds)``.
    """
    order = np.argsort(-bounds, kind="stable")
    return order, bounds[order]
