"""Soundness tests for the composition pruning bounds.

The one property everything rests on: for every pair and scheme,
``pair_bound(q, t) >= smith_waterman(q, t).score``.  A violated bound
would let the engine prune a true top-K member — the exactness tests in
``test_search_engine.py`` would fail too, but this pins the blame."""

from __future__ import annotations

import numpy as np
import pytest

from repro import smith_waterman
from repro.search import CorpusIndex
from repro.search.bounds import (
    candidate_bounds,
    descending_order,
    index_bounds,
    pair_bound,
    row_top_sums,
)
from tests.conftest import random_dna, random_protein

LENGTH_PAIRS = [(5, 40), (30, 30), (60, 20), (80, 80), (1, 50), (45, 3)]


class TestTopSum:
    """``row_top_sums``: one row per candidate, each its own limit."""

    @staticmethod
    def one(values, counts, limit):
        return int(row_top_sums(np.array([values]), np.array([counts]),
                                np.array([limit]))[0])

    def test_takes_largest_first(self):
        # best 4: one 8, two 5s, one 3
        assert self.one([5, 3, 8], [2, 10, 1], 4) == 8 + 5 + 5 + 3

    def test_zero_limit_and_nonpositive_values(self):
        assert self.one([5], [3], 0) == 0
        assert self.one([0, 0], [9, 9], 5) == 0

    def test_counts_exhaust_before_limit(self):
        assert self.one([7], [2], 100) == 14

    def test_rows_are_independent(self):
        values = np.array([[5, 3, 8], [5, 3, 8], [4, 4, 0], [9, 1, 2], [6, 6, 6]])
        counts = np.array([[2, 10, 1], [2, 10, 1], [0, 0, 0], [3, 3, 3], [1, 1, 1]])
        limit = np.array([4, 0, 7, 50, 2])
        # limit 0, an all-zero histogram, a limit above the count, a tie
        assert row_top_sums(values, counts, limit).tolist() == [21, 0, 0, 36, 12]

    def test_matches_sequential_greedy(self, rng):
        values = rng.integers(0, 12, size=(60, 6))
        counts = rng.integers(0, 5, size=(60, 6))
        limit = rng.integers(0, 25, size=60)
        for r, got in enumerate(row_top_sums(values, counts, limit)):
            pool = sorted(np.repeat(values[r], counts[r]).tolist(), reverse=True)
            assert got == sum(pool[:limit[r]])


class TestAdmissibility:
    """bound >= true SW score, across alphabets, gap models and seeds."""

    @pytest.mark.parametrize("scheme_name", ["dna_scheme", "affine_dna_scheme"])
    @pytest.mark.parametrize("seed", [1, 9, 23])
    def test_dna_bound_dominates_score(self, request, scheme_name, seed):
        scheme = request.getfixturevalue(scheme_name)
        rng = np.random.default_rng(seed)
        for m, n in LENGTH_PAIRS:
            q, t = random_dna(rng, m), random_dna(rng, n)
            bound = pair_bound(q, t, scheme)
            score = smith_waterman(q, t, scheme).score
            assert bound >= score, f"{q!r} vs {t!r}: bound {bound} < SW {score}"

    @pytest.mark.parametrize("scheme_name", ["protein_scheme", "affine_scheme"])
    @pytest.mark.parametrize("seed", [2, 31])
    def test_protein_bound_dominates_score(self, request, scheme_name, seed):
        scheme = request.getfixturevalue(scheme_name)
        rng = np.random.default_rng(seed)
        for m, n in LENGTH_PAIRS:
            q, t = random_protein(rng, m), random_protein(rng, n)
            bound = pair_bound(q, t, scheme)
            score = smith_waterman(q, t, scheme).score
            assert bound >= score, f"{q!r} vs {t!r}: bound {bound} < SW {score}"

    def test_bound_on_related_pairs(self, rng, dna_scheme):
        """Homologous pairs (high true score) must not slip over the bound."""
        from repro.workloads import evolve

        base = random_dna(rng, 80)
        for i in range(10):
            t = evolve(base, sub_rate=0.1, indel_rate=0.05, rng=rng,
                       alphabet="ACGT").text
            assert pair_bound(base, t, dna_scheme) >= \
                smith_waterman(base, t, dna_scheme).score


class TestTightness:
    def test_self_alignment_bound_is_exact_for_dna(self, dna_scheme):
        q = "ACGTACGTAACC"
        assert pair_bound(q, q, dna_scheme) == \
            smith_waterman(q, q, dna_scheme).score == 5 * len(q)

    def test_disjoint_composition_bounds_to_zero(self, dna_scheme):
        # +5/−4 matrix: off-diagonal positive part is 0, no shared symbols
        assert pair_bound("AAAA", "TTTT", dna_scheme) == 0

    def test_empty_sides(self, dna_scheme):
        assert pair_bound("", "ACGT", dna_scheme) == 0
        assert pair_bound("ACGT", "", dna_scheme) == 0

    def test_shared_composition_caps_dna_bound(self, dna_scheme):
        # one shared A: at most one +5 pair, everything else scores <= 0
        assert pair_bound("ACCC", "AGGG", dna_scheme) == 5


class TestIndexBounds:
    def test_matches_pair_bound_per_candidate(self, rng, dna_scheme):
        records = [random_dna(rng, int(rng.integers(5, 60))) for _ in range(12)]
        index = CorpusIndex.build(records, "ACGT")
        q = random_dna(rng, 40)
        from repro.align import Sequence

        bounds = index_bounds(Sequence(q, name="q"), index, dna_scheme)
        assert bounds.tolist() == [pair_bound(q, t, dna_scheme) for t in records]

    def test_query_profile_reused_across_candidates(self, dna_scheme):
        hist = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [4, 0, 0, 0]])
        bounds = candidate_bounds(dna_scheme.encode("ACGT"), hist,
                                  np.array([4, 0, 4]), dna_scheme)
        assert bounds.tolist() == [20, 0, 5]


class TestDescendingOrder:
    def test_sorts_descending_stable(self):
        bounds = np.array([3, 7, 7, 1])
        order, ordered = descending_order(bounds)
        assert order.tolist() == [1, 2, 0, 3]  # ties keep corpus order
        assert ordered.tolist() == [7, 7, 3, 1]
