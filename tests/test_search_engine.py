"""Differential tests for the corpus-search engine.

The contract under test: :func:`repro.search.search` returns exactly the
``(score, candidate, alignment)`` set brute-force Smith–Waterman over
every corpus sequence would — bit-identical scores, ranges and gapped
strings — across gap models, backends and seeds, while the pruning tier
skips a provable majority of candidates.
"""

from __future__ import annotations

import pytest

from repro import AlignConfig, ConfigError, JobTimeoutError, smith_waterman
from repro.align import Sequence
from repro.core.local import fastlsa_local, local_best_cell
from repro.search import CorpusIndex, search
from repro.workloads import evolve

from tests.conftest import random_dna


def make_corpus(rng, base, n_homologs=6, n_decoys=20, n_randoms=8,
                decoy_len=(10, 30)):
    """Homologs of ``base`` + short decoys + same-length randoms, shuffled."""
    records = []
    for i in range(n_homologs):
        records.append(
            evolve(base, sub_rate=0.08, indel_rate=0.02, rng=rng,
                   alphabet="ACGT", name=f"hom{i}")
        )
    for i in range(n_decoys):
        length = int(rng.integers(decoy_len[0], decoy_len[1] + 1))
        records.append(Sequence(random_dna(rng, length), name=f"decoy{i}"))
    for i in range(n_randoms):
        records.append(Sequence(random_dna(rng, len(base)), name=f"rand{i}"))
    order = rng.permutation(len(records))
    return [records[i] for i in order]


def brute_force(query, records, scheme, top_k, min_score=1):
    """The reference answer: full SW per candidate, (-score, idx) order."""
    rows = []
    for idx, rec in enumerate(records):
        loc = smith_waterman(query, rec, scheme)
        if loc.score >= min_score:
            rows.append((idx, loc))
    rows.sort(key=lambda r: (-r[1].score, r[0]))
    return rows[:top_k]


def assert_hits_match(hits, expected, records):
    """Bit-identity: corpus position, score, ranges and gapped strings."""
    assert [(h.corpus_index, h.score) for h in hits] == [
        (idx, loc.score) for idx, loc in expected
    ]
    for hit, (idx, loc) in zip(hits, expected):
        assert hit.name == records[idx].name
        assert hit.local is not None
        assert (hit.local.a_start, hit.local.a_end) == (loc.a_start, loc.a_end)
        assert (hit.local.b_start, hit.local.b_end) == (loc.b_start, loc.b_end)
        assert hit.local.alignment.gapped_a == loc.alignment.gapped_a
        assert hit.local.alignment.gapped_b == loc.alignment.gapped_b
        assert hit.bound >= hit.score  # the bound really was admissible


class TestDifferential:
    """search() == brute force, across gap models × backends × seeds."""

    @pytest.mark.parametrize("scheme_name", ["dna_scheme", "affine_dna_scheme"])
    @pytest.mark.parametrize("backend", [None, "threads"])
    def test_matches_brute_force(self, request, rng, scheme_name, backend):
        scheme = request.getfixturevalue(scheme_name)
        base = Sequence(random_dna(rng, 90), name="base")
        records = make_corpus(rng, base, n_homologs=5, n_decoys=18, n_randoms=6)
        index = CorpusIndex.build(records, "ACGT")
        query = evolve(base, sub_rate=0.05, indel_rate=0.02, rng=rng,
                       alphabet="ACGT", name="query")

        cfg = AlignConfig(backend=backend, max_workers=2) if backend else None
        res = search(query, index, scheme, top_k=5, config=cfg)

        assert_hits_match(res.hits, brute_force(query, records, scheme, 5), records)
        assert res.complete
        assert res.stats.candidates == len(records)
        assert res.stats.pruned + res.stats.scored == len(records)

    @pytest.mark.parametrize("seed", [3, 17, 51])
    def test_seed_sweep_serial(self, seed, dna_scheme):
        import numpy as np

        rng = np.random.default_rng(seed)
        base = Sequence(random_dna(rng, 70), name="base")
        records = make_corpus(rng, base, n_homologs=4, n_decoys=14, n_randoms=5)
        index = CorpusIndex.build(records, "ACGT")
        query = evolve(base, sub_rate=0.1, indel_rate=0.03, rng=rng,
                       alphabet="ACGT", name="query")
        res = search(query, index, dna_scheme, top_k=4)
        assert_hits_match(res.hits, brute_force(query, records, dna_scheme, 4), records)

    def test_acceptance_200_corpus_exact_and_pruned(self, rng, dna_scheme):
        """The PR's acceptance criterion: on a ≥200-sequence corpus the
        top-K is bit-identical to brute force AND ≥50% of candidates are
        rejected by the pruning tier before any DP."""
        base = Sequence(random_dna(rng, 120), name="base")
        records = make_corpus(rng, base, n_homologs=12, n_decoys=160,
                              n_randoms=40, decoy_len=(10, 30))
        assert len(records) >= 200
        index = CorpusIndex.build(records, "ACGT")
        query = evolve(base, sub_rate=0.05, indel_rate=0.01, rng=rng,
                       alphabet="ACGT", name="query")

        res = search(query, index, dna_scheme, top_k=8)

        assert_hits_match(res.hits, brute_force(query, records, dna_scheme, 8), records)
        assert res.stats.prune_rate >= 0.5, (
            f"pruning tier rejected only {res.stats.prune_rate:.0%} of "
            f"{res.stats.candidates} candidates"
        )

    def test_tie_break_is_corpus_order(self, dna_scheme):
        target = "ACGTACGTACGT"
        records = [Sequence(target, name=f"dup{i}") for i in range(6)]
        index = CorpusIndex.build(records, "ACGT")
        res = search(target, index, dna_scheme, top_k=4)
        assert [h.corpus_index for h in res.hits] == [0, 1, 2, 3]
        assert len({h.score for h in res.hits}) == 1


class TestEngineBehaviour:
    def test_min_score_filters_hits(self, dna_scheme):
        records = [Sequence("AAAA", name="near"), Sequence("TTTT", name="far")]
        index = CorpusIndex.build(records, "ACGT")
        res = search("AAAA", index, dna_scheme, top_k=5, min_score=1)
        assert [h.name for h in res.hits] == ["near"]
        res = search("AAAA", index, dna_scheme, top_k=5, min_score=10 ** 6)
        assert res.hits == []

    def test_empty_index(self, dna_scheme):
        index = CorpusIndex.build([], "ACGT")
        res = search("ACGT", index, dna_scheme, top_k=3)
        assert res.hits == [] and res.stats.candidates == 0
        assert res.complete

    def test_top_k_validation(self, dna_scheme):
        index = CorpusIndex.build(["ACGT"], "ACGT")
        with pytest.raises(ConfigError):
            search("ACGT", index, dna_scheme, top_k=0)
        with pytest.raises(ConfigError):
            search("ACGT", index, dna_scheme, retries=-1)

    def test_alphabet_mismatch_is_config_error(self, dna_scheme, protein_scheme):
        index = CorpusIndex.build(["ACGT"], "ACGT")
        with pytest.raises(ConfigError, match="alphabet"):
            search("ACGT", index, protein_scheme, top_k=1)

    def test_deadline_zero_times_out(self, dna_scheme):
        index = CorpusIndex.build(["ACGTACGT"] * 4, "ACGT")
        with pytest.raises(JobTimeoutError):
            search("ACGTACGT", index, dna_scheme, top_k=2, deadline=0.0)

    def test_external_executor_not_shut_down(self, rng, dna_scheme):
        from concurrent.futures import ThreadPoolExecutor

        base = Sequence(random_dna(rng, 50), name="base")
        records = make_corpus(rng, base, n_homologs=3, n_decoys=8, n_randoms=3)
        index = CorpusIndex.build(records, "ACGT")
        with ThreadPoolExecutor(max_workers=2) as pool:
            res = search(base, index, dna_scheme, top_k=3, executor=pool)
            assert_hits_match(res.hits, brute_force(base, records, dna_scheme, 3),
                              records)
            # the engine must not have shut the caller's pool down
            assert pool.submit(lambda: 42).result() == 42

    def test_streaming_snapshots(self, rng, dna_scheme):
        base = Sequence(random_dna(rng, 60), name="base")
        records = make_corpus(rng, base, n_homologs=5, n_decoys=10, n_randoms=4)
        index = CorpusIndex.build(records, "ACGT")
        updates = []
        res = search(base, index, dna_scheme, top_k=3,
                     on_update=lambda hits, stats: updates.append(hits))
        assert updates, "top-K membership changed at least once"
        for snap in updates:
            assert 1 <= len(snap) <= 3
            scores = [h.score for h in snap]
            assert scores == sorted(scores, reverse=True)
            assert all(h.local is None for h in snap)  # no alignments mid-flight
        # the last snapshot agrees with the final ranking
        assert [(h.corpus_index, h.score) for h in updates[-1]] == [
            (h.corpus_index, h.score) for h in res.hits
        ]


class TestBestCellHint:
    """The tier-3 fast path: fastlsa_local(best_cell=...) skips the sweep."""

    def test_hint_reproduces_unhinted_alignment(self, rng, dna_scheme):
        a = random_dna(rng, 60)
        b = random_dna(rng, 55)
        hint = local_best_cell(a, b, dna_scheme)
        assert hint[0] == smith_waterman(a, b, dna_scheme).score
        plain = fastlsa_local(a, b, dna_scheme)
        hinted = fastlsa_local(a, b, dna_scheme, best_cell=hint)
        assert hinted.score == plain.score
        assert (hinted.a_start, hinted.a_end, hinted.b_start, hinted.b_end) == (
            plain.a_start, plain.a_end, plain.b_start, plain.b_end
        )
        assert hinted.alignment.gapped_a == plain.alignment.gapped_a
        assert hinted.alignment.gapped_b == plain.alignment.gapped_b

    def test_out_of_range_hint_fails_loudly(self, dna_scheme):
        with pytest.raises(AssertionError):
            fastlsa_local("ACGT", "ACGT", dna_scheme, best_cell=(5, 99, 1))
