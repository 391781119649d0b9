"""Tests for the batch (database search) API and the Gantt renderer."""

import pytest

from repro.align import check_alignment
from repro import AlignConfig
from repro.core import batch_align
from repro.errors import ConfigError
from repro.parallel import TileGrid, list_schedule, render_gantt, schedule_gantt
from repro.workloads import evolve, random_sequence


@pytest.fixture
def database(rng):
    query = random_sequence(60, "ACGT", rng, name="query")
    related = [
        evolve(query, sub_rate=0.05 * i, indel_rate=0.02, rng=rng,
               alphabet="ACGT", name=f"rel{i}")
        for i in (1, 2, 3)
    ]
    strangers = [random_sequence(60, "ACGT", rng, name=f"bg{i}") for i in range(4)]
    return query, related, strangers


class TestBatchAlign:
    def test_ranking_separates_family(self, database, dna_scheme):
        query, related, strangers = database
        hits = batch_align(query, related + strangers, dna_scheme, mode="local", keep=3)
        assert [h.rank for h in hits] == list(range(1, len(hits) + 1))
        top_names = {h.target.name for h in hits[:3]}
        assert top_names <= {r.name for r in related}

    def test_scores_descending(self, database, dna_scheme):
        query, related, strangers = database
        hits = batch_align(query, related + strangers, dna_scheme, mode="global", keep=2)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_keep_limits_alignments(self, database, dna_scheme):
        query, related, strangers = database
        hits = batch_align(query, related + strangers, dna_scheme, keep=2)
        assert sum(1 for h in hits if h.alignment is not None) == 2
        assert all(h.alignment is None for h in hits[2:])

    @pytest.mark.parametrize("mode", ["global", "local", "semiglobal", "overlap"])
    def test_quick_scores_match_full(self, database, dna_scheme, mode):
        """The ranking sweep and the materialised alignment must agree —
        asserted internally; this just exercises every mode."""
        query, related, strangers = database
        hits = batch_align(query, related[:2] + strangers[:2], dna_scheme,
                           mode=mode, keep=4)
        for h in hits:
            assert h.alignment is not None
            assert h.a_range is not None and h.b_range is not None
            if len(h.alignment.seq_a) or len(h.alignment.seq_b):
                assert check_alignment(h.alignment, dna_scheme)[0]

    def test_min_score_filter(self, database, dna_scheme):
        query, related, strangers = database
        all_hits = batch_align(query, related + strangers, dna_scheme, keep=0)
        threshold = all_hits[2].score
        filtered = batch_align(query, related + strangers, dna_scheme,
                               keep=0, min_score=threshold)
        assert all(h.score >= threshold for h in filtered)
        assert len(filtered) < len(all_hits)

    def test_bad_mode_rejected(self, dna_scheme):
        with pytest.raises(ConfigError):
            batch_align("ACGT", ["ACGT"], dna_scheme, mode="sideways")

    def test_negative_keep_rejected(self, dna_scheme):
        with pytest.raises(ConfigError):
            batch_align("ACGT", ["ACGT"], dna_scheme, keep=-1)

    def test_empty_database(self, dna_scheme):
        assert batch_align("ACGT", [], dna_scheme) == []

    def test_concurrent_scoring_matches_sequential(self, database, dna_scheme):
        query, related, strangers = database
        targets = related + strangers
        seq = batch_align(query, targets, dna_scheme, mode="local", keep=2)
        par = batch_align(query, targets, dna_scheme, mode="local", keep=2,
                          config=AlignConfig(max_workers=3))
        assert [(h.target.name, h.score, h.rank) for h in seq] == \
               [(h.target.name, h.score, h.rank) for h in par]

    def test_shared_executor_not_shut_down(self, database, dna_scheme):
        from concurrent.futures import ThreadPoolExecutor

        query, related, strangers = database
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            # semiglobal has no lane kernel: it scores per pair on the pool
            hits = batch_align(query, related, dna_scheme, mode="semiglobal",
                               keep=1, executor=pool)
            assert hits[0].rank == 1
            # the pool must remain usable afterwards
            assert pool.submit(lambda: 7).result(timeout=5) == 7
        finally:
            pool.shutdown(wait=True)

    def test_bad_max_workers_rejected(self, dna_scheme):
        with pytest.raises(ConfigError):
            batch_align("ACGT", ["ACGT"], dna_scheme,
                        config=AlignConfig(max_workers=0))


class TestGantt:
    def uniform_grid(self, R, C):
        return TileGrid(list(range(R + 1)), list(range(C + 1)))

    def test_renders_all_workers(self):
        tg = self.uniform_grid(4, 4)
        out = schedule_gantt(tg, 3, width=60)
        for w in range(3):
            assert f"worker {w}" in out

    def test_empty_schedule(self):
        assert "empty" in render_gantt({}, 2)

    def test_width_respected(self):
        tg = self.uniform_grid(3, 3)
        out = schedule_gantt(tg, 2, width=40)
        for line in out.splitlines()[:-1]:
            assert len(line) <= 40 + 12

    def test_spans_cover_schedule(self):
        tg = self.uniform_grid(2, 5)
        makespan, spans = list_schedule(tg, 2, lambda t: 1.0)
        out = render_gantt(spans, 2, width=50)
        assert f"{makespan:g}" in out

    def test_invalid_p(self):
        tg = self.uniform_grid(1, 1)
        _, spans = list_schedule(tg, 1, lambda t: 1.0)
        with pytest.raises(Exception):
            render_gantt(spans, 0)
