"""Tests for the lane-packed batch kernel tier (PR 10).

The batch kernels' whole contract is *bit-identity with the per-pair
providers*: any divergence — score, best-cell coordinates, tie-breaking,
or which lanes a floor prunes — would silently corrupt search rankings
and batch hits.  So almost everything here is differential: pack many
pairs into lanes, run both paths, compare exactly.  The floor tests
additionally check *soundness*: a pruned lane's true score must be below
the floor (pruning is an optimisation, never an answer change).
"""

import random

import numpy as np
import pytest

from repro.core.batch import batch_align
from repro.core.local import local_best_cell
from repro.core.score_only import align_score
from repro.kernels import batchdp, registry
from repro.scoring import ScoringScheme, affine_gap, blosum62, dna_simple, linear_gap
from repro.search.engine import search
from repro.search.index import CorpusIndex

HAS_COMPILED = registry.compiled_available()
needs_compiled = pytest.mark.skipif(
    not HAS_COMPILED, reason="compiled kernel extension not built"
)

LIN = ScoringScheme(dna_simple(), linear_gap(-6))
AFF = ScoringScheme(dna_simple(), affine_gap(-10, -1))


def _rand_seq(rng, lo, hi):
    return "".join(rng.choice("ACGT") for _ in range(rng.randint(lo, hi)))


def _codes(scheme, text):
    return scheme.encode(text)


def _per_pair_local(scheme, a, b_list):
    triples = [local_best_cell(a, b, scheme) for b in b_list]
    return (
        np.array([t[0] for t in triples]),
        np.array([t[1] for t in triples]),
        np.array([t[2] for t in triples]),
    )


class TestPackLanes:
    def test_pack_shapes_and_padding(self):
        codes = [LIN.encode("ACGT"), LIN.encode("AC"), LIN.encode("")]
        pack, lens = batchdp.pack_lanes(codes)
        assert pack.shape == (3, 4)
        assert lens.tolist() == [4, 2, 0]
        # padding is code 0 and provably irrelevant (deps flow left only)
        assert pack[1, 2] == 0 and pack[2, 0] == 0

    def test_empty_batch(self):
        pack, lens = batchdp.pack_lanes([])
        assert pack.shape == (0, 0) and lens.shape == (0,)


class TestBatchBitIdentity:
    """Randomised differentials against the per-pair providers."""

    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_best_cell_local_matches_per_pair(self, scheme):
        rng = random.Random(11)
        for trial in range(8):
            a = _rand_seq(rng, 1, 60)
            targets = [_rand_seq(rng, 0, 80) for _ in range(rng.randint(1, 17))]
            codes = [_codes(scheme, t) for t in targets]
            pack, lens = batchdp.pack_lanes(codes)
            provider = registry.get_batch_kernel("numpy")
            table = scheme.matrix.table
            if scheme.is_linear:
                s, bi, bj, pruned = provider.best_cell_local(
                    _codes(scheme, a), pack, lens, table, scheme.gap_open
                )
            else:
                s, bi, bj, pruned = provider.best_cell_local_affine(
                    _codes(scheme, a), pack, lens, table,
                    scheme.gap_open, scheme.gap_extend,
                )
            es, ebi, ebj = _per_pair_local(scheme, a, targets)
            assert not pruned.any()
            np.testing.assert_array_equal(s, es)
            np.testing.assert_array_equal(bi, ebi)
            np.testing.assert_array_equal(bj, ebj)

    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_score_global_matches_align_score(self, scheme):
        rng = random.Random(5)
        for trial in range(6):
            a = _rand_seq(rng, 0, 50)
            targets = [_rand_seq(rng, 0, 70) for _ in range(rng.randint(1, 9))]
            pack, lens = batchdp.pack_lanes([_codes(scheme, t) for t in targets])
            provider = registry.get_batch_kernel("numpy")
            if scheme.is_linear:
                s = provider.score_global(
                    _codes(scheme, a), pack, lens, scheme.matrix.table,
                    scheme.gap_open,
                )
            else:
                s = provider.score_global_affine(
                    _codes(scheme, a), pack, lens, scheme.matrix.table,
                    scheme.gap_open, scheme.gap_extend,
                )
            expect = [align_score(a, t, scheme) for t in targets]
            assert s.tolist() == expect

    def test_single_lane_batch(self):
        # B=1 must behave exactly like the per-pair call, padding-free.
        a, b = "ACGTACGT", "AGGTACG"
        pack, lens = batchdp.pack_lanes([_codes(LIN, b)])
        s, bi, bj, _ = registry.get_batch_kernel("numpy").best_cell_local(
            _codes(LIN, a), pack, lens, LIN.matrix.table, LIN.gap_open
        )
        assert (int(s[0]), int(bi[0]), int(bj[0])) == local_best_cell(a, b, LIN)

    def test_ragged_and_empty_lanes(self):
        a = "ACGTACGTAC"
        targets = ["", "A", "ACGTACGTACGTACGT", "", "GT"]
        pack, lens = batchdp.pack_lanes([_codes(LIN, t) for t in targets])
        s, bi, bj, _ = registry.get_batch_kernel("numpy").best_cell_local(
            _codes(LIN, a), pack, lens, LIN.matrix.table, LIN.gap_open
        )
        es, ebi, ebj = _per_pair_local(LIN, a, targets)
        np.testing.assert_array_equal(s, es)
        np.testing.assert_array_equal(bi, ebi)
        np.testing.assert_array_equal(bj, ebj)

    def test_empty_query(self):
        # M=0: local best is the empty match everywhere; global is pure gaps.
        targets = ["ACG", ""]
        pack, lens = batchdp.pack_lanes([_codes(LIN, t) for t in targets])
        provider = registry.get_batch_kernel("numpy")
        s, bi, bj, _ = provider.best_cell_local(
            _codes(LIN, ""), pack, lens, LIN.matrix.table, LIN.gap_open
        )
        assert s.tolist() == [0, 0]
        g = provider.score_global(
            _codes(LIN, ""), pack, lens, LIN.matrix.table, LIN.gap_open
        )
        assert g.tolist() == [align_score("", t, LIN) for t in targets]


class TestFloorPruning:
    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_pruned_lanes_are_truly_below_floor(self, scheme):
        rng = random.Random(23)
        for trial in range(6):
            a = _rand_seq(rng, 5, 50)
            targets = [_rand_seq(rng, 0, 60) for _ in range(12)]
            floor = rng.randint(1, 60)
            pack, lens = batchdp.pack_lanes([_codes(scheme, t) for t in targets])
            provider = registry.get_batch_kernel("numpy")
            if scheme.is_linear:
                s, bi, bj, pruned = provider.best_cell_local(
                    _codes(scheme, a), pack, lens, scheme.matrix.table,
                    scheme.gap_open, floor=floor,
                )
            else:
                s, bi, bj, pruned = provider.best_cell_local_affine(
                    _codes(scheme, a), pack, lens, scheme.matrix.table,
                    scheme.gap_open, scheme.gap_extend, floor=floor,
                )
            es, ebi, ebj = _per_pair_local(scheme, a, targets)
            for lane in range(len(targets)):
                if pruned[lane]:
                    # soundness: a pruned lane can never reach the floor
                    assert es[lane] < floor
                else:
                    # exactness: surviving lanes are bit-identical
                    assert (s[lane], bi[lane], bj[lane]) == (
                        es[lane], ebi[lane], ebj[lane],
                    )


@needs_compiled
class TestCompiledBatchParity:
    """The C batch kernels must match numpy lane-for-lane (the registry's
    import-time gate already checks fixed cases; this re-checks random
    ones, floors included)."""

    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    @pytest.mark.parametrize("floor", [None, 25], ids=["nofloor", "floor"])
    def test_best_cell_parity(self, scheme, floor):
        rng = random.Random(31)
        numpy_p = registry.get_batch_kernel("numpy")
        comp_p = registry.get_batch_kernel("compiled")
        assert comp_p.compiled
        for trial in range(6):
            a_codes = _codes(scheme, _rand_seq(rng, 0, 50))
            codes = [
                _codes(scheme, _rand_seq(rng, 0, 70))
                for _ in range(rng.randint(1, 15))
            ]
            pack, lens = batchdp.pack_lanes(codes)
            args = (a_codes, pack, lens, scheme.matrix.table)
            if scheme.is_linear:
                got = comp_p.best_cell_local(*args, scheme.gap_open, floor=floor)
                want = numpy_p.best_cell_local(*args, scheme.gap_open, floor=floor)
            else:
                got = comp_p.best_cell_local_affine(
                    *args, scheme.gap_open, scheme.gap_extend, floor=floor
                )
                want = numpy_p.best_cell_local_affine(
                    *args, scheme.gap_open, scheme.gap_extend, floor=floor
                )
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_score_global_parity(self, scheme):
        rng = random.Random(37)
        numpy_p = registry.get_batch_kernel("numpy")
        comp_p = registry.get_batch_kernel("compiled")
        for trial in range(6):
            a_codes = _codes(scheme, _rand_seq(rng, 0, 40))
            pack, lens = batchdp.pack_lanes(
                [_codes(scheme, _rand_seq(rng, 0, 60))
                 for _ in range(rng.randint(1, 11))]
            )
            args = (a_codes, pack, lens, scheme.matrix.table)
            if scheme.is_linear:
                got = comp_p.score_global(*args, scheme.gap_open)
                want = numpy_p.score_global(*args, scheme.gap_open)
            else:
                got = comp_p.score_global_affine(
                    *args, scheme.gap_open, scheme.gap_extend
                )
                want = numpy_p.score_global_affine(
                    *args, scheme.gap_open, scheme.gap_extend
                )
            np.testing.assert_array_equal(got, want)


def _three_way(scheme, a, targets, floor=None, table=None):
    """Run compiled batch, numpy batch and per-pair on one pack; return
    ``(compiled, numpy, per_pair)`` with per-pair as an ``(3, B)`` array."""
    table = scheme.matrix.table if table is None else table
    a_codes = _codes(scheme, a)
    codes = [_codes(scheme, t) for t in targets]
    pack, lens = batchdp.pack_lanes(codes)
    out = []
    for tier in ("compiled", "numpy"):
        p = registry.get_batch_kernel(tier)
        if scheme.is_linear:
            out.append(p.best_cell_local(a_codes, pack, lens, table,
                                         scheme.gap_open, floor=floor))
        else:
            out.append(p.best_cell_local_affine(a_codes, pack, lens, table,
                                                scheme.gap_open, scheme.gap_extend,
                                                floor=floor))
    kind = "linear" if scheme.is_linear else "affine"
    per_pair = registry.get_kernel(kind, "numpy").best_cell_local
    gaps = (scheme.gap_open,) if scheme.is_linear else (scheme.gap_open,
                                                          scheme.gap_extend)
    want = np.array([per_pair(a_codes, c, table, *gaps) for c in codes]).T
    return out[0], out[1], want.reshape(3, len(targets))


def _assert_exact(compiled, numpy_out, want):
    """Compiled == numpy word for word, and every live lane == per-pair.
    Returns the true per-pair scores of the retired lanes."""
    for g, w in zip(compiled, numpy_out):
        np.testing.assert_array_equal(g, w)  # word-identical, pruned mask too
    score, bi, bj, pruned = compiled
    live = ~pruned
    np.testing.assert_array_equal(score[live], want[0][live])
    np.testing.assert_array_equal(bi[live], want[1][live])
    np.testing.assert_array_equal(bj[live], want[2][live])
    return want[0][pruned]


@needs_compiled
class TestLaneInnerKernel:
    """The compiled best-local kernels sweep 16-lane blocks with the lane
    innermost; every block edge, retirement pattern and cell type must
    stay word-identical to numpy batchdp and per-pair."""

    @pytest.mark.parametrize("B", [1, 15, 16, 17, 33, 64])
    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_block_edges_ragged_and_empty_lanes(self, scheme, B):
        rng = random.Random(100 + B)
        for trial in range(3):
            a = _rand_seq(rng, 1, 70)
            targets = [_rand_seq(rng, 0, 90) if k % 5 else "" for k in range(B)]
            got, ref, want = _three_way(scheme, a, targets)
            assert not got[3].any()
            _assert_exact(got, ref, want)

    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_floor_retires_some_lanes(self, scheme):
        rng = random.Random(71)
        retired = 0
        for trial in range(6):
            a = _rand_seq(rng, 20, 60)
            targets = [_rand_seq(rng, 0, 80) for _ in range(rng.choice([17, 33]))]
            floor = rng.randint(15, 45)
            got, ref, want = _three_way(scheme, a, targets, floor=floor)
            below = _assert_exact(got, ref, want)
            assert (below < floor).all()  # a retired lane never reaches it
            retired += int(got[3].sum())
        assert retired > 0

    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_floor_retires_every_lane_mid_sweep(self, scheme):
        rng = random.Random(73)
        a = _rand_seq(rng, 40, 50)
        targets = [_rand_seq(rng, 0, 60) for _ in range(20)]
        _, _, want = _three_way(scheme, a, targets)
        # one match score above the best lane: by row M-1 at the latest no
        # lane's cap reaches the floor, so every lane (empty ones too)
        # retires, the short ones long before the last row
        floor = int(want[0].max()) + 6
        got, ref, want = _three_way(scheme, a, targets, floor=floor)
        assert got[3].all()
        _assert_exact(got, ref, want)
        assert (got[0] < want[0]).any()  # stopped short of its true best

    def test_tied_maxima_keep_first_row_major_cell(self):
        # the query's one ACGT scores 20 at two cells of each target
        targets = ["ACGTCCCCACGT", "GGGGACGTACGT", "ACGT", ""] * 5
        got, ref, want = _three_way(LIN, "ACGT", targets)
        _assert_exact(got, ref, want)
        assert got[0][:2].tolist() == [20, 20]
        assert got[2][:2].tolist() == [4, 8]  # the first of each tie

    @pytest.mark.parametrize("floor", [None, 40])
    def test_blosum62_affine(self, floor):
        from tests.conftest import random_protein

        scheme = ScoringScheme(blosum62(), affine_gap(-11, -1))
        rng = np.random.default_rng(79)
        a = random_protein(rng, 60)
        targets = [random_protein(rng, int(rng.integers(0, 90))) for _ in range(19)]
        targets[3] = a[10:50]  # one homolog well above the floor
        got, ref, want = _three_way(scheme, a, targets, floor=floor)
        _assert_exact(got, ref, want)
        assert not got[3][3]

    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_large_scores_take_the_int64_instance(self, scheme):
        from repro.kernels import compiled

        table = scheme.matrix.table * (1 << 26)
        rng = random.Random(83)
        a = _rand_seq(rng, 30, 40)
        targets = [_rand_seq(rng, 0, 50) for _ in range(18)]
        targets[0] = a
        assert compiled.batch_elem(len(a), 50, scheme.matrix.table,
                                   scheme.gap_open, scheme.gap_extend) == "int32"
        assert compiled.batch_elem(len(a), 50, table,
                                   scheme.gap_open, scheme.gap_extend) == "int64"
        got, ref, want = _three_way(scheme, a, targets, table=table)
        _assert_exact(got, ref, want)
        assert got[0][0] == 5 * len(a) * (1 << 26)  # beyond int32 range


class TestLaneOccupancy:
    def test_filled_over_swept_simd_lanes(self):
        assert batchdp.lane_occupancy(16) == 1.0
        assert batchdp.lane_occupancy(1) == 1 / 16
        assert batchdp.lane_occupancy(17) == 17 / 32
        assert batchdp.lane_occupancy(33) == 33 / 48
        assert batchdp.lane_occupancy(0) == 0.0


def _oracle_local(q, targets, scheme):
    """Per-target ``local_best_cell`` triples, cross-checked against
    brute-force Smith–Waterman scores."""
    from repro.baselines.smith_waterman import smith_waterman

    cells = [local_best_cell(q, t, scheme) for t in targets]
    for t, cell in zip(targets, cells):
        assert cell[0] == smith_waterman(q, t, scheme).score
    return cells


class TestSearchBatchDifferential:
    """Search tier 2 scores on the lane-packed kernels; its top-K must
    equal the per-target oracle exactly: scores, order and end cells."""

    def _corpus(self, rng, n=200):
        seqs = [_rand_seq(rng, 30, 200) for _ in range(n)]
        q = _rand_seq(rng, 90, 110)
        for _ in range(5):
            s = list(q)
            for _ in range(rng.randint(0, 10)):
                s[rng.randrange(len(s))] = rng.choice("ACGT")
            seqs.append("".join(s))
        return q, seqs

    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_topk_identical_to_per_pair(self, scheme):
        from repro.obs import runtime as obs

        rng = random.Random(43)
        q, seqs = self._corpus(rng)
        idx = CorpusIndex.build(seqs, "ACGT")
        with obs.instrumented() as inst:
            res = search(q, idx, scheme, top_k=20)
        cells = _oracle_local(q, seqs, scheme)
        want = sorted((-c[0], i) for i, c in enumerate(cells) if c[0] >= 1)[:20]
        assert [(h.corpus_index, h.score) for h in res.hits] == [
            (i, -negscore) for negscore, i in want
        ]
        for h in res.hits:
            assert (h.local.a_end, h.local.b_end) == cells[h.corpus_index][1:]
        assert res.stats.pruned + res.stats.scored == len(seqs)
        snap = inst.metrics.snapshot()
        # 30-200 bp targets split into ragged length buckets, some of
        # them smaller than one 16-lane block
        assert snap["search.batch.sweeps"] >= 2
        assert snap["search.batch.lane_occupancy"]["min"] < 1.0
        assert snap["search.batch.pad_waste"]["max"] > 0.0
        # the 20th-best score sits among many random candidates, so lanes
        # retire against the floor right at the boundary
        assert snap["search.batch.lanes_pruned"] > 0

    def test_lanes_validation(self):
        """The lane width is the constant ``BATCH_LANES``: the removed
        ``lanes=`` knob is rejected, never silently ignored."""
        rng = random.Random(47)
        q, seqs = self._corpus(rng, n=8)
        idx = CorpusIndex.build(seqs, "ACGT")
        with pytest.raises(TypeError, match="lanes"):
            search(q, idx, LIN, top_k=3, lanes=32)
        with pytest.raises(TypeError, match="lanes"):
            batch_align(q, seqs, LIN, mode="local", keep=0, lanes=32)


class TestBatchAlignDifferential:
    """``batch_align`` scores local and unbanded global on the lane
    kernels; ranks and alignments must equal the per-target oracle."""

    @pytest.mark.parametrize("mode", ["local", "global"])
    @pytest.mark.parametrize("scheme", [LIN, AFF], ids=["linear", "affine"])
    def test_hits_identical(self, mode, scheme):
        rng = random.Random(53)
        q = _rand_seq(rng, 80, 120)
        # 20-160 bp: ragged packs, split by length
        self._check(q, [_rand_seq(rng, 20, 160) for _ in range(25)], scheme, mode)
        # one pack smaller than a 16-lane block
        self._check(q, [_rand_seq(rng, 60, 110) for _ in range(5)], scheme, mode)

    def _check(self, q, targets, scheme, mode):
        from repro.core.fastlsa import fastlsa
        from repro.core.local import fastlsa_local

        hits = batch_align(q, targets, scheme, mode=mode, keep=3)
        if mode == "local":
            cells = _oracle_local(q, targets, scheme)
            scores = [c[0] for c in cells]
        else:
            scores = [align_score(q, t, scheme) for t in targets]
        order = sorted(range(len(targets)), key=lambda i: (-scores[i], i))
        assert [(h.rank, h.target.text, h.score) for h in hits] == [
            (r, targets[i], scores[i]) for r, i in enumerate(order, start=1)
        ]
        for h, i in zip(hits[:3], order):
            if mode == "local":
                want = fastlsa_local(q, targets[i], scheme, best_cell=cells[i])
                assert (h.a_range, h.b_range) == (
                    (want.a_start, want.a_end), (want.b_start, want.b_end)
                )
                assert (h.a_range[1], h.b_range[1]) == cells[i][1:]
                want = want.alignment
            else:
                want = fastlsa(q, targets[i], scheme)
            assert (h.alignment.gapped_a, h.alignment.gapped_b, h.alignment.score) == (
                want.gapped_a, want.gapped_b, want.score
            )


class TestObservability:
    def test_batch_sweep_metrics_exported(self):
        from repro.obs import runtime as obs

        rng = random.Random(59)
        q = _rand_seq(rng, 60, 80)
        targets = [_rand_seq(rng, 30, 90) for _ in range(20)]
        with obs.instrumented() as inst:
            batch_align(q, targets, LIN, mode="local", keep=0)
        snap = inst.metrics.snapshot()
        assert snap["batch.sweeps"] >= 1
        assert snap["batch.lane_occupancy"]["count"] >= 1
        # 20 targets fill at most two 16-lane blocks of a BATCH_LANES pack
        assert 1 / 16 <= snap["batch.lane_occupancy"]["max"] <= 1.0
        assert snap["batch.pad_waste"]["count"] >= 1
        assert 0.0 <= snap["batch.pad_waste"]["max"] < 1.0

    def test_search_batch_metrics_exported(self):
        from repro.obs import runtime as obs

        rng = random.Random(61)
        seqs = [_rand_seq(rng, 40, 120) for _ in range(30)]
        q = _rand_seq(rng, 60, 80)
        idx = CorpusIndex.build(seqs, "ACGT")
        with obs.instrumented() as inst:
            search(q, idx, LIN, top_k=5)
        snap = inst.metrics.snapshot()
        assert snap["search.batch.sweeps"] >= 1
        occ = snap["search.batch.lane_occupancy"]
        assert occ["count"] >= 1
        assert 1 / 16 <= occ["min"] <= occ["max"] <= 1.0
        assert snap["search.batch.pad_waste"]["count"] >= 1
        # the score span names the kernel variant the sweeps ran
        attrs = inst.tracer.find("search.score")[0].attrs
        if HAS_COMPILED:
            assert attrs["batch_elem"] == "int32"
            assert attrs["batch_isa"] in ("avx2", "default")
        else:
            assert (attrs["batch_elem"], attrs["batch_isa"]) == ("int64", "numpy")

    def test_threads_backend_scores_on_lanes(self):
        """The backend only drives the final alignments: tier 2 takes the
        lane route under ``threads`` too, and the span says so."""
        from repro.core.config import AlignConfig
        from repro.obs import runtime as obs

        rng = random.Random(67)
        seqs = [_rand_seq(rng, 40, 120) for _ in range(40)]
        q = _rand_seq(rng, 60, 80)
        seqs[7] = q[5:70]
        idx = CorpusIndex.build(seqs, "ACGT")
        cfg = AlignConfig(backend="threads", max_workers=2)
        with obs.instrumented() as inst:
            res = search(q, idx, AFF, top_k=4, config=cfg)
        attrs = inst.tracer.find("search.score")[0].attrs
        assert attrs["lanes"] == batchdp.BATCH_LANES
        assert "backend" not in attrs and attrs["batch_elem"]
        assert inst.metrics.snapshot()["search.batch.sweeps"] >= 1
        cells = _oracle_local(q, seqs, AFF)
        want = sorted((-c[0], i) for i, c in enumerate(cells) if c[0] >= 1)[:4]
        serial = search(q, idx, AFF, top_k=4)
        assert [(h.corpus_index, h.score) for h in res.hits] == [
            (i, -negscore) for negscore, i in want
        ]
        assert [(h.corpus_index, h.local.alignment.gapped_a,
                 h.local.alignment.gapped_b) for h in res.hits] == [
            (h.corpus_index, h.local.alignment.gapped_a,
             h.local.alignment.gapped_b) for h in serial.hits
        ]
