"""Differential correctness harness (the chaos layer's ground truth).

FastLSA is cross-checked against three independent references — the
full-matrix algorithm (Needleman–Wunsch), Hirschberg's linear-space
divide-and-conquer, and Myers–Miller's affine-gap variant — over a sweep
of ``k`` / base-case configurations, on seeded random and mutated-read
workloads.  Both the optimal **score** and the produced **path** are
verified: every alignment's gapped strings are independently re-scored
with :func:`repro.align.validate.score_alignment`, so a path that merely
claims the optimal score cannot pass.

If a fault-injection bug ever corrupted a computation, this is the suite
that defines "wrong answer".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.validate import check_alignment, score_alignment, score_gapped
from repro.baselines import hirschberg, myers_miller, needleman_wunsch
from repro.baselines import smith_waterman
from repro.core import AlignConfig, fastlsa, overlap_align, semiglobal_align
from repro.core.local import fastlsa_local
from repro.core.modes import EndsFree, ends_free_align
from repro.scoring import ScoringScheme, affine_gap, dna_simple, linear_gap
from repro.workloads import dna_pair, protein_pair
from repro.workloads.mutate import evolve

from .conftest import random_dna, random_protein

# The configuration sweep: quadratic-space extreme (huge base buffer →
# one base case, the full-matrix path inside FastLSA), a mid-size buffer,
# and tiny buffers that force deep recursion at several branching factors.
SWEEP = [
    AlignConfig(k=2, base_cells=1 << 20),
    AlignConfig(k=2, base_cells=256),
    AlignConfig(k=3, base_cells=1024),
    AlignConfig(k=8, base_cells=64),
]

#: Deep-recursion config vs the quadratic-space config, for mode tests.
DEEP = AlignConfig(k=3, base_cells=64)
WIDE = AlignConfig(k=2, base_cells=1 << 20)


def _assert_optimal(alignment, scheme, want_score):
    """Score AND path: the alignment must *earn* the optimal score."""
    assert alignment.score == want_score
    assert score_alignment(alignment, scheme) == want_score
    ok, msg = check_alignment(alignment, scheme)
    assert ok, msg


class TestLinearGapDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("config", SWEEP, ids=lambda c: f"k{c.k}b{c.base_cells}")
    def test_random_dna_vs_all_references(self, dna_scheme, seed, config):
        a, b = dna_pair(120, divergence=0.25, seed=seed)
        want = needleman_wunsch(a, b, dna_scheme).score
        assert hirschberg(a, b, dna_scheme, base_cells=128).score == want
        assert myers_miller(a, b, dna_scheme, base_cells=128).score == want
        _assert_optimal(fastlsa(a, b, dna_scheme, config=config), dna_scheme, want)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_uneven_lengths(self, dna_scheme, rng, seed):
        local = np.random.default_rng(seed)
        a = random_dna(local, int(local.integers(40, 180)))
        b = random_dna(local, int(local.integers(40, 180)))
        want = needleman_wunsch(a, b, dna_scheme).score
        for config in SWEEP:
            _assert_optimal(fastlsa(a, b, dna_scheme, config=config), dna_scheme, want)

    def test_protein_blosum(self, protein_scheme, rng):
        a = random_protein(rng, 90)
        b = random_protein(rng, 110)
        want = needleman_wunsch(a, b, protein_scheme).score
        assert hirschberg(a, b, protein_scheme, base_cells=64).score == want
        for config in SWEEP:
            _assert_optimal(
                fastlsa(a, b, protein_scheme, config=config), protein_scheme, want
            )


class TestMutatedReadDifferential:
    """Workloads shaped like the service's traffic: ancestor + descendant."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_evolved_dna(self, dna_scheme, seed):
        local = np.random.default_rng(seed)
        ancestor = random_dna(local, 150)
        descendant = evolve(ancestor, sub_rate=0.15, indel_rate=0.08, rng=local)
        want = needleman_wunsch(ancestor, descendant, dna_scheme).score
        assert hirschberg(ancestor, descendant, dna_scheme, base_cells=256).score == want
        for config in SWEEP:
            _assert_optimal(
                fastlsa(ancestor, descendant, dna_scheme, config=config),
                dna_scheme, want,
            )

    def test_evolved_protein_affine(self, affine_scheme):
        local = np.random.default_rng(7)
        ancestor = random_protein(local, 100)
        descendant = evolve(ancestor, sub_rate=0.2, indel_rate=0.06, rng=local)
        want = myers_miller(ancestor, descendant, affine_scheme, base_cells=128).score
        for config in SWEEP:
            _assert_optimal(
                fastlsa(ancestor, descendant, affine_scheme, config=config),
                affine_scheme, want,
            )


class TestAffineDifferential:
    @pytest.mark.parametrize("seed", [5, 6, 7])
    @pytest.mark.parametrize("config", SWEEP, ids=lambda c: f"k{c.k}b{c.base_cells}")
    def test_affine_dna_vs_myers_miller(self, affine_dna_scheme, seed, config):
        a, b = dna_pair(100, divergence=0.3, seed=seed)
        want = myers_miller(a, b, affine_dna_scheme, base_cells=128).score
        _assert_optimal(
            fastlsa(a, b, affine_dna_scheme, config=config), affine_dna_scheme, want
        )

    def test_affine_gap_runs(self, affine_dna_scheme):
        # Long indels: the workload affine gaps exist for; path join bugs
        # between recursion blocks show up here first.
        a = "ACGTACGTACGTACGTACGTACGTACGT"
        b = "ACGTACGTACGT" + "ACGTACGTACGTACGT"[:4]
        want = myers_miller(a, b, affine_dna_scheme, base_cells=64).score
        for config in SWEEP:
            _assert_optimal(
                fastlsa(a, b, affine_dna_scheme, config=config),
                affine_dna_scheme, want,
            )


class TestEndsFreeDifferential:
    """No external baseline exists for the ends-free modes, so the
    quadratic-space configuration (one base case — the full-matrix path
    inside FastLSA) serves as the reference for deep-recursion configs."""

    @pytest.mark.parametrize("seed", [8, 9])
    def test_semiglobal_config_invariance(self, dna_scheme, seed):
        local = np.random.default_rng(seed)
        read = random_dna(local, 60)
        genome = random_dna(local, 40) + read + random_dna(local, 40)
        ref = semiglobal_align(read, genome, dna_scheme, config=WIDE)
        deep = semiglobal_align(read, genome, dna_scheme, config=DEEP)
        assert deep.score == ref.score
        # Free end gaps cost zero, so the matched core must earn the score.
        assert score_gapped(
            deep.alignment.gapped_a, deep.alignment.gapped_b, dna_scheme
        ) == deep.score

    @pytest.mark.parametrize("seed", [12, 13])
    def test_overlap_config_invariance(self, dna_scheme, seed):
        local = np.random.default_rng(seed)
        left = random_dna(local, 80)
        overlap = random_dna(local, 40)
        right = random_dna(local, 80)
        a, b = left + overlap, overlap + right
        ref = overlap_align(a, b, dna_scheme, config=WIDE)
        deep = overlap_align(a, b, dna_scheme, config=DEEP)
        assert deep.score == ref.score
        assert score_gapped(
            deep.alignment.gapped_a, deep.alignment.gapped_b, dna_scheme
        ) == deep.score

    def test_semiglobal_affine_config_invariance(self, affine_dna_scheme):
        local = np.random.default_rng(99)
        read = random_dna(local, 50)
        genome = random_dna(local, 30) + read + random_dna(local, 30)
        ref = semiglobal_align(read, genome, affine_dna_scheme, config=WIDE)
        deep = semiglobal_align(read, genome, affine_dna_scheme, config=DEEP)
        assert deep.score == ref.score


NEG = float("-inf")


def _gotoh_full(a, b, scheme, row0, col0):
    """Pure-Python full-matrix Gotoh ``H`` (a linear gap is ``open ==
    extend``) from the given row-0 / column-0 ``H`` boundaries; ``E`` on
    column 0 and ``F`` on row 0 are impossible."""
    enc_a, enc_b = scheme.encode(a), scheme.encode(b)
    table = scheme.matrix.table
    open_ = scheme.gap_open
    ext = scheme.gap_open if scheme.is_linear else scheme.gap_extend
    m, n = len(a), len(b)
    H = [list(row0)] + [[col0[i]] + [NEG] * n for i in range(1, m + 1)]
    F_prev = [NEG] * (n + 1)
    for i in range(1, m + 1):
        F_cur = [NEG] * (n + 1)
        e = NEG
        for j in range(1, n + 1):
            e = max(H[i][j - 1] + open_, e + ext)
            F_cur[j] = max(H[i - 1][j] + open_, F_prev[j] + ext)
            diag = H[i - 1][j - 1] + int(table[enc_a[i - 1], enc_b[j - 1]])
            H[i][j] = max(diag, e, F_cur[j])
        F_prev = F_cur
    return H


def _leading_gaps(scheme, n):
    ext = scheme.gap_open if scheme.is_linear else scheme.gap_extend
    return [0] + [scheme.gap_open + (j - 1) * ext for j in range(1, n + 1)]


def _ends_free_oracle(a, b, scheme, free):
    """Best ends-free score and end cell from the full matrix, candidates
    in the documented order: last column top-down, the corner, last row
    left to right; strict ``>`` keeps the first of equal scores."""
    m, n = len(a), len(b)
    row0 = [0] * (n + 1) if free.b_start else _leading_gaps(scheme, n)
    col0 = [0] * (m + 1) if free.a_start else _leading_gaps(scheme, m)
    H = _gotoh_full(a, b, scheme, row0, col0)
    cands = [(i, n) for i in range(m + 1)] if free.a_end else []
    cands.append((m, n))
    cands += [(m, j) for j in range(n + 1)] if free.b_end else []
    best = None
    for i, j in cands:
        if best is None or H[i][j] > best[0]:
            best = (H[i][j], i, j)
    return best


#: Low-contrast schemes over a two-letter alphabet: equal-scoring cells
#: are common, so the tie-breaking order is exercised, not just the score.
TIE_SCHEMES = {
    "ties_linear": ScoringScheme(dna_simple(1, -1), linear_gap(-1)),
    "ties_affine": ScoringScheme(dna_simple(1, -1), affine_gap(-2, -1)),
}
SCHEME_NAMES = ["dna_scheme", "affine_dna_scheme", *TIE_SCHEMES]


def _scheme_and_alphabet(request, name):
    if name in TIE_SCHEMES:
        return TIE_SCHEMES[name], "AC"
    return request.getfixturevalue(name), "ACGT"


def _text(rng, n, alphabet):
    return "".join(rng.choice(list(alphabet), n))


ALL_FREE = [
    EndsFree(a_start=bits[0], a_end=bits[1], b_start=bits[2], b_end=bits[3])
    for bits in np.ndindex(2, 2, 2, 2)
]


class TestEndsFreeFullMatrix:
    """Every free-flag combination against a pure-Python full-matrix DP,
    on whichever kernel tier is active: score, end cell, a legal start
    and a core that earns the score."""

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("free", ALL_FREE, ids=lambda f: "".join(
        "1" if x else "0" for x in (f.a_start, f.a_end, f.b_start, f.b_end)))
    def test_all_flag_combinations(self, request, scheme_name, free):
        scheme, alphabet = _scheme_and_alphabet(request, scheme_name)
        local = np.random.default_rng([ALL_FREE.index(free), SCHEME_NAMES.index(scheme_name)])
        for m, n in ((0, 7), (9, 0), (23, 31), (37, 18), (30, 30)):
            a = _text(local, m, alphabet)
            # b shares a stretch of a, so the best core is not trivial.
            b = (_text(local, 3, alphabet) + a[m // 4:] + _text(local, n, alphabet))[:n]
            for config in (None, DEEP):
                ef = ends_free_align(a, b, scheme, free, config=config)
                best, ei, ej = _ends_free_oracle(a, b, scheme, free)
                assert (ef.score, ef.a_end, ef.b_end) == (best, ei, ej)
                si, sj = ef.a_start, ef.b_start
                assert si == 0 or (free.a_start and sj == 0)
                assert sj == 0 or (free.b_start and si == 0)
                core = ef.alignment
                assert (core.seq_a.text, core.seq_b.text) == (a[si:ei], b[sj:ej])
                assert score_alignment(core, scheme) == best
                ok, msg = check_alignment(core, scheme)
                assert ok, msg


class TestLocalStartCell:
    """``fastlsa_local`` against the full-matrix Smith–Waterman oracle: the
    same score and end cell, and the start cell the reversed global sweep
    defines — the first row-major maximum of the full global DP over the
    reversed prefixes — bracketing a core that earns the score."""

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("seed", [31, 32, 33, 34])
    def test_start_cell_matches_oracle(self, request, scheme_name, seed):
        scheme, alphabet = _scheme_and_alphabet(request, scheme_name)
        local = np.random.default_rng(seed)
        motif = _text(local, 30, alphabet)
        a = _text(local, 15, alphabet) + motif + _text(local, 20, alphabet)
        homolog = evolve(motif, sub_rate=0.1, indel_rate=0.05, rng=local,
                         alphabet=alphabet).text
        b = _text(local, 25, alphabet) + homolog + _text(local, 10, alphabet)
        sw = smith_waterman(a, b, scheme)
        for config in (None, DEEP):
            loc = fastlsa_local(a, b, scheme, config=config)
            assert (loc.score, loc.a_end, loc.b_end) == (sw.score, sw.a_end, sw.b_end)
            bi, bj = loc.a_end, loc.b_end
            G = _gotoh_full(a[:bi][::-1], b[:bj][::-1], scheme,
                            _leading_gaps(scheme, bj), _leading_gaps(scheme, bi))
            flat = [(G[i][j], -i, -j) for i in range(bi + 1) for j in range(bj + 1)]
            top = max(v for v, _, _ in flat)
            _, ri, rj = max(t for t in flat if t[0] == top)
            assert top == sw.score
            assert (loc.a_start, loc.b_start) == (bi + ri, bj + rj)
            assert score_alignment(loc.alignment, scheme) == sw.score


@pytest.mark.slow
class TestDifferentialSweepSlow:
    """The wide sweep: more seeds x longer sequences (CI chaos job only)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_long_pairs_all_configs(self, dna_scheme, seed):
        a, b = dna_pair(300, divergence=0.2, seed=100 + seed)
        want = needleman_wunsch(a, b, dna_scheme).score
        assert hirschberg(a, b, dna_scheme, base_cells=512).score == want
        assert myers_miller(a, b, dna_scheme, base_cells=512).score == want
        for config in SWEEP:
            _assert_optimal(fastlsa(a, b, dna_scheme, config=config), dna_scheme, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_affine_pairs(self, affine_dna_scheme, seed):
        a, b = protein_pair(200, divergence=0.25, seed=seed)
        scheme = affine_dna_scheme
        # protein_pair emits protein text; use a protein affine scheme.
        from repro.scoring import ScoringScheme, affine_gap, blosum62

        scheme = ScoringScheme(blosum62(), affine_gap(-11, -2))
        want = myers_miller(a, b, scheme, base_cells=256).score
        for config in SWEEP:
            _assert_optimal(fastlsa(a, b, scheme, config=config), scheme, want)
