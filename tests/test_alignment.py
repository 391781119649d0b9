"""Tests for repro.align.alignment."""

import pytest

from repro.align import Alignment, AlignmentPath, AlignmentStats, Sequence, alignment_from_path
from repro.errors import AlignmentError


def make_alignment():
    return Alignment(
        seq_a=Sequence("ACG", name="a"),
        seq_b=Sequence("AG", name="b"),
        gapped_a="ACG",
        gapped_b="A-G",
        score=6,
    )


class TestAlignment:
    def test_basic(self):
        al = make_alignment()
        assert len(al) == 3
        assert al.num_matches == 2
        assert al.num_mismatches == 0
        assert al.num_gap_columns == 1
        assert al.identity == pytest.approx(2 / 3)

    def test_columns(self):
        al = make_alignment()
        assert list(al.columns()) == [("A", "A"), ("C", "-"), ("G", "G")]

    def test_length_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            Alignment(
                seq_a=Sequence("A", name="a"),
                seq_b=Sequence("A", name="b"),
                gapped_a="A-",
                gapped_b="A",
                score=0,
            )

    def test_spelling_checked(self):
        with pytest.raises(AlignmentError):
            Alignment(
                seq_a=Sequence("AC", name="a"),
                seq_b=Sequence("AC", name="b"),
                gapped_a="AG",
                gapped_b="AC",
                score=0,
            )

    @pytest.mark.parametrize("ga,gb,ok", [
        ("A-C-", "-GTA", True),    # gaps in both strings, never the same column
        ("AC--", "A--T", False),   # the gap-gap column is not the first
        ("\u00e9-", "\u00e9-", False),
    ])
    def test_gap_gap_column_anywhere(self, ga, gb, ok):
        def build():
            return Alignment(
                seq_a=Sequence(ga.replace("-", ""), name="a"),
                seq_b=Sequence(gb.replace("-", ""), name="b"),
                gapped_a=ga,
                gapped_b=gb,
                score=0,
            )
        if ok:
            assert len(build()) == len(ga)
        else:
            with pytest.raises(AlignmentError, match="aligns a gap with a gap"):
                build()

    def test_gap_gap_column_rejected(self):
        with pytest.raises(AlignmentError):
            Alignment(
                seq_a=Sequence("A", name="a"),
                seq_b=Sequence("A", name="b"),
                gapped_a="-A",
                gapped_b="-A",
                score=0,
            )

    def test_mismatch_counting(self):
        al = Alignment(
            seq_a=Sequence("AC", name="a"),
            seq_b=Sequence("AG", name="b"),
            gapped_a="AC",
            gapped_b="AG",
            score=1,
        )
        assert al.num_mismatches == 1
        assert al.num_matches == 1


class TestStats:
    def test_defaults(self):
        s = AlignmentStats()
        assert s.cells_computed == 0 and s.wall_time == 0.0

    def test_merge(self):
        s1 = AlignmentStats(cells_computed=10, peak_cells_resident=5, recursion_depth=2)
        s2 = AlignmentStats(cells_computed=7, peak_cells_resident=9, recursion_depth=1,
                            subproblems=3, wall_time=0.5)
        s1.merge(s2)
        assert s1.cells_computed == 17
        assert s1.peak_cells_resident == 9
        assert s1.recursion_depth == 2
        assert s1.subproblems == 3


class TestFromPath:
    def test_all_move_kinds(self):
        path = AlignmentPath([(0, 0), (1, 1), (2, 1), (2, 2)])
        al = alignment_from_path("AC", "GT", path, score=0)
        assert al.gapped_a == "AC-"
        assert al.gapped_b == "G-T"

    def test_incomplete_path_rejected(self):
        path = AlignmentPath([(0, 0), (1, 1)])
        with pytest.raises(AlignmentError):
            alignment_from_path("AC", "GT", path, score=0)

    def test_empty_sequences(self):
        al = alignment_from_path("", "", AlignmentPath([(0, 0)]), score=0)
        assert len(al) == 0
        assert al.identity == 1.0

    def test_all_gaps_one_side(self):
        path = AlignmentPath([(0, 0), (0, 1), (0, 2)])
        al = alignment_from_path("", "GT", path, score=-12)
        assert al.gapped_a == "--"
        assert al.gapped_b == "GT"
