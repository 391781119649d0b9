"""Tests for repro.align.path."""

import numpy as np
import pytest

from repro.align import AlignmentPath, Layer, Move, PathBuilder, alignment_from_path, moves_of
from repro.errors import AlignmentError, PathError


class TestPathBuilder:
    def test_build_backwards(self):
        b = PathBuilder((2, 2))
        b.append((1, 1))
        b.append((0, 1))
        b.append((0, 0))
        path = b.finalize()
        assert path.points == ((0, 0), (0, 1), (1, 1), (2, 2))

    def test_head(self):
        b = PathBuilder((3, 3))
        assert b.head == (3, 3)
        b.append((2, 3))
        assert b.head == (2, 3)

    def test_illegal_step_rejected(self):
        b = PathBuilder((2, 2))
        with pytest.raises(PathError):
            b.append((0, 0))  # jump of 2

    def test_forward_step_rejected(self):
        b = PathBuilder((2, 2))
        with pytest.raises(PathError):
            b.append((3, 2))

    def test_default_layer(self):
        assert PathBuilder((1, 1)).layer is Layer.H

    def test_layer_mutable(self):
        b = PathBuilder((1, 1), Layer.F)
        assert b.layer is Layer.F
        b.layer = Layer.E
        assert b.layer is Layer.E

    def test_extend(self):
        b = PathBuilder((2, 0))
        b.extend([(1, 0), (0, 0)])
        assert len(b) == 3


class TestAlignmentPath:
    def test_single_point(self):
        p = AlignmentPath([(0, 0)])
        assert p.start == p.end == (0, 0)
        assert p.moves() == []

    def test_moves(self):
        p = AlignmentPath([(0, 0), (1, 1), (2, 1), (2, 2)])
        assert p.moves() == [Move.DIAG, Move.DOWN, Move.RIGHT]

    def test_is_complete(self):
        p = AlignmentPath([(0, 0), (1, 1)])
        assert p.is_complete(1, 1)
        assert not p.is_complete(2, 2)

    def test_empty_rejected(self):
        with pytest.raises(PathError):
            AlignmentPath([])

    def test_illegal_step_rejected(self):
        with pytest.raises(PathError):
            AlignmentPath([(0, 0), (2, 2)])

    def test_backward_step_rejected(self):
        with pytest.raises(PathError):
            AlignmentPath([(1, 1), (0, 0)])

    def test_equality_and_hash(self):
        p1 = AlignmentPath([(0, 0), (1, 1)])
        p2 = AlignmentPath([(0, 0), (1, 1)])
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_indexing(self):
        p = AlignmentPath([(0, 0), (0, 1), (1, 2)])
        assert p[1] == (0, 1)
        assert len(p) == 3

    def test_points_coerced_to_int(self):
        p = AlignmentPath([(np.int64(0), np.int64(0)), (np.int64(1), np.int64(0))])
        assert isinstance(p.points[0][0], int)


class TestMovesOf:
    def test_roundtrip(self):
        pts = [(0, 0), (1, 1), (1, 2), (2, 2)]
        assert moves_of(pts) == [Move.DIAG, Move.RIGHT, Move.DOWN]

    def test_illegal(self):
        with pytest.raises(PathError):
            moves_of([(0, 0), (0, 2)])

    @pytest.mark.parametrize("bad", [(0, 0), (2, 1), (-1, 0), (1, -1), (0, 2)])
    def test_every_illegal_step_names_the_first_one(self, bad):
        pts = [(0, 0), (1, 1), (1 + bad[0], 1 + bad[1]), (5, 5)]
        with pytest.raises(PathError, match=rf"illegal step \({bad[0]}, {bad[1]}\) between "
                           rf"\(1, 1\) and \({1 + bad[0]}, {1 + bad[1]}\)"):
            moves_of(pts)
        with pytest.raises(PathError, match=r"illegal path step from \(1, 1\)"):
            AlignmentPath(pts)

    def test_degenerate_inputs(self):
        assert moves_of([]) == []
        assert moves_of([(3, 4)]) == []
        assert moves_of(np.array([[0, 0], [1, 1], [1, 2]])) == [Move.DIAG, Move.RIGHT]
        with pytest.raises(PathError):
            moves_of([(0, 0, 0), (1, 1, 1)])

    def test_path_moves_and_array_agree(self):
        pts = [(0, 0), (1, 0), (1, 1), (2, 2), (2, 3)]
        p = AlignmentPath(pts)
        assert p.moves() == moves_of(pts) == [
            Move.DOWN, Move.RIGHT, Move.DIAG, Move.RIGHT,
        ]
        assert p.array.tolist() == [list(q) for q in pts]
        assert not p.array.flags.writeable


class TestAlignmentFromPath:
    def test_gapped_strings(self):
        p = AlignmentPath([(0, 0), (1, 0), (1, 1), (2, 2), (2, 3)])
        al = alignment_from_path("AC", "GTA", p, 0)
        assert (al.gapped_a, al.gapped_b) == ("A-C-", "-GTA")

    def test_non_ascii_alphabet(self):
        p = AlignmentPath([(0, 0), (1, 1), (1, 2), (2, 3)])
        al = alignment_from_path("\u00e9\u03b1", "\u00e9x\u03b2", p, 0)
        assert (al.gapped_a, al.gapped_b) == ("\u00e9-\u03b1", "\u00e9x\u03b2")

    @pytest.mark.parametrize("pts", [
        [(0, 0), (1, 1)],              # stops short of (2, 2)
        [(1, 1), (2, 2)],              # does not start at the origin
        [(0, 0), (1, 1), (2, 2), (2, 3)],  # runs past the last column
    ])
    def test_incomplete_path_rejected(self, pts):
        with pytest.raises(AlignmentError, match="path spans"):
            alignment_from_path("AC", "AC", AlignmentPath(pts), 0)
