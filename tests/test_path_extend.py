"""Array-valued path building: ``PathBuilder.extend`` and the lazy
``AlignmentPath.points`` tuple."""

import numpy as np
import pytest

from repro.align import AlignmentPath, PathBuilder
from repro.errors import PathError


def _backwards_walk(rng, start, steps):
    """A random legal path of ``steps`` moves up/left from ``start``."""
    pts = []
    i, j = start
    moves = [(1, 1), (1, 0), (0, 1)]
    for _ in range(steps):
        di, dj = moves[int(rng.integers(3))]
        if i - di < 0 or j - dj < 0:
            break
        i, j = i - di, j - dj
        pts.append((i, j))
    return pts


class TestExtendArray:
    def test_mixed_append_and_extend_equals_point_by_point(self, rng):
        for _ in range(20):
            start = (30, 30)
            pts = _backwards_walk(rng, start, 40)
            ref = PathBuilder(start)
            for p in pts:
                ref.append(p)
            mixed = PathBuilder(start)
            cuts = sorted(int(c) for c in rng.integers(0, len(pts) + 1, 4))
            for k, (lo, hi) in enumerate(zip([0] + cuts, cuts + [len(pts)])):
                if k % 2:
                    for p in pts[lo:hi]:
                        mixed.append(p)
                else:
                    mixed.extend(np.array(pts[lo:hi], dtype=np.int64).reshape(-1, 2))
            assert len(mixed) == len(ref) == len(pts) + 1
            assert mixed.head == ref.head
            assert mixed.finalize() == ref.finalize()
            assert mixed.finalize().points == ref.finalize().points

    def test_illegal_first_step_rejected(self):
        b = PathBuilder((3, 3))
        with pytest.raises(PathError, match=r"illegal path step from \(3, 3\) to \(1, 2\)"):
            b.extend(np.array([[1, 2], [0, 1]]))
        assert b.head == (3, 3) and len(b) == 1  # nothing was added

    def test_illegal_interior_step_rejected(self):
        b = PathBuilder((3, 3))
        with pytest.raises(PathError, match=r"illegal path step from \(2, 2\) to \(2, 3\)"):
            b.extend(np.array([[2, 2], [2, 3], [1, 2]]))
        assert b.head == (3, 3)

    def test_malformed_points_rejected(self):
        with pytest.raises(PathError, match=r"\(i, j\) pairs"):
            PathBuilder((3, 3)).extend(np.array([[2, 2, 2], [1, 1, 1]]))

    def test_empty_extend_is_a_no_op(self):
        b = PathBuilder((1, 1))
        b.extend(np.empty((0, 2), dtype=np.int64))
        b.extend([])
        assert len(b) == 1 and b.finalize().points == ((1, 1),)

    def test_extend_copies_its_input(self):
        pts = np.array([[1, 1], [0, 1]])
        b = PathBuilder((2, 2))
        b.extend(pts)
        pts[:] = 0
        assert b.finalize().points == ((0, 1), (1, 1), (2, 2))

    @pytest.mark.parametrize("head", [(0, 0), (3, 0), (0, 4), (2, 5)])
    def test_extend_to_origin(self, head):
        b = PathBuilder(head)
        b.extend_to_origin()
        ref = PathBuilder(head)
        i, j = head
        while i > 0:
            i -= 1
            ref.append((i, j))
        while j > 0:
            j -= 1
            ref.append((i, j))
        assert b.head == (0, 0)
        assert b.finalize() == ref.finalize()


class TestAlignmentPathFromArray:
    def test_array_and_sequence_inputs_agree(self):
        pts = [(0, 0), (1, 1), (1, 2), (2, 2)]
        p = AlignmentPath(np.array(pts))
        assert p == AlignmentPath(pts) and hash(p) == hash(AlignmentPath(pts))
        assert p.points == tuple(pts)
        assert (p.start, p.end, len(p)) == ((0, 0), (2, 2), 4)
        assert isinstance(p.start[0], int) and isinstance(p.end[1], int)
        assert p.is_complete(2, 2)

    def test_array_input_is_copied_and_checked(self):
        arr = np.array([[0, 0], [1, 1]])
        p = AlignmentPath(arr)
        arr[1] = (5, 5)
        assert p.end == (1, 1)
        with pytest.raises(PathError, match="illegal path step"):
            AlignmentPath(np.array([[0, 0], [2, 2]]))
        with pytest.raises(PathError, match=r"\(i, j\) pairs"):
            AlignmentPath(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(PathError, match="at least one point"):
            AlignmentPath(np.empty((0, 2), dtype=np.int64))
