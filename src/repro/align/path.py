"""Dynamic-programming paths through the logical DPM.

A *path* is the object FastLSA threads through its recursion: an ordered
sequence of DPM entries ``(i, j)`` with ``0 <= i <= m`` and ``0 <= j <= n``,
each consecutive pair differing by exactly one DP move.  Paths are built
**backwards** (bottom-right towards top-left, the direction FindPath works
in) and finalised into forward order for consumption.

For affine gap models the head of a partial path additionally carries the
Gotoh *layer* it is currently in (``H`` main, ``E`` horizontal-gap, ``F``
vertical-gap) so that a traceback interrupted at a sub-problem boundary can
resume mid-gap.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Iterator, List, Optional, Sequence as Seq, Tuple

import numpy as np

from ..errors import PathError

__all__ = ["Layer", "Move", "PathBuilder", "AlignmentPath", "moves_of"]

Point = Tuple[int, int]


class Layer(IntEnum):
    """Gotoh DP layer of a path head.

    ``H`` is the main (match/mismatch) layer; ``E`` is the horizontal-gap
    layer (a gap run in the *row* sequence, consuming column symbols); ``F``
    is the vertical-gap layer.  Linear-gap paths always live in ``H``.
    """

    H = 0
    E = 1
    F = 2


class Move(IntEnum):
    """A single DP step, read in forward (top-left → bottom-right) order."""

    DIAG = 0   # consume one symbol of each sequence (match/mismatch)
    DOWN = 1   # consume a row symbol, gap in the column sequence
    RIGHT = 2  # consume a column symbol, gap in the row sequence


class PathBuilder:
    """Mutable backwards path under construction.

    Points are added in traceback order (decreasing ``i + j``); the *head*
    is the most recently added point.  :meth:`extend` takes a whole
    ``(L, 2)`` array of points (a traceback's output) and :meth:`append`
    one point; both check every step.  ``finalize()`` produces an
    immutable forward-ordered :class:`AlignmentPath`.
    """

    __slots__ = ("_chunks", "_tail", "_head", "_len", "layer")

    def __init__(self, start: Point, layer: Layer = Layer.H) -> None:
        i, j = start
        self._head: Point = (int(i), int(j))
        # The path in traceback order: whole arrays, then the points
        # appended one at a time since the last extend().
        self._chunks: List[np.ndarray] = []
        self._tail: List[Point] = [self._head]
        self._len = 1
        self.layer = layer

    @property
    def head(self) -> Point:
        """The current (up-left-most) endpoint."""
        return self._head

    def __len__(self) -> int:
        return self._len

    def append(self, point: Point) -> None:
        """Extend the path one DP move up/left from the current head."""
        i, j = point
        hi, hj = self._head
        di, dj = hi - i, hj - j
        if (di, dj) not in ((1, 1), (1, 0), (0, 1)):
            raise PathError(
                f"illegal path step from {self._head} to {point}: "
                f"must move up, left, or diagonally by one"
            )
        self._head = (int(i), int(j))
        self._tail.append(self._head)
        self._len += 1

    def extend(self, points) -> None:
        """Add several points in traceback order: an ``(L, 2)`` array (or
        a sequence of ``(i, j)`` pairs), every step checked."""
        arr = _point_array(points)
        if not len(arr):
            return
        steps = np.empty_like(arr)
        steps[0] = self._head
        steps[1:] = arr[:-1]
        steps -= arr
        bad = _first_illegal(steps)
        if bad >= 0:
            prev = self._head if bad == 0 else tuple(arr[bad - 1].tolist())
            raise PathError(
                f"illegal path step from {prev} to {tuple(arr[bad].tolist())}: "
                f"must move up, left, or diagonally by one"
            )
        if self._tail:
            self._chunks.append(_point_array(self._tail))
            self._tail = []
        self._chunks.append(arr)
        last = arr[-1].tolist()
        self._head = (last[0], last[1])
        self._len += len(arr)

    def extend_to_origin(self) -> None:
        """Close the path along the DPM boundary: up column ``j`` to row 0,
        then left along row 0 to ``(0, 0)``."""
        i, j = self._head
        run = np.empty((i + j, 2), dtype=np.int64)
        run[:i, 0] = np.arange(i - 1, -1, -1)
        run[:i, 1] = j
        run[i:, 0] = 0
        run[i:, 1] = np.arange(j - 1, -1, -1)
        self.extend(run)

    def finalize(self) -> "AlignmentPath":
        """Freeze into a forward-ordered immutable path."""
        arr = np.concatenate(self._chunks + [_point_array(self._tail)])
        return AlignmentPath(arr[::-1])


class AlignmentPath:
    """An immutable forward-ordered DP path.

    The first point is the path origin (``(0, 0)`` for a complete global
    alignment), the last point the terminus (``(m, n)``).  The path is
    held as one ``(L, 2)`` int64 array; the tuple form :attr:`points` is
    built on first use.
    """

    __slots__ = ("_points", "_array")

    def __init__(self, points) -> None:
        arr = _point_array(points)
        if not len(arr):
            raise PathError("a path must contain at least one point")
        bad = _first_illegal(np.diff(arr, axis=0))
        if bad >= 0:
            raise PathError(
                f"illegal path step from {tuple(arr[bad].tolist())} "
                f"to {tuple(arr[bad + 1].tolist())}"
            )
        arr.flags.writeable = False
        self._array = arr
        self._points: Optional[Tuple[Point, ...]] = None

    @property
    def points(self) -> Tuple[Point, ...]:
        """The path points in forward order."""
        if self._points is None:
            arr = self._array
            self._points = tuple(zip(arr[:, 0].tolist(), arr[:, 1].tolist()))
        return self._points

    @property
    def array(self) -> np.ndarray:
        """The points as a read-only ``(len, 2)`` int64 array."""
        return self._array

    @property
    def start(self) -> Point:
        """First (top-left-most) point."""
        i, j = self._array[0].tolist()
        return (i, j)

    @property
    def end(self) -> Point:
        """Last (bottom-right-most) point."""
        i, j = self._array[-1].tolist()
        return (i, j)

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, idx):
        return self.points[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, AlignmentPath) and np.array_equal(
            self._array, other._array
        )

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def moves(self) -> List[Move]:
        """Forward move list (length ``len(self) - 1``)."""
        return _moves(np.diff(self._array, axis=0))

    def is_complete(self, m: int, n: int) -> bool:
        """Whether the path spans the full ``(0,0) → (m,n)`` DPM."""
        return self.start == (0, 0) and self.end == (m, n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self) <= 6:
            return f"AlignmentPath({list(self.points)})"
        head = ", ".join(map(str, self.points[:3]))
        return f"AlignmentPath([{head}, ..., {self.end}], len={len(self)})"


def _point_array(points) -> np.ndarray:
    """Points (an ``(L, 2)`` array or a sequence of pairs) as a new
    ``(L, 2)`` int64 array (``L`` may be 0)."""
    if isinstance(points, np.ndarray):
        arr = np.array(points, dtype=np.int64)
        if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
            raise PathError("path points must be (i, j) pairs")
        return arr.reshape(-1, 2)
    flat = np.fromiter(itertools.chain.from_iterable(points), dtype=np.int64)
    if flat.size != 2 * len(points):
        raise PathError("path points must be (i, j) pairs")
    return flat.reshape(-1, 2)


def _first_illegal(steps: np.ndarray) -> int:
    """Index of the first ``(di, dj)`` row that is not a DP move, else -1."""
    # Fast accept: as unsigned words every component is 0 or 1 (negative
    # ones wrap to huge values) and no row is (0, 0).
    u = np.asarray(steps, dtype=np.int64).view(np.uint64)
    if not len(u) or (u.max() <= 1 and (u[:, 0] | u[:, 1]).min() > 0):
        return -1
    legal = ((steps == 0) | (steps == 1)).all(axis=1) & steps.any(axis=1)
    return int(np.argmin(legal))


_MOVES = (Move.DIAG, Move.DOWN, Move.RIGHT)


def _moves(steps: np.ndarray) -> List[Move]:
    # (1, 1) -> DIAG, (1, 0) -> DOWN, (0, 1) -> RIGHT
    codes = (1 - steps[:, 1]) + 2 * (1 - steps[:, 0])
    return list(map(_MOVES.__getitem__, codes.tolist()))


def moves_of(points: Seq[Point]) -> List[Move]:
    """Convert consecutive forward-ordered points into :class:`Move` steps."""
    arr = _point_array(points)
    steps = np.diff(arr, axis=0)
    bad = _first_illegal(steps)
    if bad >= 0:
        raise PathError(
            f"illegal step {tuple(steps[bad].tolist())} between "
            f"{tuple(arr[bad].tolist())} and {tuple(arr[bad + 1].tolist())}"
        )
    return _moves(steps)
