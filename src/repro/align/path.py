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
from typing import Iterable, Iterator, List, Sequence as Seq, Tuple

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

    Points are appended in traceback order (decreasing ``i + j``); the
    *head* is the most recently appended point.  ``finalize()`` produces an
    immutable forward-ordered :class:`AlignmentPath`.
    """

    __slots__ = ("_points", "layer")

    def __init__(self, start: Point, layer: Layer = Layer.H) -> None:
        self._points: List[Point] = [tuple(start)]
        self.layer = layer

    @property
    def head(self) -> Point:
        """The current (up-left-most) endpoint."""
        return self._points[-1]

    def __len__(self) -> int:
        return len(self._points)

    def append(self, point: Point) -> None:
        """Extend the path one DP move up/left from the current head."""
        i, j = point
        hi, hj = self._points[-1]
        di, dj = hi - i, hj - j
        if (di, dj) not in ((1, 1), (1, 0), (0, 1)):
            raise PathError(
                f"illegal path step from {self._points[-1]} to {point}: "
                f"must move up, left, or diagonally by one"
            )
        self._points.append((i, j))

    def extend(self, points: Iterable[Point]) -> None:
        """Append several points in traceback order."""
        for p in points:
            self.append(p)

    def finalize(self) -> "AlignmentPath":
        """Freeze into a forward-ordered immutable path."""
        return AlignmentPath(tuple(reversed(self._points)))


class AlignmentPath:
    """An immutable forward-ordered DP path.

    The first point is the path origin (``(0, 0)`` for a complete global
    alignment), the last point the terminus (``(m, n)``).
    """

    __slots__ = ("_points", "_array")

    def __init__(self, points: Seq[Point]) -> None:
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
        self._points = tuple(zip(arr[:, 0].tolist(), arr[:, 1].tolist()))

    @property
    def points(self) -> Tuple[Point, ...]:
        """The path points in forward order."""
        return self._points

    @property
    def array(self) -> np.ndarray:
        """The points as a read-only ``(len, 2)`` int64 array."""
        return self._array

    @property
    def start(self) -> Point:
        """First (top-left-most) point."""
        return self._points[0]

    @property
    def end(self) -> Point:
        """Last (bottom-right-most) point."""
        return self._points[-1]

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._points)

    def __getitem__(self, idx):
        return self._points[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, AlignmentPath) and self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def moves(self) -> List[Move]:
        """Forward move list (length ``len(self) - 1``)."""
        return _moves(np.diff(self._array, axis=0))

    def is_complete(self, m: int, n: int) -> bool:
        """Whether the path spans the full ``(0,0) → (m,n)`` DPM."""
        return self.start == (0, 0) and self.end == (m, n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self._points) <= 6:
            return f"AlignmentPath({list(self._points)})"
        head = ", ".join(map(str, self._points[:3]))
        return f"AlignmentPath([{head}, ..., {self._points[-1]}], len={len(self._points)})"


def _point_array(points: Seq[Point]) -> np.ndarray:
    """Points as an ``(L, 2)`` int64 array (``L`` may be 0)."""
    flat = np.fromiter(itertools.chain.from_iterable(points), dtype=np.int64)
    if flat.size != 2 * len(points):
        raise PathError("path points must be (i, j) pairs")
    return flat.reshape(-1, 2)


def _first_illegal(steps: np.ndarray) -> int:
    """Index of the first ``(di, dj)`` row that is not a DP move, else -1."""
    legal = ((steps == 0) | (steps == 1)).all(axis=1) & steps.any(axis=1)
    return -1 if legal.all() else int(np.argmin(legal))


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
