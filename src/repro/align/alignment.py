"""Alignment data model.

An :class:`Alignment` is the user-facing result: the two gapped strings, the
score, the path that produced them, and execution statistics.  Alignments
can be built from a path plus the original sequences, or directly from
gapped strings (e.g. when parsing external data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import AlignmentError
from .path import AlignmentPath
from .sequence import Sequence, as_sequence

__all__ = ["GAP", "Alignment", "AlignmentStats", "alignment_from_path"]

#: The gap character used in gapped strings.
GAP = "-"


@dataclass
class AlignmentStats:
    """Execution statistics attached to an alignment result.

    All counters are optional; algorithms fill in what they measure.

    Attributes
    ----------
    cells_computed:
        Total DP cells evaluated, including recomputation.  For an FM
        algorithm this is ``m*n``; Hirschberg ≈ ``2*m*n``; FastLSA between
        the two depending on ``k`` (the paper's central trade-off).
    peak_cells_resident:
        Peak number of DP cells simultaneously held in memory (the space
        side of the trade-off).
    base_case_cells:
        Cells solved inside full-matrix base cases.
    recursion_depth:
        Maximum FastLSA recursion depth reached.
    subproblems:
        Number of recursive FastLSA invocations.
    wall_time:
        Seconds of wall-clock time, when measured by the driver.
    kernel:
        Kernel tier that ran the sweeps (``"numpy"`` / ``"compiled"``;
        empty when the driver predates the registry or didn't record it).
    band_width:
        Half-width of the certified band when the exact banded fast path
        produced the result; ``0`` when no band was used.
    """

    cells_computed: int = 0
    peak_cells_resident: int = 0
    base_case_cells: int = 0
    recursion_depth: int = 0
    subproblems: int = 0
    wall_time: float = 0.0
    kernel: str = ""
    band_width: int = 0

    def merge(self, other: "AlignmentStats") -> None:
        """Accumulate counters from ``other`` (max for peaks/depths)."""
        self.cells_computed += other.cells_computed
        self.base_case_cells += other.base_case_cells
        self.subproblems += other.subproblems
        self.peak_cells_resident = max(self.peak_cells_resident, other.peak_cells_resident)
        self.recursion_depth = max(self.recursion_depth, other.recursion_depth)
        self.wall_time += other.wall_time
        if not self.kernel:
            self.kernel = other.kernel
        self.band_width = max(self.band_width, other.band_width)


@dataclass
class Alignment:
    """A scored pairwise alignment.

    Attributes
    ----------
    seq_a, seq_b:
        The original (ungapped) sequences; ``seq_a`` indexes DPM rows.
    gapped_a, gapped_b:
        Equal-length strings over ``alphabet + '-'`` realising the
        alignment.
    score:
        The alignment score claimed by the producing algorithm.
    path:
        The DP path, when the algorithm produced one.
    algorithm:
        Name of the producing algorithm ("fastlsa", "hirschberg", ...).
    stats:
        Execution statistics.
    """

    seq_a: Sequence
    seq_b: Sequence
    gapped_a: str
    gapped_b: str
    score: int
    path: Optional[AlignmentPath] = None
    algorithm: str = ""
    stats: AlignmentStats = field(default_factory=AlignmentStats)

    def __post_init__(self) -> None:
        if len(self.gapped_a) != len(self.gapped_b):
            raise AlignmentError(
                f"gapped strings differ in length: {len(self.gapped_a)} vs {len(self.gapped_b)}"
            )
        if self.gapped_a.replace(GAP, "") != self.seq_a.text:
            raise AlignmentError("gapped_a does not spell seq_a after removing gaps")
        if self.gapped_b.replace(GAP, "") != self.seq_b.text:
            raise AlignmentError("gapped_b does not spell seq_b after removing gaps")
        if GAP in self.gapped_a and GAP in self.gapped_b:
            if np.any(_gap_mask(self.gapped_a) & _gap_mask(self.gapped_b)):
                raise AlignmentError("alignment column aligns a gap with a gap")

    def __len__(self) -> int:
        """Number of alignment columns."""
        return len(self.gapped_a)

    @property
    def num_matches(self) -> int:
        """Columns where both symbols are present and identical."""
        return sum(
            1 for a, b in zip(self.gapped_a, self.gapped_b) if a == b and a != GAP
        )

    @property
    def num_mismatches(self) -> int:
        """Columns with two differing (non-gap) symbols."""
        return sum(
            1
            for a, b in zip(self.gapped_a, self.gapped_b)
            if a != b and a != GAP and b != GAP
        )

    @property
    def num_gap_columns(self) -> int:
        """Columns containing a gap symbol."""
        return sum(1 for a, b in zip(self.gapped_a, self.gapped_b) if a == GAP or b == GAP)

    @property
    def identity(self) -> float:
        """Fraction of columns that are identical matches."""
        return self.num_matches / len(self.gapped_a) if self.gapped_a else 1.0

    def columns(self):
        """Iterate alignment columns as ``(a_char, b_char)`` pairs."""
        return zip(self.gapped_a, self.gapped_b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Alignment({self.seq_a.name}/{self.seq_b.name}, score={self.score}, "
            f"columns={len(self.gapped_a)}, algorithm={self.algorithm!r})"
        )


def _gap_mask(gapped: str) -> np.ndarray:
    """Boolean mask of the gap columns of a gapped string."""
    points = np.frombuffer(gapped.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return points == ord(GAP)


def _gapped(text: str, consumes: np.ndarray) -> str:
    """``text`` laid out over the columns where ``consumes`` is set, with
    gaps in the others (UTF-32 code points, so any alphabet works)."""
    out = np.full(len(consumes), ord(GAP), dtype=np.uint32)
    out[consumes] = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    return out.tobytes().decode("utf-32-le")


def alignment_from_path(
    seq_a, seq_b, path: AlignmentPath, score: int, algorithm: str = "",
    stats: Optional[AlignmentStats] = None,
) -> Alignment:
    """Materialise gapped strings from a complete DP path.

    The path must span ``(0, 0) → (len(a), len(b))``.
    """
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    if not path.is_complete(len(a), len(b)):
        raise AlignmentError(
            f"path spans {path.start}..{path.end}, expected (0, 0)..({len(a)}, {len(b)})"
        )
    # Each step consumes a symbol of ``a`` (di = 1) and/or of ``b``
    # (dj = 1); a complete path consumes every symbol exactly once.
    steps = np.diff(path.array, axis=0).astype(bool)
    return Alignment(
        seq_a=a,
        seq_b=b,
        gapped_a=_gapped(a.text, steps[:, 0]),
        gapped_b=_gapped(b.text, steps[:, 1]),
        score=int(score),
        path=path,
        algorithm=algorithm,
        stats=stats or AlignmentStats(),
    )
