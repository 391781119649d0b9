"""Needleman–Wunsch full-matrix global alignment.

The paper's FM baseline: computes and stores the complete
``(m+1) × (n+1)`` DP matrix (``O(mn)`` time **and** space), then finds the
optimal path by backwards traceback over the stored scores.  Zero
recomputation — this is the "minimise operations" extreme of the paper's
trade-off (Section 1: "full matrix, which minimizes the computational
complexity").
"""

from __future__ import annotations

import time
from typing import Optional

from ..align.alignment import Alignment, AlignmentStats, alignment_from_path
from ..align.path import Layer, PathBuilder
from ..align.sequence import as_sequence
from ..kernels.affine import affine_boundaries
from ..kernels.fullmatrix import compute_full, trace_from
from ..kernels.linear import boundary_vectors
from ..kernels.ops import KernelInstruments
from ..scoring.scheme import ScoringScheme

__all__ = ["needleman_wunsch", "nw_score_matrix"]


def nw_score_matrix(seq_a, seq_b, scheme: ScoringScheme):
    """Dense DP matrices of a fresh global problem (for inspection/figures)."""
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    if scheme.is_linear:
        fr, fc = boundary_vectors(len(a), len(b), scheme.gap_open)
        return compute_full(a_codes, b_codes, scheme, fr, fc)
    rh, rf, ch, ce = affine_boundaries(len(a), len(b), scheme.gap_open, scheme.gap_extend)
    return compute_full(a_codes, b_codes, scheme, rh, ch, first_row_f=rf, first_col_e=ce)


def needleman_wunsch(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    instruments: Optional[KernelInstruments] = None,
) -> Alignment:
    """Globally align two sequences with the full-matrix algorithm.

    Parameters
    ----------
    seq_a, seq_b:
        :class:`~repro.align.sequence.Sequence` objects or plain strings.
    scheme:
        Scoring scheme (linear or affine gaps).
    instruments:
        Optional shared counters; a fresh bundle is used when omitted.

    Returns
    -------
    Alignment
        With ``stats.cells_computed == m·n`` and
        ``stats.peak_cells_resident`` equal to the dense matrix size.
    """
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    inst = instruments or KernelInstruments()
    t0 = time.perf_counter()

    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    m, n = len(a), len(b)

    if scheme.is_linear:
        fr, fc = boundary_vectors(m, n, scheme.gap_open)
        mats = compute_full(a_codes, b_codes, scheme, fr, fc, counter=inst.ops)
    else:
        rh, rf, ch, ce = affine_boundaries(m, n, scheme.gap_open, scheme.gap_extend)
        mats = compute_full(
            a_codes, b_codes, scheme, rh, ch, first_row_f=rf, first_col_e=ce,
            counter=inst.ops,
        )
    inst.mem.alloc(mats.cells)

    builder = PathBuilder((m, n), Layer.H)
    points, _layer = trace_from(mats, a_codes, b_codes, scheme, m, n)
    builder.extend(points)
    builder.extend_to_origin()
    path = builder.finalize()

    score = mats.score
    inst.mem.free(mats.cells)

    stats = AlignmentStats(
        cells_computed=inst.ops.cells,
        peak_cells_resident=inst.mem.peak,
        base_case_cells=m * n,
        recursion_depth=0,
        subproblems=1,
        wall_time=time.perf_counter() - t0,
    )
    return alignment_from_path(a, b, path, score, algorithm="needleman-wunsch", stats=stats)
