"""Unified full-matrix solver used by base cases and FM baselines.

Bundles the dense sweep + traceback of either gap model behind one
interface so the FastLSA base case and the Needleman–Wunsch baseline share
an implementation.  All coordinates are local to the sub-problem; callers
translate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..align.path import Layer
from ..scoring.scheme import ScoringScheme
from .ops import OpCounter

__all__ = ["FullMatrices", "compute_full", "trace_from"]


@dataclass
class FullMatrices:
    """Dense DP matrices of a sub-problem.

    ``E`` and ``F`` are ``None`` for linear gap models.
    """

    H: np.ndarray
    E: Optional[np.ndarray]
    F: Optional[np.ndarray]

    @property
    def shape(self) -> Tuple[int, int]:
        """``(M+1, N+1)`` shape of the stored matrices."""
        return self.H.shape

    @property
    def cells(self) -> int:
        """Number of stored DP cells across all layers."""
        per_layer = int(self.H.size)
        layers = 1 + (self.E is not None) + (self.F is not None)
        return per_layer * layers

    @property
    def score(self) -> int:
        """Bottom-right ``H`` entry (the sub-problem's optimal score)."""
        return int(self.H[-1, -1])


def compute_full(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    first_row_h: np.ndarray,
    first_col_h: np.ndarray,
    first_row_f: Optional[np.ndarray] = None,
    first_col_e: Optional[np.ndarray] = None,
    counter: Optional[OpCounter] = None,
) -> FullMatrices:
    """Compute dense DP matrices for a sub-problem under ``scheme``.

    For affine schemes the gap-state boundary vectors must be supplied
    (use :func:`repro.kernels.affine.affine_boundaries` for a fresh
    problem); for linear schemes they are ignored.
    """
    from . import registry  # late import: registry imports compiled wrappers

    table = scheme.matrix.table
    if scheme.is_linear:
        H = registry.active("linear").sweep_matrix(
            a_codes, b_codes, table, scheme.gap_open, first_row_h, first_col_h, counter
        )
        return FullMatrices(H=H, E=None, F=None)
    if first_row_f is None or first_col_e is None:
        raise ValueError("affine scheme requires first_row_f and first_col_e caches")
    H, E, F = registry.active("affine").sweep_matrix(
        a_codes,
        b_codes,
        table,
        scheme.gap_open,
        scheme.gap_extend,
        first_row_h,
        first_row_f,
        first_col_h,
        first_col_e,
        counter,
    )
    return FullMatrices(H=H, E=E, F=F)


def trace_from(
    mats: FullMatrices,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    start_i: int,
    start_j: int,
    start_layer: Layer = Layer.H,
) -> Tuple[np.ndarray, Layer]:
    """Trace an optimal path backwards to the matrices' top/left boundary.

    Returns ``(points, end_layer)``: the points as one ``(L, 2)`` int64
    array in traceback order (see :mod:`repro.kernels.traceback`), run on
    the ambient tier's provider; ``end_layer`` is always ``H`` for linear
    schemes.
    """
    from . import registry  # late import: registry imports compiled wrappers

    table = scheme.matrix.table
    if scheme.is_linear:
        return registry.active("linear").traceback(
            mats.H, a_codes, b_codes, table, scheme.gap_open, start_i, start_j
        )
    assert mats.E is not None and mats.F is not None
    return registry.active("affine").traceback(
        mats.H,
        mats.E,
        mats.F,
        a_codes,
        b_codes,
        table,
        scheme.gap_open,
        scheme.gap_extend,
        start_i,
        start_j,
        start_layer,
    )
