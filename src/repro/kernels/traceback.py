"""FindPath: traceback through stored DP matrices.

Implements the paper's FindPath phase for full-matrix blocks: starting from
a given entry, repeatedly determine which neighbour produced the stored
score (the "recompute which of the three entries was used" technique of
Section 2.1) and step to it, until the block's top or left boundary is
reached.

Coordinates are *local* to the matrix passed in; callers translate to
global DPM coordinates.  Ties are broken deterministically
(DIAG > DOWN > LEFT for linear; DIAG > E-layer > F-layer for affine) — any
optimal path is acceptable, and determinism keeps tests stable.

:func:`traceback_linear` / :func:`traceback_affine` are the point-by-point
reference walks.  The kernel providers' ``traceback`` method is the
array-valued form (:func:`trace_linear` / :func:`trace_affine` here, C
loops in :mod:`repro.kernels.compiled`): the same points as one ``(L, 2)``
int64 array plus the end layer, bit-identical across tiers.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..align.path import Layer
from ..errors import PathError

__all__ = ["traceback_linear", "traceback_affine", "trace_linear", "trace_affine"]

Point = Tuple[int, int]


def check_trace_start(
    H: np.ndarray, a_codes: np.ndarray, b_codes: np.ndarray, start_i: int, start_j: int
) -> Tuple[int, int]:
    """Validate a traceback start against ``H`` and the code arrays.

    Returns the start as Python ints; raises :class:`PathError` for a start
    outside the matrix and ``ValueError`` for a malformed matrix or code
    arrays too short to reach the start.
    """
    i, j = int(start_i), int(start_j)
    if H.ndim != 2:
        raise ValueError(f"H must be 2-D, got shape {H.shape}")
    M, N = H.shape[0] - 1, H.shape[1] - 1
    if not (0 <= i <= M and 0 <= j <= N):
        raise PathError(f"traceback start ({i}, {j}) outside matrix {H.shape}")
    if len(a_codes) < i or len(b_codes) < j:
        raise ValueError(
            f"codes of lengths ({len(a_codes)}, {len(b_codes)}) cannot reach "
            f"traceback start ({i}, {j})"
        )
    return i, j


def traceback_linear(
    H: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    start_i: int,
    start_j: int,
) -> List[Point]:
    """Trace an optimal path backwards from ``(start_i, start_j)``.

    Returns the visited points in traceback order, *excluding* the start
    point and *including* the first point on local row 0 or column 0.  An
    empty list means the start was already on the boundary.
    """
    gap = int(gap)
    i, j = check_trace_start(H, a_codes, b_codes, start_i, start_j)
    points: List[Point] = []
    while i > 0 and j > 0:
        h = H[i, j]
        if h == H[i - 1, j - 1] + table[a_codes[i - 1], b_codes[j - 1]]:
            i -= 1
            j -= 1
        elif h == H[i - 1, j] + gap:
            i -= 1
        elif h == H[i, j - 1] + gap:
            j -= 1
        else:
            raise PathError(
                f"no predecessor reproduces H[{i},{j}]={int(h)}; matrix inconsistent"
            )
        points.append((i, j))
    return points


def traceback_affine(
    H: np.ndarray,
    E: np.ndarray,
    F: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    start_i: int,
    start_j: int,
    start_layer: Layer = Layer.H,
) -> Tuple[List[Point], Layer]:
    """Affine traceback from ``(start_i, start_j)`` in ``start_layer``.

    Returns ``(points, end_layer)``: the visited points (same convention as
    :func:`traceback_linear`) and the Gotoh layer the path is in when it
    reaches the boundary — needed by FastLSA to resume a traceback that was
    interrupted mid-gap at a sub-problem edge.
    """
    open_ = int(open_)
    extend = int(extend)
    i, j = check_trace_start(H, a_codes, b_codes, start_i, start_j)
    layer = Layer(start_layer)
    points: List[Point] = []
    while i > 0 and j > 0:
        if layer is Layer.H:
            h = H[i, j]
            if h == H[i - 1, j - 1] + table[a_codes[i - 1], b_codes[j - 1]]:
                i -= 1
                j -= 1
                points.append((i, j))
            elif h == E[i, j]:
                layer = Layer.E  # same cell, switch layer: no point emitted
            elif h == F[i, j]:
                layer = Layer.F
            else:
                raise PathError(
                    f"no predecessor reproduces H[{i},{j}]={int(h)}; matrix inconsistent"
                )
        elif layer is Layer.E:
            e = E[i, j]
            if e == H[i, j - 1] + open_:
                layer = Layer.H
            elif e != E[i, j - 1] + extend:
                raise PathError(
                    f"no predecessor reproduces E[{i},{j}]={int(e)}; matrix inconsistent"
                )
            j -= 1
            points.append((i, j))
        else:  # Layer.F
            f = F[i, j]
            if f == H[i - 1, j] + open_:
                layer = Layer.H
            elif f != F[i - 1, j] + extend:
                raise PathError(
                    f"no predecessor reproduces F[{i},{j}]={int(f)}; matrix inconsistent"
                )
            i -= 1
            points.append((i, j))
    return points, layer


def _as_array(points: List[Point]) -> np.ndarray:
    return np.array(points, dtype=np.int64).reshape(-1, 2)


def trace_linear(
    H: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    start_i: int,
    start_j: int,
) -> Tuple[np.ndarray, Layer]:
    """:func:`traceback_linear` as ``(points (L, 2) int64, Layer.H)``."""
    points = traceback_linear(H, a_codes, b_codes, table, gap, start_i, start_j)
    return _as_array(points), Layer.H


def trace_affine(
    H: np.ndarray,
    E: np.ndarray,
    F: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    start_i: int,
    start_j: int,
    start_layer: Layer = Layer.H,
) -> Tuple[np.ndarray, Layer]:
    """:func:`traceback_affine` as ``(points (L, 2) int64, end_layer)``."""
    points, layer = traceback_affine(
        H, E, F, a_codes, b_codes, table, open_, extend, start_i, start_j, start_layer
    )
    return _as_array(points), layer
