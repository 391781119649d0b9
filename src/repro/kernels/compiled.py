"""numpy-signature wrappers over the cffi compiled kernels.

Each function mirrors its numpy twin in :mod:`repro.kernels.linear`,
:mod:`repro.kernels.affine`, :mod:`repro.kernels.banddp` or
:mod:`repro.kernels.traceback` exactly —
same arguments (``profile`` accepted and ignored; the C loops gather
scores directly), same return shapes/dtypes, and bit-identical output
words.  Degenerate sweeps (``M == 0`` or ``N == 0``) delegate to the
numpy tier, which already owns those edge contracts.

Import of this module raises ``ImportError`` when the extension has not
been built; the registry treats that as "tier unavailable".
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..align.path import Layer
from ..errors import PathError
from . import affine as _aff
from . import banddp as _banddp
from . import batchdp as _batch
from . import linear as _lin
from ._ckernels import ffi, lib  # noqa: F401  (ImportError => tier absent)
from .affine import NEG_INF
from .ops import OpCounter
from .traceback import check_trace_start


def _i16(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.int16)


def _i64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.int64)


def _ptr16(x: np.ndarray):
    return ffi.cast("const int16_t *", ffi.from_buffer(x))


def _ptr64(x: np.ndarray):
    return ffi.cast("const int64_t *", ffi.from_buffer(x))


def _out64(x: np.ndarray):
    return ffi.cast("int64_t *", ffi.from_buffer(x))


_NULL = None  # placeholder; real NULL computed lazily from ffi


def _null():
    return ffi.NULL


def sweep_last_row_col(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    M, N = len(a_codes), len(b_codes)
    if M == 0 or N == 0:
        return _lin.sweep_last_row_col(
            a_codes, b_codes, table, gap, first_row, first_col, counter
        )
    first_row = _i64(first_row)
    first_col = _i64(first_col)
    if first_row.shape != (N + 1,):
        raise ValueError(f"first_row must have length {N + 1}, got {first_row.shape}")
    if first_col.shape != (M + 1,):
        raise ValueError(f"first_col must have length {M + 1}, got {first_col.shape}")
    if counter is not None:
        counter.add_cells(M * N)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    last_row = np.empty(N + 1, dtype=np.int64)
    last_col = np.empty(M + 1, dtype=np.int64)
    rc = lib.flsa_lin_sweep(
        _ptr16(a), M, _ptr16(b), N, _ptr64(tbl), tbl.shape[1], int(gap),
        _ptr64(first_row), _ptr64(first_col),
        _out64(last_row), _out64(last_col), _null(),
        _null(), 0, _null(),
    )
    if rc:
        raise MemoryError("flsa_lin_sweep: allocation failed")
    return last_row, last_col


def sweep_band(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    sample_cols: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    M, N = len(a_codes), len(b_codes)
    sample_cols = _i64(sample_cols)
    if M == 0 or N == 0:
        return _lin.sweep_band(
            a_codes, b_codes, table, gap, first_row, first_col, sample_cols, counter
        )
    first_row = _i64(first_row)
    first_col = _i64(first_col)
    if first_row.shape != (N + 1,):
        raise ValueError(f"first_row must have length {N + 1}, got {first_row.shape}")
    if first_col.shape != (M + 1,):
        raise ValueError(f"first_col must have length {M + 1}, got {first_col.shape}")
    if sample_cols.size and (sample_cols.min() < 0 or sample_cols.max() > N):
        raise ValueError("sample_cols out of range")
    if counter is not None:
        counter.add_cells(M * N)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    S = len(sample_cols)
    last_row = np.empty(N + 1, dtype=np.int64)
    samples = np.empty((S, M + 1), dtype=np.int64)
    rc = lib.flsa_lin_sweep(
        _ptr16(a), M, _ptr16(b), N, _ptr64(tbl), tbl.shape[1], int(gap),
        _ptr64(first_row), _ptr64(first_col),
        _out64(last_row), _null(), _null(),
        _ptr64(sample_cols) if S else _null(), S,
        _out64(samples) if S else _null(),
    )
    if rc:
        raise MemoryError("flsa_lin_sweep: allocation failed")
    return last_row, samples


def sweep_matrix(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> np.ndarray:
    M, N = len(a_codes), len(b_codes)
    if M == 0 or N == 0:
        return _lin.sweep_matrix(
            a_codes, b_codes, table, gap, first_row, first_col, counter
        )
    first_row = _i64(first_row)
    first_col = _i64(first_col)
    if first_row.shape != (N + 1,):
        raise ValueError(f"first_row must have length {N + 1}, got {first_row.shape}")
    if first_col.shape != (M + 1,):
        raise ValueError(f"first_col must have length {M + 1}, got {first_col.shape}")
    if counter is not None:
        counter.add_cells(M * N)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    H = np.empty((M + 1, N + 1), dtype=np.int64)
    rc = lib.flsa_lin_sweep(
        _ptr16(a), M, _ptr16(b), N, _ptr64(tbl), tbl.shape[1], int(gap),
        _ptr64(first_row), _ptr64(first_col),
        _null(), _null(), _out64(H),
        _null(), 0, _null(),
    )
    if rc:
        raise MemoryError("flsa_lin_sweep: allocation failed")
    return H


def trace_linear(
    H: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    start_i: int,
    start_j: int,
) -> Tuple[np.ndarray, Layer]:
    H = _i64(H)
    i, j = check_trace_start(H, a_codes, b_codes, start_i, start_j)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    pts = np.empty((i + j, 2), dtype=np.int64)
    at = np.empty(3, dtype=np.int64)
    n = lib.flsa_lin_trace(
        _ptr64(H), H.shape[1] - 1, _ptr16(a), _ptr16(b),
        _ptr64(tbl), tbl.shape[1], int(gap), i, j, _out64(pts), _out64(at),
    )
    if n < 0:
        fi, fj = int(at[0]), int(at[1])
        raise PathError(
            f"no predecessor reproduces H[{fi},{fj}]={int(H[fi, fj])}; "
            "matrix inconsistent"
        )
    return pts[:n], Layer.H


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
    H = _i64(H)
    E = _i64(E)
    F = _i64(F)
    if E.shape != H.shape or F.shape != H.shape:
        raise ValueError(
            f"E {E.shape} and F {F.shape} must match H {H.shape}"
        )
    i, j = check_trace_start(H, a_codes, b_codes, start_i, start_j)
    layer = Layer(start_layer)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    pts = np.empty((i + j, 2), dtype=np.int64)
    at = np.empty(3, dtype=np.int64)
    n = lib.flsa_aff_trace(
        _ptr64(H), _ptr64(E), _ptr64(F), H.shape[1] - 1, _ptr16(a), _ptr16(b),
        _ptr64(tbl), tbl.shape[1], int(open_), int(extend), i, j, int(layer),
        _out64(pts), _out64(at),
    )
    end_layer = Layer(int(at[2]))
    if n < 0:
        fi, fj = int(at[0]), int(at[1])
        mat = (H, E, F)[end_layer]
        raise PathError(
            f"no predecessor reproduces {end_layer.name}[{fi},{fj}]="
            f"{int(mat[fi, fj])}; matrix inconsistent"
        )
    return pts[:n], end_layer


def best_cell_local(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    counter: Optional[OpCounter] = None,
    *,
    clamp: bool = True,
) -> Tuple[int, int, int]:
    M, N = len(a_codes), len(b_codes)
    if M == 0 or N == 0:
        return 0, 0, 0
    if counter is not None:
        counter.add_cells(M * N)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    out = np.empty(3, dtype=np.int64)
    lib.flsa_lin_best_local(
        _ptr16(a), M, _ptr16(b), N, _ptr64(tbl), tbl.shape[1], int(gap),
        int(bool(clamp)), _out64(out),
    )
    if out[0] < 0:
        raise MemoryError("flsa_lin_best_local: allocation failed")
    return int(out[0]), int(out[1]), int(out[2])


def band_fill(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    width: int,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    m, n = len(a_codes), len(b_codes)
    if m == 0 or n == 0:
        return _banddp.band_fill(a_codes, b_codes, table, gap, width, counter)
    dmin, dmax = _banddp.band_range(m, n, width)
    W = dmax - dmin + 1
    if counter is not None:
        counter.add_cells(m * W)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    # The C fill writes every cell (NEG_INF for out-of-range) — no
    # pre-fill pass over the whole band needed.
    B = np.empty((m + 1, W), dtype=np.int64)
    lib.flsa_lin_band_fill(
        _ptr16(a), m, _ptr16(b), n, _ptr64(tbl), tbl.shape[1], int(gap),
        dmin, W, _out64(B),
    )
    return B


def sweep_last_row_col_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    first_row_h: np.ndarray,
    first_row_f: np.ndarray,
    first_col_h: np.ndarray,
    first_col_e: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    M, N = len(a_codes), len(b_codes)
    if M == 0 or N == 0:
        return _aff.sweep_last_row_col_affine(
            a_codes, b_codes, table, open_, extend,
            first_row_h, first_row_f, first_col_h, first_col_e, counter,
        )
    first_row_h = _i64(first_row_h)
    first_row_f = _i64(first_row_f)
    first_col_h = _i64(first_col_h)
    first_col_e = _i64(first_col_e)
    _aff._check_shapes(M, N, first_row_h, first_row_f, first_col_h, first_col_e)
    if counter is not None:
        counter.add_cells(M * N)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    last_row_h = np.empty(N + 1, dtype=np.int64)
    last_row_f = np.empty(N + 1, dtype=np.int64)
    last_col_h = np.empty(M + 1, dtype=np.int64)
    last_col_e = np.empty(M + 1, dtype=np.int64)
    rc = lib.flsa_aff_sweep(
        _ptr16(a), M, _ptr16(b), N, _ptr64(tbl), tbl.shape[1],
        int(open_), int(extend),
        _ptr64(first_row_h), _ptr64(first_row_f),
        _ptr64(first_col_h), _ptr64(first_col_e),
        _out64(last_row_h), _out64(last_row_f),
        _out64(last_col_h), _out64(last_col_e),
        _null(), _null(), _null(),
        _null(), 0, _null(), _null(),
    )
    if rc:
        raise MemoryError("flsa_aff_sweep: allocation failed")
    return last_row_h, last_row_f, last_col_h, last_col_e


def sweep_band_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    first_row_h: np.ndarray,
    first_row_f: np.ndarray,
    first_col_h: np.ndarray,
    first_col_e: np.ndarray,
    sample_cols: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    M, N = len(a_codes), len(b_codes)
    sample_cols = _i64(sample_cols)
    if M == 0 or N == 0:
        return _aff.sweep_band_affine(
            a_codes, b_codes, table, open_, extend,
            first_row_h, first_row_f, first_col_h, first_col_e,
            sample_cols, counter,
        )
    first_row_h = _i64(first_row_h)
    first_row_f = _i64(first_row_f)
    first_col_h = _i64(first_col_h)
    first_col_e = _i64(first_col_e)
    _aff._check_shapes(M, N, first_row_h, first_row_f, first_col_h, first_col_e)
    if sample_cols.size and (sample_cols.min() < 1 or sample_cols.max() > N):
        raise ValueError("sample_cols must be interior positions in [1, N]")
    if counter is not None:
        counter.add_cells(M * N)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    S = len(sample_cols)
    last_row_h = np.empty(N + 1, dtype=np.int64)
    last_row_f = np.empty(N + 1, dtype=np.int64)
    samples_h = np.empty((S, M + 1), dtype=np.int64)
    samples_e = np.full((S, M + 1), NEG_INF, dtype=np.int64)
    rc = lib.flsa_aff_sweep(
        _ptr16(a), M, _ptr16(b), N, _ptr64(tbl), tbl.shape[1],
        int(open_), int(extend),
        _ptr64(first_row_h), _ptr64(first_row_f),
        _ptr64(first_col_h), _ptr64(first_col_e),
        _out64(last_row_h), _out64(last_row_f),
        _null(), _null(),
        _null(), _null(), _null(),
        _ptr64(sample_cols) if S else _null(), S,
        _out64(samples_h) if S else _null(),
        _out64(samples_e) if S else _null(),
    )
    if rc:
        raise MemoryError("flsa_aff_sweep: allocation failed")
    return last_row_h, last_row_f, samples_h, samples_e


def sweep_matrix_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    first_row_h: np.ndarray,
    first_row_f: np.ndarray,
    first_col_h: np.ndarray,
    first_col_e: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    M, N = len(a_codes), len(b_codes)
    if M == 0 or N == 0:
        return _aff.sweep_matrix_affine(
            a_codes, b_codes, table, open_, extend,
            first_row_h, first_row_f, first_col_h, first_col_e, counter,
        )
    first_row_h = _i64(first_row_h)
    first_row_f = _i64(first_row_f)
    first_col_h = _i64(first_col_h)
    first_col_e = _i64(first_col_e)
    _aff._check_shapes(M, N, first_row_h, first_row_f, first_col_h, first_col_e)
    if counter is not None:
        counter.add_cells(M * N)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    H = np.empty((M + 1, N + 1), dtype=np.int64)
    E = np.empty((M + 1, N + 1), dtype=np.int64)
    F = np.empty((M + 1, N + 1), dtype=np.int64)
    rc = lib.flsa_aff_sweep(
        _ptr16(a), M, _ptr16(b), N, _ptr64(tbl), tbl.shape[1],
        int(open_), int(extend),
        _ptr64(first_row_h), _ptr64(first_row_f),
        _ptr64(first_col_h), _ptr64(first_col_e),
        _null(), _null(), _null(), _null(),
        _out64(H), _out64(E), _out64(F),
        _null(), 0, _null(), _null(),
    )
    if rc:
        raise MemoryError("flsa_aff_sweep: allocation failed")
    return H, E, F


def best_cell_local_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    counter: Optional[OpCounter] = None,
    *,
    clamp: bool = True,
) -> Tuple[int, int, int]:
    M, N = len(a_codes), len(b_codes)
    if M == 0 or N == 0:
        return 0, 0, 0
    if counter is not None:
        counter.add_cells(M * N)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    out = np.empty(3, dtype=np.int64)
    lib.flsa_aff_best_local(
        _ptr16(a), M, _ptr16(b), N, _ptr64(tbl), tbl.shape[1],
        int(open_), int(extend), int(bool(clamp)), _out64(out),
    )
    if out[0] < 0:
        raise MemoryError("flsa_aff_best_local: allocation failed")
    return int(out[0]), int(out[1]), int(out[2])


def band_fill_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    width: int,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    m, n = len(a_codes), len(b_codes)
    if m == 0 or n == 0:
        return _banddp.band_fill_affine(
            a_codes, b_codes, table, open_, extend, width, counter
        )
    dmin, dmax = _banddp.band_range(m, n, width)
    W = dmax - dmin + 1
    if counter is not None:
        counter.add_cells(m * W)
    a = _i16(a_codes)
    b = _i16(b_codes)
    tbl = _i64(table)
    BH = np.full((m + 1, W), NEG_INF, dtype=np.int64)
    BE = np.full((m + 1, W), NEG_INF, dtype=np.int64)
    BF = np.full((m + 1, W), NEG_INF, dtype=np.int64)
    lib.flsa_aff_band_fill(
        _ptr16(a), m, _ptr16(b), n, _ptr64(tbl), tbl.shape[1],
        int(open_), int(extend), dmin, W,
        _out64(BH), _out64(BE), _out64(BF),
    )
    return BH, BE, BF


# ---------------------------------------------------------------------------
# Lane-packed batch kernels (numpy twins in repro.kernels.batchdp).
# ---------------------------------------------------------------------------

def _batch_args(a_codes, b_pack, b_lens, table):
    a = _i16(a_codes)
    bp = _i16(b_pack)
    lens = _i64(b_lens)
    tbl = _i64(table)
    B, Np = _batch._check_pack(bp, lens)
    if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
        raise ValueError(f"table must be square, got shape {tbl.shape}")
    return a, bp, lens, tbl, B, Np


#: The int32 instance runs only while every reachable cell value stays
#: below this, leaving headroom under 2**31 for one more score or gap.
_I32_LIMIT = 1 << 29


def batch_elem(M: int, Np: int, table: np.ndarray, open_: int, extend: int) -> str:
    """Cell type of the best-local instance a call runs: ``"int32"`` or
    ``"int64"``.

    A clamped local cell lies in ``[0, min(M, Np) * maxs]``; a candidate
    adds at most one table entry or gap term to such a value.
    """
    hi, lo = int(np.max(table)), int(np.min(table))
    mag = max(abs(hi), abs(lo), abs(int(open_)), abs(int(extend)))
    return "int32" if min(M, Np) * max(0, hi) + 2 * mag < _I32_LIMIT else "int64"


def batch_isa() -> str:
    """ISA clone the best-local kernels dispatch to on this CPU:
    ``"avx2"`` or ``"default"``.  (Called lazily, not at import, so an
    extension built from older sources still reaches the registry's
    stale-build check.)"""
    return "avx2" if lib.flsa_batch_isa() else "default"


def batch_variant(M: int, Np: int, table: np.ndarray, open_: int, extend: int) -> dict:
    """``{"elem", "isa"}`` of the best-local kernel a call would run."""
    return {"elem": batch_elem(M, Np, table, open_, extend), "isa": batch_isa()}


def _batch_best_local(a_codes, b_pack, b_lens, table, affine, open_, extend,
                      floor, counter, fallback):
    a, bp, lens, tbl, B, Np = _batch_args(a_codes, b_pack, b_lens, table)
    M = len(a)
    if B == 0 or M == 0 or Np == 0:
        return fallback()
    if counter is not None:
        # Ceiling: the C loop stops floor-retired lanes early, so the
        # true cell count can be lower.  Matches the per-pair tier's
        # "problem size" accounting rather than numpy batch's exact
        # alive-lane sum.
        counter.add_cells(int(M * lens.sum()))
    maxs = max(0, int(tbl.max()))
    kernel = (lib.flsa_batch_best_local_i32
              if batch_elem(M, Np, tbl, open_, extend) == "int32"
              else lib.flsa_batch_best_local_i64)
    score = np.empty(B, dtype=np.int64)
    bi = np.empty(B, dtype=np.int64)
    bj = np.empty(B, dtype=np.int64)
    pruned = np.empty(B, dtype=np.int64)
    rc = kernel(
        _ptr16(a), M, _ptr16(bp), B, Np, _ptr64(lens),
        _ptr64(tbl), tbl.shape[1], int(affine), int(open_), int(extend),
        int(floor is not None), int(floor or 0), maxs,
        _out64(score), _out64(bi), _out64(bj), _out64(pruned),
    )
    if rc:
        raise MemoryError("flsa_batch_best_local: allocation failed")
    return score, bi, bj, pruned.astype(bool)


def batch_best_cell_local(
    a_codes: np.ndarray,
    b_pack: np.ndarray,
    b_lens: np.ndarray,
    table: np.ndarray,
    gap: int,
    *,
    floor: Optional[int] = None,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return _batch_best_local(
        a_codes, b_pack, b_lens, table, False, gap, gap, floor, counter,
        lambda: _batch.batch_best_cell_local(
            a_codes, b_pack, b_lens, table, gap, floor=floor, counter=counter
        ),
    )


def batch_best_cell_local_affine(
    a_codes: np.ndarray,
    b_pack: np.ndarray,
    b_lens: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    *,
    floor: Optional[int] = None,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return _batch_best_local(
        a_codes, b_pack, b_lens, table, True, open_, extend, floor, counter,
        lambda: _batch.batch_best_cell_local_affine(
            a_codes, b_pack, b_lens, table, open_, extend,
            floor=floor, counter=counter,
        ),
    )


def batch_score_global(
    a_codes: np.ndarray,
    b_pack: np.ndarray,
    b_lens: np.ndarray,
    table: np.ndarray,
    gap: int,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    a, bp, lens, tbl, B, Np = _batch_args(a_codes, b_pack, b_lens, table)
    M = len(a)
    if B == 0 or M == 0 or Np == 0:
        return _batch.batch_score_global(
            a_codes, b_pack, b_lens, table, gap, counter
        )
    if counter is not None:
        counter.add_cells(int(M * lens.sum()))
    score = np.empty(B, dtype=np.int64)
    rc = lib.flsa_lin_batch_score_global(
        _ptr16(a), M, _ptr16(bp), B, Np, _ptr64(lens),
        _ptr64(tbl), tbl.shape[1], int(gap), _out64(score),
    )
    if rc:
        raise MemoryError("flsa_lin_batch_score_global: allocation failed")
    return score


def batch_score_global_affine(
    a_codes: np.ndarray,
    b_pack: np.ndarray,
    b_lens: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    a, bp, lens, tbl, B, Np = _batch_args(a_codes, b_pack, b_lens, table)
    M = len(a)
    if B == 0 or M == 0 or Np == 0:
        return _batch.batch_score_global_affine(
            a_codes, b_pack, b_lens, table, open_, extend, counter
        )
    if counter is not None:
        counter.add_cells(int(M * lens.sum()))
    score = np.empty(B, dtype=np.int64)
    rc = lib.flsa_aff_batch_score_global(
        _ptr16(a), M, _ptr16(bp), B, Np, _ptr64(lens),
        _ptr64(tbl), tbl.shape[1], int(open_), int(extend), _out64(score),
    )
    if rc:
        raise MemoryError("flsa_aff_batch_score_global: allocation failed")
    return score
