"""Banded global alignment — heuristic *and* exactness-certified.

For highly similar sequences the optimal path hugs the main diagonal, and
restricting the DP to a diagonal band of half-width ``w`` cuts the work
from ``m·n`` to ``O(max(m, n)·w)`` cells.  The band covers diagonals
``d = j − i`` in ``[min(0, n−m) − w, max(0, n−m) + w]``, which always
contains both DPM corners; the fills live in
:mod:`repro.kernels.banddp` (numpy tier) and the compiled tier, selected
through the kernel registry.

Three levels of guarantee:

* :func:`banded_align` — one fixed-width band.  The score is the optimum
  *over in-band paths*: a lower bound on the true score.  Widths covering
  the whole matrix (``w >= min(m, n)``) are clamped to a plain full-DP
  solve reported as ``tier="full"`` — past that point band bookkeeping
  only adds overhead.
* :func:`banded_align_auto` — the classic doubling heuristic: widen until
  the score stops improving.  Almost always exact, not guaranteed.
* :func:`banded_align_exact` / :func:`banded_score` — **verify or
  widen**: after each banded fill, an escape-score bound (see
  :func:`escape_bound`) is compared against the banded score.  When the
  banded score *strictly* beats the best any band-leaving path could
  possibly achieve, every optimal path provably lies inside the band —
  the score is exact and the in-band traceback (same tie-break order as
  the full-matrix traceback) reproduces the full-DP alignment
  bit-for-bit.  Otherwise the band doubles and retries, falling back to
  full DP at the crossover.  Exactness becomes a certificate, not a
  hope — this is the ``AlignConfig.band`` fast path.

The certificate
---------------
A global path that leaves the band of half-width ``w`` must cross from a
corner diagonal to some diagonal beyond ``[dmin, dmax]`` and come back,
spending ``>= w + 1`` horizontal *and* ``>= w + 1`` vertical gap moves on
top of the ``|n − m|`` skew; with ``D`` diagonal (substitution) moves a
path has exactly ``L = m + n − 2D`` gap moves, so an escaping path has
``D <= Dmax = min(m, n) − (w + 1)``.  Each diagonal move scores at most
``s_max = max(table)`` and ``L`` gap moves cost at most ``gap·L``
(linear) or ``2·open + (L − 2)·extend`` (affine — an escaping path has
gap moves in both directions, hence at least two runs, and fewer runs
never cost less given ``open <= extend``).  The bound is linear in
``D``, so its maximum over ``[0, Dmax]`` is at an endpoint.  If the
banded score strictly exceeds it, no escaping path can tie or win.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..align.alignment import Alignment, AlignmentStats, alignment_from_path
from ..align.path import PathBuilder
from ..align.sequence import as_sequence
from ..errors import ConfigError, PathError
from ..kernels import registry
from ..kernels.affine import NEG_INF, affine_boundaries
from ..kernels.banddp import band_range
from ..kernels.fullmatrix import compute_full, trace_from
from ..kernels.linear import boundary_vectors
from ..kernels.ops import KernelInstruments
from ..scoring.scheme import ScoringScheme

__all__ = [
    "BandedResult",
    "BandedScore",
    "banded_align",
    "banded_align_auto",
    "banded_align_exact",
    "banded_score",
    "escape_bound",
]

_HALF = NEG_INF // 2

#: Default starting half-width of the verify-or-widen loop.
DEFAULT_INITIAL_WIDTH = 16


@dataclass
class BandedResult:
    """A banded alignment plus the band it was computed in.

    ``alignment.score`` is optimal over in-band paths.  ``tier`` is
    ``"banded"`` when a band was actually used and ``"full"`` when the
    request was clamped (or fell back) to a dense full-DP solve.
    ``certified`` is True when the result is *provably* bit-identical to
    full DP — via the escape-bound certificate, or trivially for
    ``tier="full"``.  ``touches_edge`` reports whether the traced path
    ever met the band boundary (a cheap necessary-but-not-sufficient
    hint that widening might improve an uncertified result).
    ``attempts`` counts the fills performed (1 for a fixed-width call).
    """

    alignment: Alignment
    width: int
    touches_edge: bool
    tier: str = "banded"
    certified: bool = False
    attempts: int = 1


@dataclass
class BandedScore:
    """Exact score from the fill-only verify-or-widen loop.

    Always exact on return; ``tier`` records whether the certificate
    closed inside a band (``"banded"``) or the loop crossed over to a
    full-width sweep (``"full"``).
    """

    score: int
    width: int
    tier: str
    attempts: int
    cells: int


def escape_bound(m: int, n: int, width: int, scheme: ScoringScheme) -> Optional[int]:
    """Upper bound on the score of any global path leaving the band.

    Returns ``None`` when no complete path *can* leave a band of this
    half-width (``width >= min(m, n)``), in which case any banded score
    is trivially exact.  See the module docstring for the derivation.
    """
    d_max = min(m, n) - (width + 1)
    if d_max < 0:
        return None
    s_max = int(scheme.matrix.table.max())
    if scheme.is_linear:
        gap = scheme.gap_open

        def gap_cost(L: int) -> int:
            return gap * L

    else:
        open_, extend = scheme.gap_open, scheme.gap_extend

        def gap_cost(L: int) -> int:
            return 2 * open_ + (L - 2) * extend

    # Linear in D => maximum at an endpoint of [0, d_max].
    return max(
        D * s_max + gap_cost(m + n - 2 * D) for D in (0, d_max)
    )


def _min_certifying_width(
    m: int, n: int, scheme: ScoringScheme, score: int, lo: int
) -> int:
    """Smallest width > ``lo`` whose escape bound is beaten by ``score``.

    The banded score is monotone in width (wider bands are supersets) and
    the escape bound decreases in width (escaping costs more gap moves),
    so once a fill at ``lo`` returns ``score``, the first width whose
    bound drops strictly below ``score`` is guaranteed to certify — the
    widen loop can jump straight there instead of doubling past it.
    Returns ``min(m, n)`` when only the full-DP clamp certifies.
    """
    hi = min(m, n)  # escape_bound is None here: trivially certified
    lo = lo + 1
    while lo < hi:
        mid = (lo + hi) // 2
        bound = escape_bound(m, n, mid, scheme)
        if bound is None or score > bound:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _finish_stats(inst: KernelInstruments, t0: float, attempts: int = 1) -> AlignmentStats:
    return AlignmentStats(
        cells_computed=inst.ops.cells,
        peak_cells_resident=inst.mem.peak,
        subproblems=attempts,
        wall_time=time.perf_counter() - t0,
    )


def _full_align(
    a,
    b,
    scheme: ScoringScheme,
    inst: KernelInstruments,
    t0: float,
    width: int,
    attempts: int,
) -> BandedResult:
    """Dense full-DP solve reported as the band's ``tier="full"`` clamp."""
    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    m, n = len(a), len(b)
    if scheme.is_linear:
        fr, fc = boundary_vectors(m, n, scheme.gap_open)
        mats = compute_full(a_codes, b_codes, scheme, fr, fc, counter=inst.ops)
    else:
        rh, rf, ch, ce = affine_boundaries(m, n, scheme.gap_open, scheme.gap_extend)
        mats = compute_full(
            a_codes, b_codes, scheme, rh, ch,
            first_row_f=rf, first_col_e=ce, counter=inst.ops,
        )
    inst.mem.alloc(mats.cells)
    score = mats.score
    builder = PathBuilder((m, n))
    points, _layer = trace_from(mats, a_codes, b_codes, scheme, m, n)
    builder.extend(points)
    builder.extend_to_origin()
    inst.mem.free(mats.cells)
    alignment = alignment_from_path(
        a, b, builder.finalize(), score,
        algorithm="banded(full)",
        stats=_finish_stats(inst, t0, attempts),
    )
    return BandedResult(
        alignment=alignment, width=width, touches_edge=False,
        tier="full", certified=True, attempts=attempts,
    )


def banded_align(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    width: int = 32,
    instruments: Optional[KernelInstruments] = None,
) -> BandedResult:
    """Globally align within a diagonal band of half-width ``width``.

    Returns the best alignment whose path stays within the band —
    ``O(max(m,n)·width)`` time and space.  Linear and affine gap models.
    Widths covering the whole matrix (``width >= min(m, n)``) are clamped
    to a dense full-DP solve and reported as ``tier="full"`` /
    ``certified=True`` — a wider-than-the-matrix band would only pay
    band overhead past the crossover.
    """
    if width < 1:
        raise ConfigError(f"band width must be >= 1, got {width}")
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    inst = instruments or KernelInstruments()
    t0 = time.perf_counter()
    m, n = len(a), len(b)
    if width >= min(m, n):
        return _full_align(a, b, scheme, inst, t0, width, attempts=1)
    if not scheme.is_linear:
        return _banded_align_affine(a, b, scheme, width, inst, t0)

    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    provider = registry.active("linear")
    B = provider.band_fill(
        a_codes, b_codes, scheme.matrix.table, scheme.gap_open, width, inst.ops
    )
    inst.mem.alloc(B.size)
    result = _trace_band_linear(a, b, scheme, a_codes, b_codes, B, width, inst, t0)
    inst.mem.free(B.size)
    return result


def _trace_band_linear(
    a,
    b,
    scheme: ScoringScheme,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    B: np.ndarray,
    width: int,
    inst: KernelInstruments,
    t0: float,
    attempts: int = 1,
) -> BandedResult:
    """Traceback through a filled linear band ``B``.

    Same DIAG > DOWN > LEFT preference as the full-matrix traceback, so a
    certified band reproduces it.  The hot loop reads the band through a
    zero-copy memoryview (plain Python ints, no numpy scalar boxing).
    """
    m, n = len(a), len(b)
    gap = int(scheme.gap_open)
    dmin, dmax = band_range(m, n, width)
    W = dmax - dmin + 1

    corner_t = n - m - dmin
    score = int(B[m, corner_t])
    if score <= _HALF:
        raise PathError("band does not admit any complete path (internal error)")

    Bv = memoryview(B)
    al = a_codes.tolist()
    bl = b_codes.tolist()
    tbl = scheme.matrix.table.tolist()
    builder = PathBuilder((m, n))
    touches = False
    i, t = m, corner_t
    while True:
        j = i + dmin + t
        if i == 0 or j == 0:
            break
        if t == 0 or t == W - 1:
            touches = True
        h = Bv[i, t]
        s_ij = tbl[al[i - 1]][bl[j - 1]]
        if Bv[i - 1, t] > _HALF and h == Bv[i - 1, t] + s_ij:
            i -= 1  # diagonal: same t
        elif t + 1 < W and Bv[i - 1, t + 1] > _HALF and h == Bv[i - 1, t + 1] + gap:
            i -= 1
            t += 1
        elif t - 1 >= 0 and Bv[i, t - 1] > _HALF and h == Bv[i, t - 1] + gap:
            t -= 1
        else:
            raise PathError(f"banded traceback stuck at ({i}, {j})")
        builder.append((i, i + dmin + t))
    builder.extend_to_origin()

    alignment = alignment_from_path(
        a, b, builder.finalize(), score,
        algorithm=f"banded(w={width})",
        stats=_finish_stats(inst, t0, attempts),
    )
    return BandedResult(
        alignment=alignment, width=width, touches_edge=touches,
        attempts=attempts,
    )


def banded_align_auto(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    initial_width: int = 16,
    max_width: Optional[int] = None,
    instruments: Optional[KernelInstruments] = None,
) -> BandedResult:
    """Banded alignment with the doubling heuristic.

    Doubles the band width until the score stops improving (the standard
    convergence test); at that point the result is almost always the true
    global optimum for realistic scoring schemes — use
    :func:`banded_align_exact` for a guarantee.  Reaching a width that
    covers the matrix clamps to full DP (``tier="full"``), where
    exactness holds trivially.
    """
    if initial_width < 1:
        raise ConfigError(f"initial_width must be >= 1, got {initial_width}")
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    limit = max_width or max(len(a), len(b), 1)
    width = min(initial_width, limit)
    attempts = 1
    best = banded_align(a, b, scheme, width=width, instruments=instruments)
    while width < limit and best.tier != "full":
        width = min(2 * width, limit)
        attempts += 1
        nxt = banded_align(a, b, scheme, width=width, instruments=instruments)
        nxt.attempts = attempts
        if nxt.alignment.score == best.alignment.score and not best.touches_edge:
            best.attempts = attempts
            return best
        if nxt.alignment.score == best.alignment.score:
            return nxt
        best = nxt
    best.attempts = attempts
    return best


def banded_align_exact(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    band: Union[int, str] = "auto",
    max_width: Optional[int] = None,
    instruments: Optional[KernelInstruments] = None,
    on_give_up: str = "full",
) -> Optional[BandedResult]:
    """Verify-or-widen banded alignment, bit-identical to full DP.

    Runs :func:`banded_align` at doubling widths until the escape-bound
    certificate proves the result exact (``certified=True``), the band
    crosses over to full DP, or ``max_width`` is exceeded.  ``band`` is
    the starting half-width (``"auto"`` picks a small default).

    ``on_give_up`` controls what happens when ``max_width`` stops the
    loop before certification: ``"full"`` (default) completes with a
    dense full-DP solve (``tier="full"``); ``"none"`` returns ``None``
    so the caller can fall back to its own exact algorithm — the
    :func:`~repro.core.fastlsa.fastlsa` integration uses this to
    preserve linear space.
    """
    if on_give_up not in ("full", "none"):
        raise ConfigError(
            f"on_give_up must be 'full' or 'none', got {on_give_up!r}"
        )
    if band == "auto":
        width = DEFAULT_INITIAL_WIDTH
    elif isinstance(band, int) and not isinstance(band, bool) and band >= 1:
        width = band
    else:
        raise ConfigError(f"band must be an integer >= 1 or 'auto', got {band!r}")
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    inst = instruments or KernelInstruments()
    t0 = time.perf_counter()
    m, n = len(a), len(b)
    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    table = scheme.matrix.table
    provider = registry.active("linear" if scheme.is_linear else "affine")

    # Fill-only attempts: traceback is paid exactly once, at the width
    # that certifies (uncertified fills are discarded score-checked).
    attempts = 0
    while True:
        attempts += 1
        if max_width is not None and width > max_width:
            if on_give_up == "none":
                return None
            return _full_align(a, b, scheme, inst, t0, width, attempts)
        if width >= min(m, n):
            return _full_align(a, b, scheme, inst, t0, width, attempts)
        dmin, _ = band_range(m, n, width)
        corner_t = n - m - dmin
        if scheme.is_linear:
            B = provider.band_fill(a_codes, b_codes, table, scheme.gap_open,
                                   width, inst.ops)
            score = int(B[m, corner_t])
            resident = B.size
        else:
            BH, BE, BF = provider.band_fill(
                a_codes, b_codes, table, scheme.gap_open, scheme.gap_extend,
                width, inst.ops,
            )
            score = int(BH[m, corner_t])
            resident = 3 * BH.size
        bound = escape_bound(m, n, width, scheme)
        if bound is None or score > bound:
            inst.mem.alloc(resident)
            if scheme.is_linear:
                res = _trace_band_linear(a, b, scheme, a_codes, b_codes, B,
                                         width, inst, t0, attempts)
            else:
                res = _trace_band_affine(a, b, scheme, a_codes, b_codes,
                                         BH, BE, BF, width, inst, t0, attempts)
            inst.mem.free(resident)
            res.certified = True
            return res
        # Jump to the smallest width whose bound this score already
        # beats (monotone, so that fill certifies) — never narrower
        # than a doubling.
        width = max(2 * width, _min_certifying_width(m, n, scheme, score, width))


def banded_score(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    band: Union[int, str] = "auto",
    max_width: Optional[int] = None,
) -> BandedScore:
    """Exact global *score* via fill-only verify-or-widen.

    The score-only twin of :func:`banded_align_exact` for quick-score
    paths (:func:`repro.core.batch.batch_align`): no traceback, no path,
    just the certified score and the work it took.  Crosses over to a
    linear-space full-width sweep when the band stops paying off.
    """
    if band == "auto":
        width = DEFAULT_INITIAL_WIDTH
    elif isinstance(band, int) and not isinstance(band, bool) and band >= 1:
        width = band
    else:
        raise ConfigError(f"band must be an integer >= 1 or 'auto', got {band!r}")
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    m, n = len(a), len(b)
    table = scheme.matrix.table
    kind = "linear" if scheme.is_linear else "affine"
    provider = registry.active(kind)
    from ..kernels.ops import OpCounter

    counter = OpCounter()
    attempts = 0
    while width < min(m, n) and (max_width is None or width <= max_width):
        attempts += 1
        dmin, _ = band_range(m, n, width)
        corner_t = n - m - dmin
        if scheme.is_linear:
            B = provider.band_fill(a_codes, b_codes, table, scheme.gap_open,
                                   width, counter)
            score = int(B[m, corner_t])
        else:
            BH, _, _ = provider.band_fill(
                a_codes, b_codes, table, scheme.gap_open, scheme.gap_extend,
                width, counter,
            )
            score = int(BH[m, corner_t])
        bound = escape_bound(m, n, width, scheme)
        if bound is None or score > bound:
            return BandedScore(score=score, width=width, tier="banded",
                               attempts=attempts, cells=counter.cells)
        width = max(2 * width, _min_certifying_width(m, n, scheme, score, width))

    # Crossover: one linear-space full-width sweep.
    attempts += 1
    if scheme.is_linear:
        fr, fc = boundary_vectors(m, n, scheme.gap_open)
        last_row, _ = provider.sweep_last_row_col(
            a_codes, b_codes, table, scheme.gap_open, fr, fc, counter
        )
        score = int(last_row[-1])
    else:
        rh, rf, ch, ce = affine_boundaries(m, n, scheme.gap_open, scheme.gap_extend)
        last_row_h, _, _, _ = provider.sweep_last_row_col(
            a_codes, b_codes, table, scheme.gap_open, scheme.gap_extend,
            rh, rf, ch, ce, counter,
        )
        score = int(last_row_h[-1])
    return BandedScore(score=score, width=width, tier="full",
                       attempts=attempts, cells=counter.cells)


# ----------------------------------------------------------------------
# affine-gap band
# ----------------------------------------------------------------------
def _banded_align_affine(
    a,
    b,
    scheme: ScoringScheme,
    width: int,
    inst: KernelInstruments,
    t0: float,
) -> BandedResult:
    """Gotoh DP in band coordinates ``t = j − i − dmin``.

    Fill via :mod:`repro.kernels.banddp` (or its compiled twin); layered
    traceback with the same DIAG > E > F preference as the full-matrix
    traceback.  Column-0 boundary cells carry the leading-gap run in both
    ``H`` and ``F`` so a run may continue off the boundary column without
    re-opening.
    """
    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    provider = registry.active("affine")
    BH, BE, BF = provider.band_fill(
        a_codes, b_codes, scheme.matrix.table,
        scheme.gap_open, scheme.gap_extend, width, inst.ops,
    )
    inst.mem.alloc(3 * BH.size)
    result = _trace_band_affine(
        a, b, scheme, a_codes, b_codes, BH, BE, BF, width, inst, t0
    )
    inst.mem.free(3 * BH.size)
    return result


def _trace_band_affine(
    a,
    b,
    scheme: ScoringScheme,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    BH: np.ndarray,
    BE: np.ndarray,
    BF: np.ndarray,
    width: int,
    inst: KernelInstruments,
    t0: float,
    attempts: int = 1,
) -> BandedResult:
    """Layered traceback through filled affine bands (memoryview reads)."""
    from ..align.path import Layer

    m, n = len(a), len(b)
    open_, extend = int(scheme.gap_open), int(scheme.gap_extend)
    dmin, dmax = band_range(m, n, width)
    W = dmax - dmin + 1

    corner_t = n - m - dmin
    score = int(BH[m, corner_t])
    if score <= _HALF:
        raise PathError("band does not admit any complete path (internal error)")

    Hv, Ev, Fv = memoryview(BH), memoryview(BE), memoryview(BF)
    al = a_codes.tolist()
    bl = b_codes.tolist()
    tbl = scheme.matrix.table.tolist()
    builder = PathBuilder((m, n))
    touches = False
    i, t = m, corner_t
    layer = Layer.H
    while True:
        j = i + dmin + t
        if i == 0 or j == 0:
            break
        if t == 0 or t == W - 1:
            touches = True
        if layer is Layer.H:
            h = Hv[i, t]
            s_ij = tbl[al[i - 1]][bl[j - 1]]
            if Hv[i - 1, t] > _HALF and h == Hv[i - 1, t] + s_ij:
                i -= 1
                builder.append((i, i + dmin + t))
            elif h == Ev[i, t]:
                layer = Layer.E
            elif h == Fv[i, t]:
                layer = Layer.F
            else:
                raise PathError(f"banded affine traceback stuck at ({i}, {j}) in H")
        elif layer is Layer.E:
            ev = Ev[i, t]
            if t >= 1 and Hv[i, t - 1] > _HALF and ev == Hv[i, t - 1] + open_:
                layer = Layer.H
            elif t >= 1 and Ev[i, t - 1] > _HALF and ev == Ev[i, t - 1] + extend:
                pass
            else:
                raise PathError(f"banded affine traceback stuck at ({i}, {j}) in E")
            t -= 1
            builder.append((i, i + dmin + t))
        else:
            fv = Fv[i, t]
            if t + 1 < W and Hv[i - 1, t + 1] > _HALF and fv == Hv[i - 1, t + 1] + open_:
                layer = Layer.H
            elif t + 1 < W and Fv[i - 1, t + 1] > _HALF and fv == Fv[i - 1, t + 1] + extend:
                pass
            else:
                raise PathError(f"banded affine traceback stuck at ({i}, {j}) in F")
            i -= 1
            t += 1
            builder.append((i, i + dmin + t))
    builder.extend_to_origin()

    alignment = alignment_from_path(
        a, b, builder.finalize(), score,
        algorithm=f"banded-affine(w={width})",
        stats=_finish_stats(inst, t0, attempts),
    )
    return BandedResult(
        alignment=alignment, width=width, touches_edge=touches,
        attempts=attempts,
    )
