"""Ends-free alignment modes (semiglobal / overlap), FastLSA-backed.

The paper treats global alignment; practical homology search also needs
*ends-free* variants where gaps at chosen sequence ends are unpenalised:

* **semiglobal** ("glocal"): a query aligned wholly inside a target —
  leading and trailing *target* symbols are free;
* **overlap** (dovetail): a suffix of one sequence against a prefix of
  the other, as in read assembly;
* arbitrary combinations via :class:`EndsFree` flags.

The construction mirrors :mod:`repro.core.local`'s three phases, all in
linear space (the two bracketing sweeps run on the configured kernel
tier):

1. a rolling forward sweep with zeroed boundaries on the *free-start*
   sides finds the best score over the *free-end* region;
2. a rolling global sweep over the reversed bracketed prefixes finds the
   matching start cell (skipped prefixes cost nothing, so the bracketed
   global score must equal the best);
3. FastLSA aligns the bracketed sub-sequences exactly.

Scores follow the ends-free convention: skipped end segments contribute 0.
The returned :class:`EndsFreeAlignment` carries the fully-validated inner
global alignment plus the skip offsets, and can render the conventional
padded view.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..align.alignment import Alignment
from ..align.sequence import as_sequence
from ..kernels import registry
from ..kernels.affine import NEG_INF
from ..kernels.ops import KernelInstruments
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from .config import FastLSAConfig, resolve_config
from .fastlsa import fastlsa

__all__ = [
    "EndsFree",
    "EndsFreeAlignment",
    "ends_free_align",
    "semiglobal_align",
    "overlap_align",
]


@dataclass(frozen=True)
class EndsFree:
    """Which sequence ends may be skipped without penalty.

    ``a`` indexes DPM rows, ``b`` columns.  All-``False`` is plain global
    alignment.  Ends-free semantics are the classic boundary convention:
    the alignment starts on DPM row 0 *or* column 0 (a prefix of at most
    one sequence is skipped, gated by the ``*_start`` flags) and ends on
    the last row *or* last column (``*_end`` flags).  Skipping prefixes
    (or suffixes) of *both* sequences simultaneously is local alignment —
    use :func:`repro.core.local.fastlsa_local` for that.
    """

    a_start: bool = False
    a_end: bool = False
    b_start: bool = False
    b_end: bool = False

    @property
    def any(self) -> bool:
        """True when at least one end is free."""
        return self.a_start or self.a_end or self.b_start or self.b_end


@dataclass
class EndsFreeAlignment:
    """Result of an ends-free alignment.

    Attributes
    ----------
    alignment:
        Validated global :class:`Alignment` of the bracketed cores
        ``a[a_start:a_end]`` / ``b[b_start:b_end]``.
    a_start, a_end, b_start, b_end:
        The bracketed (aligned) ranges; skipped end segments lie outside.
    score:
        The ends-free score (skipped segments contribute 0).
    free:
        The flag set the alignment was computed under.
    """

    alignment: Alignment
    a_start: int
    a_end: int
    b_start: int
    b_end: int
    score: int
    free: EndsFree

    def render(self, width: int = 60) -> str:
        """Conventional padded view: skipped ends shown against gaps."""
        from ..align.format import format_alignment

        seq_a = self.alignment.seq_a
        seq_b = self.alignment.seq_b
        header = (
            f"# ends-free score={self.score}  "
            f"a[{self.a_start}:{self.a_end}] x b[{self.b_start}:{self.b_end}]  "
            f"free={self.free}"
        )
        return header + "\n" + format_alignment(self.alignment, width=width, show_header=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EndsFreeAlignment(score={self.score}, "
            f"a[{self.a_start}:{self.a_end}], b[{self.b_start}:{self.b_end}])"
        )


def _boundaries(scheme: ScoringScheme, M: int, N: int, free_rows: bool, free_cols: bool):
    """Row-0 / col-0 H boundaries with optional zeroing."""
    if free_cols:
        row = np.zeros(N + 1, dtype=np.int64)
    else:
        row = scheme.boundary_row(N)
    if free_rows:
        col = np.zeros(M + 1, dtype=np.int64)
    else:
        col = scheme.boundary_row(M)
    return row, col


def _sweep_best(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    free_a_start: bool,
    free_b_start: bool,
    end_rows_free: bool,
    end_cols_free: bool,
    counter,
) -> Tuple[int, int, int]:
    """Rolling sweep; returns ``(best, i, j)`` over the allowed end region.

    The end region is: the corner always; the last column for any ``i``
    when ``end_rows_free`` (trailing ``a`` skippable); the last row for
    any ``j`` when ``end_cols_free`` (trailing ``b`` skippable).  One
    last-row/last-column sweep on the active kernel tier; candidates are
    taken in that order with strict ``>``, so ties keep the first.
    """
    M, N = len(a_codes), len(b_codes)
    row_h, col_h = _boundaries(scheme, M, N, free_a_start, free_b_start)

    best, bi, bj = None, 0, 0

    def consider(value: int, i: int, j: int) -> None:
        nonlocal best, bi, bj
        if best is None or value > best:
            best, bi, bj = int(value), i, j

    # Row-0 end candidates: (0, N) skips all of a (needs end_rows_free,
    # or M == 0 where row 0 is the last row).  (0, j) with j < N is only
    # a legal end when row 0 IS the last row (M == 0): otherwise it would
    # skip trailing parts of both sequences, which is local alignment.
    if M == 0 or end_rows_free:
        consider(row_h[N], 0, N)
    if M == 0 and end_cols_free and N > 0:
        jm = int(np.argmax(row_h))
        consider(row_h[jm], 0, jm)
    if M == 0:
        return best, bi, bj
    if N == 0:
        consider(col_h[M], M, 0)
        if end_rows_free:
            im = int(np.argmax(col_h))
            consider(col_h[im], im, 0)
        return best, bi, bj

    table = scheme.matrix.table
    if scheme.is_linear:
        last_row, last_col = registry.active("linear").sweep_last_row_col(
            a_codes, b_codes, table, scheme.gap_open, row_h, col_h, counter
        )
    else:
        no_gap_row = np.full(N + 1, NEG_INF, dtype=np.int64)
        no_gap_col = np.full(M + 1, NEG_INF, dtype=np.int64)
        last_row, _, last_col, _ = registry.active("affine").sweep_last_row_col(
            a_codes, b_codes, table, scheme.gap_open, scheme.gap_extend,
            row_h, no_gap_row, col_h, no_gap_col, counter,
        )
    if end_rows_free:
        im = int(np.argmax(last_col))
        consider(last_col[im], im, N)
    consider(last_row[N], M, N)
    if end_cols_free:
        jm = int(np.argmax(last_row))
        consider(last_row[jm], M, jm)
    return best, bi, bj


def ends_free_align(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    free: EndsFree,
    k: Optional[int] = None,
    base_cells: Optional[int] = None,
    config: Optional[FastLSAConfig] = None,
    instruments: Optional[KernelInstruments] = None,
) -> EndsFreeAlignment:
    """Align under arbitrary ends-free flags, in linear space.

    The aligned core is bracketed by two rolling sweeps and solved
    exactly with FastLSA under the configured budget.  Parameterize via
    ``config=`` (``kernel`` selects the tier of both sweeps and of the
    core's FastLSA run, ``band`` applies to the core); the legacy ``k=`` /
    ``base_cells=`` keywords now raise ConfigError.
    """
    cfg = resolve_config(config, k, base_cells, where="ends_free_align")
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    inst = instruments or KernelInstruments()
    t0 = time.perf_counter()
    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)

    with registry.use(getattr(cfg, "kernel", None)):
        # Phase 1: best end over the free-end region.
        with obs.span("fastlsa.bracket", category="bracket", mode="ends_free",
                      phase="end", cells=len(a_codes) * len(b_codes)):
            best, ei, ej = _sweep_best(
                a_codes, b_codes, scheme,
                free_a_start=free.a_start, free_b_start=free.b_start,
                end_rows_free=free.a_end, end_cols_free=free.b_end,
                counter=inst.ops,
            )

        # Phase 2: best start via the reversed bracketed prefixes.  Skipped
        # prefixes cost nothing, so the global score of the bracketed core
        # equals `best`; the reversed sweep's free-END flags are the
        # original free-START flags.
        with obs.span("fastlsa.bracket", category="bracket", mode="ends_free",
                      phase="start", cells=ei * ej):
            rbest, ri, rj = _sweep_best(
                a_codes[:ei][::-1], b_codes[:ej][::-1], scheme,
                free_a_start=False, free_b_start=False,
                end_rows_free=free.a_start, end_cols_free=free.b_start,
                counter=inst.ops,
            )
    if rbest != best:
        raise AssertionError(
            f"ends-free sweeps disagree: {best} != {rbest} (library bug)"
        )
    si, sj = ei - ri, ej - rj

    # Phase 3: exact global alignment of the core.
    inner = fastlsa(
        a.slice(si, ei), b.slice(sj, ej), scheme, config=cfg, instruments=inst
    )
    inner.algorithm = "fastlsa-ends-free"
    inner.stats.wall_time = time.perf_counter() - t0
    if inner.score != best:
        raise AssertionError(
            f"bracketed core score {inner.score} != sweep best {best} (library bug)"
        )
    return EndsFreeAlignment(
        alignment=inner,
        a_start=si,
        a_end=ei,
        b_start=sj,
        b_end=ej,
        score=int(best),
        free=free,
    )


def semiglobal_align(
    query,
    target,
    scheme: ScoringScheme,
    **kwargs,
) -> EndsFreeAlignment:
    """Align ``query`` wholly inside ``target`` (free target ends).

    The query occupies DPM rows and must be fully consumed; leading and
    trailing target symbols are skipped free — the classic "fit" /
    glocal mode for finding a gene in a chromosome.
    """
    return ends_free_align(
        query, target, scheme,
        free=EndsFree(b_start=True, b_end=True), **kwargs,
    )


def overlap_align(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    **kwargs,
) -> EndsFreeAlignment:
    """Dovetail alignment: a suffix of ``seq_a`` against a prefix of
    ``seq_b`` (free leading ``a``, free trailing ``b``) — the
    read-assembly overlap mode."""
    return ends_free_align(
        seq_a, seq_b, scheme,
        free=EndsFree(a_start=True, b_end=True), **kwargs,
    )
