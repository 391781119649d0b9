"""Profile (PSSM) construction and sequence-to-profile alignment.

A *profile* summarises an MSA column-wise: per-column residue frequencies
plus gap occupancy.  Aligning a new sequence against a profile scores
each (residue, column) pair by the frequency-weighted mean substitution
score — the core of progressive-alignment tools.

The DP is plain global alignment with a position-specific score matrix:
the row sweep builds per-column score vectors once
(``profile_scores``), after which the standard linear-gap prefix-scan
kernel applies unchanged over a virtual "profile alphabet" of one symbol
per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..align.alignment import GAP
from ..align.path import AlignmentPath, PathBuilder
from ..align.sequence import Sequence, as_sequence
from ..errors import ConfigError
from ..kernels.ops import KernelInstruments
from ..scoring.scheme import ScoringScheme
from .star import MultipleAlignment

__all__ = ["Profile", "ProfileAlignment", "build_profile", "align_to_profile"]


@dataclass
class Profile:
    """Column-wise residue frequencies of an MSA.

    Attributes
    ----------
    alphabet:
        Residue alphabet (the scoring matrix's).
    freqs:
        ``(columns, |alphabet|)`` float array of per-column residue
        frequencies over non-gap symbols.
    gap_fraction:
        Per-column fraction of gap symbols.
    """

    alphabet: str
    freqs: np.ndarray
    gap_fraction: np.ndarray

    @property
    def width(self) -> int:
        """Number of profile columns."""
        return self.freqs.shape[0]

    def consensus(self) -> str:
        """Most frequent residue per column (gap where a column is all-gap)."""
        out = []
        for c in range(self.width):
            if self.freqs[c].sum() <= 0:
                out.append(GAP)
            else:
                out.append(self.alphabet[int(np.argmax(self.freqs[c]))])
        return "".join(out)

    def profile_scores(self, scheme: ScoringScheme) -> np.ndarray:
        """Position-specific score matrix.

        ``pssm[c, code]`` is the frequency-weighted mean substitution
        score of residue ``code`` against column ``c``, rounded to the
        integer grid the kernels require.  Gap occupancy discounts the
        column (a residue aligned to a mostly-gap column scores towards
        the gap penalty).
        """
        table = scheme.matrix.table.astype(np.float64)
        raw = self.freqs @ table  # (columns, |alphabet|)
        gap_term = self.gap_fraction[:, None] * scheme.gap_open
        return np.round(raw + gap_term).astype(np.int64)


def build_profile(msa: MultipleAlignment, scheme: ScoringScheme) -> Profile:
    """Build a :class:`Profile` from an MSA under a scheme's alphabet."""
    alphabet = scheme.alphabet
    index = {sym: i for i, sym in enumerate(alphabet)}
    width = msa.width
    freqs = np.zeros((width, len(alphabet)), dtype=np.float64)
    gaps = np.zeros(width, dtype=np.float64)
    depth = len(msa)
    if depth == 0 or width == 0:
        return Profile(alphabet=alphabet, freqs=freqs, gap_fraction=gaps)
    for row in msa.rows:
        for c, ch in enumerate(row):
            if ch == GAP:
                gaps[c] += 1
            else:
                try:
                    freqs[c, index[ch]] += 1
                except KeyError:
                    raise ConfigError(
                        f"MSA symbol {ch!r} outside scheme alphabet {alphabet!r}"
                    ) from None
    freqs /= depth
    gaps /= depth
    return Profile(alphabet=alphabet, freqs=freqs, gap_fraction=gaps)


@dataclass
class ProfileAlignment:
    """Result of aligning a sequence against a profile.

    ``gapped_seq`` / ``gapped_consensus`` render the alignment against the
    profile's consensus string; ``path`` spans the ``(len(seq), width)``
    DPM.
    """

    sequence: Sequence
    profile: Profile
    score: int
    path: AlignmentPath
    gapped_seq: str
    gapped_consensus: str


def align_to_profile(
    seq,
    profile: Profile,
    scheme: ScoringScheme,
    instruments: Optional[KernelInstruments] = None,
) -> ProfileAlignment:
    """Globally align ``seq`` (rows) against ``profile`` columns.

    Linear gap models only (profiles fold gap occupancy into the PSSM).
    """
    if not scheme.is_linear:
        raise ConfigError("profile alignment supports linear gap models only")
    s = as_sequence(seq, "query")
    inst = instruments or KernelInstruments()
    codes = scheme.encode(s.text)
    m, n = len(s), profile.width
    gap = scheme.gap_open
    pssm = profile.profile_scores(scheme)  # (n, |alphabet|)

    H = np.empty((m + 1, n + 1), dtype=np.int64)
    H[0, :] = np.arange(n + 1, dtype=np.int64) * gap
    H[:, 0] = np.arange(m + 1, dtype=np.int64) * gap
    inst.mem.alloc(H.size)
    inst.ops.add_cells(m * n)
    if m and n:
        t = np.empty(n + 1, dtype=np.int64)
        gj = np.arange(n + 1, dtype=np.int64) * gap
        col_scores = pssm[:, :]  # (n, A)
        for i in range(1, m + 1):
            srow = col_scores[:, codes[i - 1]]
            prev = H[i - 1]
            v = np.maximum(prev[:-1] + srow, prev[1:] + gap)
            t[0] = H[i, 0]
            np.subtract(v, gj[1:], out=t[1:])
            np.maximum.accumulate(t, out=t)
            row = H[i]
            np.add(t, gj, out=row)
            row[0] = gap * i

    score = int(H[m, n])
    # Traceback: reuse the linear traceback with a virtual column sequence
    # of one distinct symbol per profile column and the PSSM transposed
    # into a (A, n)-shaped lookup.
    builder = PathBuilder((m, n))
    pts = _trace_profile(H, codes, pssm, gap, m, n)
    builder.extend(pts)
    builder.extend_to_origin()
    path = builder.finalize()
    inst.mem.free(H.size)

    consensus = profile.consensus()
    ga, gc = [], []
    pi = pj = 0
    for (i0, j0), (i1, j1) in zip(path.points, path.points[1:]):
        if (i1 - i0, j1 - j0) == (1, 1):
            ga.append(s.text[i0])
            gc.append(consensus[j0])
        elif (i1 - i0, j1 - j0) == (1, 0):
            ga.append(s.text[i0])
            gc.append(GAP)
        else:
            ga.append(GAP)
            gc.append(consensus[j0])
    return ProfileAlignment(
        sequence=s,
        profile=profile,
        score=score,
        path=path,
        gapped_seq="".join(ga),
        gapped_consensus="".join(gc),
    )


def _trace_profile(H, codes, pssm, gap, start_i, start_j) -> List[Tuple[int, int]]:
    """Traceback over a PSSM-scored matrix (column-indexed scores)."""
    from ..errors import PathError

    i, j = start_i, start_j
    points: List[Tuple[int, int]] = []
    while i > 0 and j > 0:
        h = H[i, j]
        if h == H[i - 1, j - 1] + pssm[j - 1, codes[i - 1]]:
            i -= 1
            j -= 1
        elif h == H[i - 1, j] + gap:
            i -= 1
        elif h == H[i, j - 1] + gap:
            j -= 1
        else:
            raise PathError(f"profile traceback stuck at ({i}, {j})")
        points.append((i, j))
    return points
