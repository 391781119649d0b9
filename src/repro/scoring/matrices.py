"""Substitution-matrix core type.

A :class:`SubstitutionMatrix` couples an *alphabet* (an ordered string of
unique symbols) with an integer score table.  All dynamic-programming
kernels in :mod:`repro.kernels` work on **encoded** sequences — arrays of
small integer codes indexing into the table — so the matrix also provides
the encoder.

Scores are integers throughout the library, mirroring the paper (Section
1.1: the Dayhoff-derived table "has been scaled so that each entry is a
non-negative integer") and keeping the numpy scan kernels exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..errors import AlphabetError, ScoringError

__all__ = ["SubstitutionMatrix", "identity_matrix", "match_mismatch_matrix"]


@dataclass(frozen=True)
class SubstitutionMatrix:
    """An alphabet plus a square integer similarity table.

    Parameters
    ----------
    alphabet:
        Ordered string of unique symbols, e.g. ``"ACGT"`` or the 20 amino
        acid one-letter codes.  Symbol *i* of this string has code *i*.
    table:
        ``(len(alphabet), len(alphabet))`` array-like of integer scores.
        Must be symmetric unless ``require_symmetric=False`` is passed to
        :meth:`from_table`.
    name:
        Human-readable name used in reports ("BLOSUM62", "MDM78-sample").
    """

    alphabet: str
    table: np.ndarray
    name: str = "custom"
    _code_of: Mapping[str, int] = field(init=False, repr=False, compare=False, default=None)
    _lut: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.alphabet:
            raise ScoringError("alphabet must be non-empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ScoringError(f"alphabet has duplicate symbols: {self.alphabet!r}")
        table = np.asarray(self.table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ScoringError(f"score table must be square, got shape {table.shape}")
        if table.shape[0] != len(self.alphabet):
            raise ScoringError(
                f"table size {table.shape[0]} does not match alphabet size {len(self.alphabet)}"
            )
        if not np.issubdtype(table.dtype, np.integer):
            if np.any(table != np.round(table)):
                raise ScoringError("score table must contain integers")
        table = table.astype(np.int64, copy=True)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(
            self, "_code_of", {sym: i for i, sym in enumerate(self.alphabet)}
        )
        # Code-point lookup table for encode(): one entry per code point up
        # to the alphabet's highest (at least the 256 of Latin-1), plus a
        # last -1 entry that every higher code point is clipped onto.
        size = max(256, max(map(ord, self.alphabet)) + 1)
        lut = np.full(size + 1, -1, dtype=np.int16)
        for i, sym in enumerate(self.alphabet):
            lut[ord(sym)] = i
        lut.setflags(write=False)
        object.__setattr__(self, "_lut", lut)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        alphabet: str,
        table: Iterable[Iterable[int]],
        name: str = "custom",
        require_symmetric: bool = True,
    ) -> "SubstitutionMatrix":
        """Build a matrix, optionally verifying symmetry."""
        arr = np.asarray(list(list(row) for row in table), dtype=np.int64)
        mat = cls(alphabet=alphabet, table=arr, name=name)
        if require_symmetric and not np.array_equal(mat.table, mat.table.T):
            raise ScoringError(f"score table for {name!r} is not symmetric")
        return mat

    @classmethod
    def from_pairs(
        cls,
        alphabet: str,
        pairs: Mapping[tuple[str, str], int],
        default: int = 0,
        name: str = "custom",
    ) -> "SubstitutionMatrix":
        """Build a symmetric matrix from a sparse ``{(a, b): score}`` mapping.

        Pairs are mirrored automatically; unspecified entries take
        ``default``.
        """
        n = len(alphabet)
        arr = np.full((n, n), int(default), dtype=np.int64)
        index = {sym: i for i, sym in enumerate(alphabet)}
        for (a, b), score in pairs.items():
            if a not in index or b not in index:
                raise ScoringError(f"pair ({a!r}, {b!r}) outside alphabet {alphabet!r}")
            arr[index[a], index[b]] = int(score)
            arr[index[b], index[a]] = int(score)
        return cls(alphabet=alphabet, table=arr, name=name)

    # ------------------------------------------------------------------
    # encoding / lookup
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of symbols in the alphabet."""
        return len(self.alphabet)

    def encode(self, text: str) -> np.ndarray:
        """Encode ``text`` into an ``int16`` code array (one table lookup
        per symbol's code point).

        Raises
        ------
        AlphabetError
            If any symbol is not part of the alphabet.
        """
        if not isinstance(text, str):
            text = "".join(text)  # a Sequence, or any iterable of symbols
        lut = self._lut
        points = np.frombuffer(
            text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32
        )
        codes = lut[np.minimum(points, len(lut) - 1)]
        if (codes < 0).any():
            i = int(np.argmax(codes < 0))
            raise AlphabetError(
                f"symbol {text[i]!r} at position {i} is not in alphabet "
                f"{self.alphabet!r} of matrix {self.name!r}"
            )
        return codes

    def decode(self, codes: np.ndarray) -> str:
        """Inverse of :meth:`encode`."""
        return "".join(self.alphabet[int(c)] for c in codes)

    def score(self, a: str, b: str) -> int:
        """Similarity score of a single symbol pair."""
        try:
            return int(self.table[self._code_of[a], self._code_of[b]])
        except KeyError as exc:
            raise AlphabetError(
                f"symbol {exc.args[0]!r} not in alphabet {self.alphabet!r}"
            ) from None

    def row_profile(self, code: int, b_codes: np.ndarray) -> np.ndarray:
        """Scores of symbol ``code`` against every position of ``b_codes``.

        This is the per-row score vector consumed by the row-sweep kernels:
        ``profile[j] == table[code, b_codes[j]]``.
        """
        return self.table[int(code)][b_codes]

    def min_score(self) -> int:
        """Smallest entry of the table (used for bounds/sanity checks)."""
        return int(self.table.min())

    def max_score(self) -> int:
        """Largest entry of the table."""
        return int(self.table.max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SubstitutionMatrix({self.name!r}, alphabet={self.alphabet!r})"


def identity_matrix(alphabet: str, match: int = 1, mismatch: int = 0, name: str | None = None) -> SubstitutionMatrix:
    """Diagonal ``match`` / off-diagonal ``mismatch`` matrix over ``alphabet``."""
    n = len(alphabet)
    table = np.full((n, n), int(mismatch), dtype=np.int64)
    np.fill_diagonal(table, int(match))
    return SubstitutionMatrix(
        alphabet=alphabet,
        table=table,
        name=name or f"identity({match}/{mismatch})",
    )


def match_mismatch_matrix(match: int = 5, mismatch: int = -4, alphabet: str = "ACGT", name: str | None = None) -> SubstitutionMatrix:
    """Classic DNA match/mismatch matrix (EDNAFULL-style defaults +5/−4)."""
    return identity_matrix(alphabet, match=match, mismatch=mismatch, name=name or f"dna({match}/{mismatch})")
