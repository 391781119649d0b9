"""Biological sequence type.

A :class:`Sequence` is an immutable named string.  Encoding into matrix
codes is done lazily per scoring matrix by the algorithms; the type itself
is alphabet-agnostic so the same object can be scored under different
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SequenceError

__all__ = ["Sequence", "as_sequence"]


@dataclass(frozen=True)
class Sequence:
    """An immutable, named biological sequence.

    Attributes
    ----------
    text:
        The residue string (DNA bases or amino-acid one-letter codes).
    name:
        Identifier used in FASTA output and reports.
    description:
        Optional free-text description (the remainder of a FASTA header).
    """

    text: str
    name: str = "seq"
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise SequenceError(f"sequence text must be str, got {type(self.text).__name__}")
        if not self.name:
            raise SequenceError("sequence name must be non-empty")
        # str.split() breaks on exactly the str.isspace() characters.
        if self.text and self.text.split() != [self.text]:
            raise SequenceError(f"sequence {self.name!r} contains whitespace")

    def __len__(self) -> int:
        return len(self.text)

    def __getitem__(self, idx) -> str:
        return self.text[idx]

    def __iter__(self):
        return iter(self.text)

    @property
    def is_empty(self) -> bool:
        """True when the sequence has no residues."""
        return len(self.text) == 0

    def reversed(self) -> "Sequence":
        """The reverse sequence (used by Hirschberg's backward sweeps)."""
        return Sequence(text=self.text[::-1], name=f"{self.name}(rev)", description=self.description)

    def slice(self, start: int, stop: int) -> "Sequence":
        """Subsequence ``text[start:stop]`` with a derived name."""
        if not (0 <= start <= stop <= len(self.text)):
            raise SequenceError(
                f"invalid slice [{start}:{stop}] of sequence {self.name!r} (length {len(self.text)})"
            )
        return Sequence(
            text=self.text[start:stop],
            name=f"{self.name}[{start}:{stop}]",
            description=self.description,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = self.text if len(self.text) <= 12 else self.text[:9] + "..."
        return f"Sequence({self.name!r}, {preview!r}, len={len(self.text)})"


def as_sequence(obj, name: str = "seq") -> Sequence:
    """Coerce a :class:`Sequence` or plain string into a :class:`Sequence`."""
    if isinstance(obj, Sequence):
        return obj
    if isinstance(obj, str):
        return Sequence(text=obj, name=name)
    raise SequenceError(f"cannot interpret {type(obj).__name__} as a sequence")
