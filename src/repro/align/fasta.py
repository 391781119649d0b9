"""Minimal FASTA reader/writer.

Supports multi-record files, ``>name description`` headers, wrapped
sequence lines, and round-trips through :class:`~repro.align.sequence.Sequence`.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator, List, TextIO, Union

from ..errors import FastaError
from .sequence import Sequence

__all__ = ["read_fasta", "parse_fasta", "write_fasta", "format_fasta"]

PathLike = Union[str, os.PathLike]


def parse_fasta(stream: TextIO) -> Iterator[Sequence]:
    """Yield :class:`Sequence` records from an open FASTA text stream."""
    name: str | None = None
    description = ""
    chunks: List[str] = []
    lineno = 0
    for raw in stream:
        lineno += 1
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield Sequence(text="".join(chunks), name=name, description=description)
            header = line[1:].strip()
            if not header:
                raise FastaError(f"line {lineno}: empty FASTA header")
            parts = header.split(None, 1)
            name = parts[0]
            description = parts[1] if len(parts) > 1 else ""
            chunks = []
        else:
            if name is None:
                raise FastaError(f"line {lineno}: sequence data before any '>' header")
            if line.split() != [line]:  # any str.isspace() character
                raise FastaError(f"line {lineno}: whitespace inside sequence data")
            chunks.append(line)
    if name is not None:
        yield Sequence(text="".join(chunks), name=name, description=description)


def read_fasta(path: PathLike) -> List[Sequence]:
    """Read all records of a FASTA file."""
    with open(path, "r", encoding="utf-8") as fh:
        records = list(parse_fasta(fh))
    if not records:
        raise FastaError(f"{path}: no FASTA records found")
    return records


def format_fasta(records: Iterable[Sequence], width: int = 70) -> str:
    """Render records as FASTA text with lines wrapped at ``width``."""
    if width < 1:
        raise FastaError(f"line width must be >= 1, got {width}")
    buf = io.StringIO()
    for rec in records:
        header = rec.name if not rec.description else f"{rec.name} {rec.description}"
        buf.write(f">{header}\n")
        text = rec.text
        for start in range(0, len(text), width):
            buf.write(text[start : start + width])
            buf.write("\n")
        if not text:
            buf.write("\n")
    return buf.getvalue()


def write_fasta(path: PathLike, records: Iterable[Sequence], width: int = 70) -> None:
    """Write records to a FASTA file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_fasta(records, width=width))
