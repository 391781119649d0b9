"""Tests for repro.align.fasta."""

import io

import pytest

from repro.align import Sequence, format_fasta, parse_fasta, read_fasta, write_fasta
from repro.errors import FastaError


SAMPLE = """>seq1 first sequence
ACGTACGT
ACGT
>seq2
TTTT

>seq3 trailing description here
"""


class TestParse:
    def test_multi_record(self):
        recs = list(parse_fasta(io.StringIO(SAMPLE)))
        assert [r.name for r in recs] == ["seq1", "seq2", "seq3"]
        assert recs[0].text == "ACGTACGTACGT"
        assert recs[0].description == "first sequence"
        assert recs[1].text == "TTTT"
        assert recs[2].text == ""

    def test_data_before_header_rejected(self):
        with pytest.raises(FastaError):
            list(parse_fasta(io.StringIO("ACGT\n>x\n")))

    def test_empty_header_rejected(self):
        with pytest.raises(FastaError):
            list(parse_fasta(io.StringIO(">\nACGT\n")))

    def test_empty_stream(self):
        assert list(parse_fasta(io.StringIO(""))) == []

    def test_internal_whitespace_rejected(self):
        with pytest.raises(FastaError):
            list(parse_fasta(io.StringIO(">x\nAC GT\n")))

    @pytest.mark.parametrize("ws", ["\u00a0", "\u2028", "\x1c", "\u3000", "\t"])
    def test_unicode_whitespace_rejected(self, ws):
        with pytest.raises(FastaError, match="whitespace"):
            list(parse_fasta(io.StringIO(f">x\nAC{ws}GT\n")))


class TestFormat:
    def test_wrapping(self):
        text = format_fasta([Sequence("A" * 150, name="x")], width=70)
        lines = text.strip().split("\n")
        assert lines[0] == ">x"
        assert len(lines[1]) == 70
        assert len(lines[2]) == 70
        assert len(lines[3]) == 10

    def test_description_in_header(self):
        text = format_fasta([Sequence("A", name="x", description="desc here")])
        assert text.startswith(">x desc here\n")

    def test_bad_width(self):
        with pytest.raises(FastaError):
            format_fasta([Sequence("A", name="x")], width=0)


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "test.fasta"
        records = [
            Sequence("ACGTACGT" * 20, name="alpha", description="first"),
            Sequence("TTTTAAAA", name="beta"),
        ]
        write_fasta(path, records)
        loaded = read_fasta(path)
        assert len(loaded) == 2
        assert loaded[0].text == records[0].text
        assert loaded[0].name == "alpha"
        assert loaded[1].text == records[1].text

    def test_read_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.fasta"
        path.write_text("")
        with pytest.raises(FastaError):
            read_fasta(path)
