"""Tests for repro.align.sequence."""

import pytest

from repro.align import Sequence
from repro.align.sequence import as_sequence
from repro.errors import SequenceError


class TestSequence:
    def test_basic(self):
        s = Sequence("ACGT", name="x")
        assert len(s) == 4
        assert s[0] == "A"
        assert list(s) == ["A", "C", "G", "T"]
        assert not s.is_empty

    def test_empty_allowed(self):
        assert Sequence("", name="empty").is_empty

    def test_whitespace_rejected(self):
        with pytest.raises(SequenceError):
            Sequence("AC GT", name="x")

    @pytest.mark.parametrize(
        "text", ["AC\u00a0GT", "AC\u2028GT", "AC\x1cGT", "\u3000ACGT", "ACGT\t", " ", "\n\n"]
    )
    def test_every_str_isspace_character_rejected(self, text):
        assert any(ch.isspace() for ch in text)
        with pytest.raises(SequenceError, match="whitespace"):
            Sequence(text, name="x")

    def test_non_whitespace_unicode_allowed(self):
        assert Sequence("AC\u200bGT\u00e9", name="x").text == "AC\u200bGT\u00e9"

    def test_empty_name_rejected(self):
        with pytest.raises(SequenceError):
            Sequence("ACGT", name="")

    def test_non_string_rejected(self):
        with pytest.raises(SequenceError):
            Sequence(b"ACGT", name="x")

    def test_immutable(self):
        s = Sequence("ACGT", name="x")
        with pytest.raises(Exception):
            s.text = "TTTT"

    def test_reversed(self):
        s = Sequence("ACGT", name="x")
        r = s.reversed()
        assert r.text == "TGCA"
        assert "rev" in r.name

    def test_slice(self):
        s = Sequence("ACGTAC", name="x")
        sub = s.slice(1, 4)
        assert sub.text == "CGT"

    def test_slice_bounds_checked(self):
        s = Sequence("ACGT", name="x")
        with pytest.raises(SequenceError):
            s.slice(3, 1)
        with pytest.raises(SequenceError):
            s.slice(0, 5)

    def test_slice_empty(self):
        assert Sequence("ACGT", name="x").slice(2, 2).is_empty


class TestAsSequence:
    def test_passthrough(self):
        s = Sequence("ACGT", name="x")
        assert as_sequence(s) is s

    def test_from_string(self):
        s = as_sequence("ACGT", name="auto")
        assert isinstance(s, Sequence)
        assert s.text == "ACGT"
        assert s.name == "auto"

    def test_rejects_other_types(self):
        with pytest.raises(SequenceError):
            as_sequence(42)
