"""Tests for repro.scoring.matrices."""

import numpy as np
import pytest

from repro.errors import AlphabetError, ScoringError
from repro.scoring import (
    SubstitutionMatrix,
    identity_matrix,
    match_mismatch_matrix,
)


class TestConstruction:
    def test_basic(self):
        m = SubstitutionMatrix("AB", np.array([[1, 0], [0, 1]]))
        assert m.size == 2
        assert m.score("A", "A") == 1
        assert m.score("A", "B") == 0

    def test_table_becomes_int64_readonly(self):
        m = SubstitutionMatrix("AB", [[1, 0], [0, 1]])
        assert m.table.dtype == np.int64
        with pytest.raises(ValueError):
            m.table[0, 0] = 5

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ScoringError):
            SubstitutionMatrix("", np.zeros((0, 0)))

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ScoringError):
            SubstitutionMatrix("AA", np.zeros((2, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(ScoringError):
            SubstitutionMatrix("AB", np.zeros((2, 3)))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ScoringError):
            SubstitutionMatrix("ABC", np.zeros((2, 2)))

    def test_non_integer_rejected(self):
        with pytest.raises(ScoringError):
            SubstitutionMatrix("AB", np.array([[1.5, 0], [0, 1]]))

    def test_integer_valued_floats_accepted(self):
        m = SubstitutionMatrix("AB", np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert m.score("B", "B") == 2

    def test_from_table_symmetry_enforced(self):
        with pytest.raises(ScoringError):
            SubstitutionMatrix.from_table("AB", [[1, 2], [3, 1]])

    def test_from_table_symmetry_can_be_skipped(self):
        m = SubstitutionMatrix.from_table("AB", [[1, 2], [3, 1]], require_symmetric=False)
        assert m.score("A", "B") == 2
        assert m.score("B", "A") == 3

    def test_from_pairs(self):
        m = SubstitutionMatrix.from_pairs("ABC", {("A", "B"): 5, ("C", "C"): 7}, default=-1)
        assert m.score("A", "B") == 5
        assert m.score("B", "A") == 5
        assert m.score("C", "C") == 7
        assert m.score("A", "C") == -1

    def test_from_pairs_outside_alphabet(self):
        with pytest.raises(ScoringError):
            SubstitutionMatrix.from_pairs("AB", {("A", "Z"): 1})


class TestEncoding:
    def test_encode_decode_roundtrip(self):
        m = identity_matrix("ACGT")
        codes = m.encode("GATTACA")
        assert m.decode(codes) == "GATTACA"

    def test_encode_dtype(self):
        m = identity_matrix("ACGT")
        assert m.encode("ACGT").dtype == np.int16

    def test_encode_empty(self):
        m = identity_matrix("ACGT")
        assert len(m.encode("")) == 0

    def test_encode_unknown_symbol(self):
        m = identity_matrix("ACGT")
        with pytest.raises(AlphabetError, match="'X'"):
            m.encode("ACXGT")

    @staticmethod
    def _encode_by_loop(m, text):
        """Reference: the symbol-by-symbol dictionary walk."""
        codes = np.empty(len(text), dtype=np.int16)
        for i, ch in enumerate(text):
            if ch not in m.alphabet:
                raise AlphabetError(
                    f"symbol {ch!r} at position {i} is not in alphabet "
                    f"{m.alphabet!r} of matrix {m.name!r}"
                )
            codes[i] = m.alphabet.index(ch)
        return codes

    @pytest.mark.parametrize("text,bad,pos", [
        ("ACGTN", "N", 4),        # ASCII outside the alphabet
        ("AC\u00e9GT", "\u00e9", 2),  # Latin-1 outside the alphabet
        ("ACG\u03b1T", "\u03b1", 3),  # beyond Latin-1 (code point >= 256)
        ("\U0001f600", "\U0001f600", 0),
        ("AC\ud800", "\ud800", 2),    # a lone surrogate
        ("acgt", "a", 0),         # case matters
    ])
    def test_unknown_symbol_names_symbol_and_position(self, text, bad, pos):
        m = identity_matrix("ACGT")
        with pytest.raises(AlphabetError) as exc:
            m.encode(text)
        assert str(exc.value) == (
            f"symbol {bad!r} at position {pos} is not in alphabet 'ACGT' "
            f"of matrix {m.name!r}"
        )
        with pytest.raises(AlphabetError) as ref:
            self._encode_by_loop(m, text)
        assert str(ref.value) == str(exc.value)

    def test_empty_string_gives_empty_int16(self):
        codes = identity_matrix("ACGT").encode("")
        assert codes.dtype == np.int16 and codes.shape == (0,)

    def test_matches_loop_reference(self, rng):
        for alphabet in ("ACGT", "ARNDCQEGHILKMFPSTWYVBZX*", "\u00e9x\u03b1"):
            m = identity_matrix(alphabet)
            for n in (1, 7, 300):
                text = "".join(alphabet[k] for k in rng.integers(0, len(alphabet), n))
                codes = m.encode(text)
                assert codes.dtype == np.int16
                np.testing.assert_array_equal(codes, self._encode_by_loop(m, text))
                np.testing.assert_array_equal(m.encode(list(text)), codes)

    def test_score_unknown_symbol(self):
        m = identity_matrix("ACGT")
        with pytest.raises(AlphabetError):
            m.score("A", "Z")

    def test_row_profile(self):
        m = match_mismatch_matrix(match=5, mismatch=-4)
        b = m.encode("ACGT")
        prof = m.row_profile(int(m.encode("C")[0]), b)
        assert list(prof) == [-4, 5, -4, -4]


class TestHelpers:
    def test_identity_matrix(self):
        m = identity_matrix("XYZ", match=3, mismatch=-1)
        assert m.score("X", "X") == 3
        assert m.score("X", "Y") == -1

    def test_match_mismatch_defaults(self):
        m = match_mismatch_matrix()
        assert m.alphabet == "ACGT"
        assert m.score("A", "A") == 5
        assert m.score("A", "G") == -4

    def test_min_max_score(self):
        m = match_mismatch_matrix(match=5, mismatch=-4)
        assert m.min_score() == -4
        assert m.max_score() == 5
