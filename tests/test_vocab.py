"""Subword vocabulary: boundary markers, detokenization, greedy tokenization."""

import pytest

from simulst import BOUNDARY_MARKER, Vocabulary, build_default_vocabulary


@pytest.fixture()
def vocab() -> Vocabulary:
    return Vocabulary(["▁Ich", "▁werde", "▁heu", "te", "▁darüber", "▁über", "▁Klima", "▁sprechen"])


class TestVocabulary:
    def test_special_ids(self, vocab):
        assert vocab.bos_id == 0 and vocab.eos_id == 1 and vocab.unk_id == 2
        assert vocab.piece(0) == "<s>" and vocab.piece(1) == "</s>" and vocab.piece(2) == "<unk>"
        assert all(vocab.is_special(t) for t in (0, 1, 2))
        assert not vocab.is_special(3)

    def test_piece_round_trip(self, vocab):
        for piece in ("▁Ich", "te", "▁sprechen"):
            assert vocab.piece(vocab.piece_id(piece)) == piece

    def test_unknown_id_rejected(self, vocab):
        with pytest.raises(ValueError, match="unknown token id"):
            vocab.piece(vocab.size)
        with pytest.raises(ValueError, match="unknown token id"):
            vocab.piece(-1)

    def test_unknown_piece_rejected(self, vocab):
        with pytest.raises(ValueError, match="unknown piece"):
            vocab.piece_id("▁nope")

    def test_word_starts_and_counts(self, vocab):
        ids = [vocab.piece_id(p) for p in ("▁Ich", "▁werde", "▁heu", "te")]
        assert [vocab.is_word_start(t) for t in ids] == [True, True, True, False]
        assert vocab.count_words(ids) == 3
        assert not vocab.is_word_start(vocab.eos_id)

    def test_detokenize_joins_pieces(self, vocab):
        ids = [vocab.piece_id(p) for p in ("▁Ich", "▁werde", "▁heu", "te")]
        assert vocab.detokenize(ids) == "Ich werde heute"

    def test_detokenize_empty(self, vocab):
        assert vocab.detokenize([]) == ""

    def test_detokenize_skips_specials(self, vocab):
        ids = [vocab.bos_id, vocab.piece_id("▁Klima"), vocab.unk_id]
        assert vocab.detokenize(ids) == "Klima"

    def test_tokenize_longest_match(self, vocab):
        ids = vocab.tokenize("darüber über")
        assert [vocab.piece(t) for t in ids] == ["▁darüber", "▁über"]

    def test_tokenize_unknown_becomes_unk(self, vocab):
        ids = vocab.tokenize("xyz")
        assert vocab.unk_id in ids

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            Vocabulary(["▁a", "▁a"])

    def test_rejects_empty_or_reserved_pieces(self):
        with pytest.raises(ValueError, match="invalid"):
            Vocabulary([""])
        with pytest.raises(ValueError, match="invalid"):
            Vocabulary(["<unk>"])


class TestDefaultVocabulary:
    def test_size_and_uniqueness(self):
        vocab = build_default_vocabulary()
        assert vocab.size == 64
        assert len({vocab.piece(i) for i in range(64)}) == 64

    def test_frozen_pieces(self):
        vocab = build_default_vocabulary()
        letters = "abcdefghijklmnopqrstuvwxyz"
        expected = (
            ["<s>", "</s>", "<unk>"]
            + ["▁" + ch for ch in letters]
            + list(letters)
            + ["▁'", "▁-", "▁.", "▁,", "▁?", "▁!", "▁0", "▁1", "▁2"]
        )
        assert [vocab.piece(i) for i in range(vocab.size)] == expected

    def test_round_trip_letters(self):
        vocab = build_default_vocabulary()
        assert vocab.detokenize(vocab.tokenize("a b c")) == "a b c"

    def test_marker_constant(self):
        assert BOUNDARY_MARKER == "▁"
