"""Subword vocabulary: boundary markers and detokenization."""

import pytest

from simulst import BOUNDARY_MARKER, Vocabulary, build_default_vocabulary
from simulst.vocab import WordTally

from support import piece_id


@pytest.fixture()
def vocab() -> Vocabulary:
    return Vocabulary(["▁Ich", "▁werde", "▁heu", "te", "▁darüber", "▁über", "▁Klima", "▁sprechen"])


class TestVocabulary:
    def test_special_ids(self, vocab):
        assert vocab.bos_id == 0 and vocab.eos_id == 1 and vocab.unk_id == 2
        assert vocab.piece(0) == "<s>" and vocab.piece(1) == "</s>" and vocab.piece(2) == "<unk>"

    def test_piece_round_trip(self, vocab):
        for piece in ("▁Ich", "te", "▁sprechen"):
            assert vocab.piece(piece_id(vocab, piece)) == piece

    def test_unknown_id_rejected(self, vocab):
        with pytest.raises(ValueError, match="unknown token id"):
            vocab.piece(vocab.size)
        with pytest.raises(ValueError, match="unknown token id"):
            vocab.piece(-1)

    def test_unknown_piece_rejected(self, vocab):
        with pytest.raises(ValueError, match="unknown piece"):
            piece_id(vocab, "▁nope")

    def test_word_starts_and_counts(self, vocab):
        ids = [piece_id(vocab, p) for p in ("▁Ich", "▁werde", "▁heu", "te")]
        tally = WordTally(vocab)
        # add() tells whether a token goes on with the open word
        assert [tally.add(t) for t in ids] == [False, False, False, True]
        assert tally.words == 3
        assert tally.add(vocab.eos_id) and tally.words == 3
        # a leading continuation starts no word
        assert WordTally(vocab, ids[3:]).words == 0

    @pytest.mark.parametrize(
        "pieces,words,open_word",
        [(["▁a▁", "b"], 2, True), (["▁a▁"], 1, False), (["▁"], 0, False), (["a▁b", "▁"], 1, False)],
    )
    def test_words_are_those_the_text_splits_into(self, pieces, words, open_word):
        vocab = Vocabulary(sorted(set(pieces)))
        tally = WordTally(vocab, [piece_id(vocab, p) for p in pieces])
        assert (tally.words, tally.open) == (words, open_word)

    def test_detokenize_joins_pieces(self, vocab):
        ids = [piece_id(vocab, p) for p in ("▁Ich", "▁werde", "▁heu", "te")]
        assert vocab.detokenize(ids) == "Ich werde heute"

    def test_detokenize_empty(self, vocab):
        assert vocab.detokenize([]) == ""

    def test_detokenize_skips_specials(self, vocab):
        ids = [vocab.bos_id, piece_id(vocab, "▁Klima"), vocab.unk_id]
        assert vocab.detokenize(ids) == "Klima"

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
        ids = [piece_id(vocab, BOUNDARY_MARKER + ch) for ch in "abc"]
        assert vocab.detokenize(ids) == "a b c"

    def test_marker_constant(self):
        assert BOUNDARY_MARKER == "▁"
