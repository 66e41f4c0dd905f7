"""Subword vocabulary with an explicit word-boundary convention.

Each ``BOUNDARY_MARKER`` ("▁") in a piece writes a space, SentencePiece-style.
Token ids 0..2 are reserved for ``<s>``, ``</s>`` and ``<unk>``, which write
no text; ``piece_text`` is the one rule for the text a piece writes, and
words are that text split on whitespace.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "BOUNDARY_MARKER",
    "Vocabulary",
    "build_default_vocabulary",
]

BOUNDARY_MARKER = "▁"  # ▁

_SPECIALS = ("<s>", "</s>", "<unk>")


class Vocabulary:
    """Maps token ids to surface pieces."""

    bos_id = 0
    eos_id = 1
    unk_id = 2

    def __init__(self, pieces: Sequence[str]):
        if len(set(pieces)) != len(pieces):
            raise ValueError("vocabulary pieces must be unique")
        for p in pieces:
            if not p or p in _SPECIALS:
                raise ValueError(f"invalid vocabulary piece {p!r}")
        self._pieces = list(_SPECIALS) + list(pieces)

    @property
    def size(self) -> int:
        return len(self._pieces)

    def piece(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._pieces):
            raise ValueError(f"unknown token id {token_id}")
        return self._pieces[token_id]

    def detokenize(self, token_ids: Iterable[int]) -> str:
        """The ``piece_text`` of each token joined and stripped; an unknown id is an error."""
        return "".join(piece_text(self.piece(t)) for t in token_ids).strip()


def piece_text(piece: str) -> str:
    """The text a piece writes: nothing for a special, else the piece with each marker a space."""
    return "" if piece in _SPECIALS else piece.replace(BOUNDARY_MARKER, " ")


class WordTally:
    """Words of the text a token stream writes, counted token by token.

    The stream starts inside a word, so text before its first whitespace
    starts none, as a continuation after committed tokens extends their
    last word (``final_text`` does count it as a word).
    """

    def __init__(self, vocab: Vocabulary, tokens: Iterable[int] = ()):
        self.vocab = vocab
        self.words = 0
        self.open = True  # the last word may go on
        for token in tokens:
            self.add(token)

    def add(self, token_id: int) -> bool:
        """Count the token's text; return whether it goes on with the open word."""
        text = piece_text(self.vocab.piece(token_id))
        joins = self.open and not text[:1].isspace()
        self.words += len(text.split()) - (joins and text != "")
        if text:
            self.open = not text[-1].isspace()
        return joins


def build_default_vocabulary() -> Vocabulary:
    """The toy model's 64 ids: the specials, ``▁a``..``▁z``, ``a``..``z``, then
    ``▁`` followed by each of ``'-.,?!012``."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    pieces = [BOUNDARY_MARKER + ch for ch in letters] + list(letters)
    return Vocabulary(pieces + [BOUNDARY_MARKER + ch for ch in "'-.,?!012"])
