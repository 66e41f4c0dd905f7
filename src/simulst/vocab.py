"""Subword vocabulary with an explicit word-boundary convention.

Pieces that begin with ``BOUNDARY_MARKER`` ("▁") start a new word; all other
pieces continue the previous word, SentencePiece-style. Token ids 0..2 are
reserved for ``<s>``, ``</s>`` and ``<unk>``, which write no text;
``piece_text`` is the one rule for the text a piece writes.
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
    """Maps token ids to surface pieces and back."""

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
        self._ids = {p: i for i, p in enumerate(self._pieces)}

    @property
    def size(self) -> int:
        return len(self._pieces)

    def piece(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._pieces):
            raise ValueError(f"unknown token id {token_id}")
        return self._pieces[token_id]

    def piece_id(self, piece: str) -> int:
        try:
            return self._ids[piece]
        except KeyError:
            raise ValueError(f"unknown piece {piece!r}") from None

    def is_special(self, token_id: int) -> bool:
        return 0 <= token_id < len(_SPECIALS)

    def is_word_start(self, token_id: int) -> bool:
        return not self.is_special(token_id) and self.piece(token_id).startswith(BOUNDARY_MARKER)

    def count_words(self, token_ids: Iterable[int]) -> int:
        """Number of words started by the given token sequence."""
        return sum(1 for t in token_ids if self.is_word_start(t))

    def detokenize(self, token_ids: Iterable[int]) -> str:
        """The ``piece_text`` of each token joined and stripped; an unknown id is an error."""
        return "".join(piece_text(self.piece(t)) for t in token_ids).strip()


def piece_text(piece: str) -> str:
    """The text a piece writes: nothing for a special, else the piece with each marker a space."""
    return "" if piece in _SPECIALS else piece.replace(BOUNDARY_MARKER, " ")


def build_default_vocabulary() -> Vocabulary:
    """The toy model's 64 ids: the specials, ``▁a``..``▁z``, ``a``..``z``, then
    ``▁`` followed by each of ``'-.,?!012``."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    pieces = [BOUNDARY_MARKER + ch for ch in letters] + list(letters)
    return Vocabulary(pieces + [BOUNDARY_MARKER + ch for ch in "'-.,?!012"])
