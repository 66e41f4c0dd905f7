"""Subword vocabulary with an explicit word-boundary convention.

Pieces that begin with ``BOUNDARY_MARKER`` ("▁") start a new word; all other
pieces continue the previous word, SentencePiece-style. Token ids 0..2 are
reserved for ``<s>``, ``</s>`` and ``<unk>``.
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
        # longest-first order for greedy text tokenization
        self._by_length = sorted(pieces, key=len, reverse=True)

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
        """Join pieces into text, turning boundary markers into spaces.

        Special tokens contribute nothing; an unknown id is an error.
        """
        parts = []
        for t in token_ids:
            if self.is_special(t):
                continue
            parts.append(self.piece(t))
        return "".join(parts).replace(BOUNDARY_MARKER, " ").strip()

    def tokenize(self, text: str) -> list[int]:
        """Greedy longest-match tokenization of whitespace-separated words."""
        ids: list[int] = []
        for word in text.split():
            remaining = BOUNDARY_MARKER + word
            while remaining:
                for piece in self._by_length:
                    if remaining.startswith(piece):
                        ids.append(self._ids[piece])
                        remaining = remaining[len(piece):]
                        break
                else:
                    ids.append(self.unk_id)
                    # skip the marker together with the unmatched character
                    step = 2 if remaining.startswith(BOUNDARY_MARKER) and len(remaining) > 1 else 1
                    remaining = remaining[step:]
        return ids


def build_default_vocabulary(size: int = 64) -> Vocabulary:
    """Small letter-level inventory used by the toy model (default 64 ids)."""
    pieces: list[str] = []
    letters = "abcdefghijklmnopqrstuvwxyz"
    pieces.extend(BOUNDARY_MARKER + ch for ch in letters)
    pieces.extend(letters)
    for extra in ("'", "-", ".", ",", "?", "!", "0", "1", "2", "3", "4", "5", "6"):
        pieces.append(BOUNDARY_MARKER + extra)
        if len(pieces) + len(_SPECIALS) >= size:
            break
    pieces = pieces[: size - len(_SPECIALS)]
    vocab = Vocabulary(pieces)
    if vocab.size != size:
        raise ValueError(f"cannot build a default vocabulary of size {size}")
    return vocab
