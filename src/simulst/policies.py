"""Streaming emission policies behind one decision contract.

Four policies decide, at every timestep, how many of the freshly decoded
candidate tokens to commit:

* attention-alignment stop: commit candidates until one aligns with an
  inaccessible frame, i.e. one of the last ``f`` source frames;
* attention-mass threshold: commit candidates while the attention mass on
  the last ``lam`` frames stays below ``alpha``;
* wait-k: lag the detected source words by ``k``, then alternate
  reading and writing one word at a time;
* local agreement: commit the longest common prefix of consecutive
  hypotheses.

The decision functions are pure; the ``Policy`` classes wrap them with the
per-session state (hyperparameters, agreement history) the simulator needs.
A policy whose decision is fixed by a prefix of the candidates also offers a
``stop_rule``: a per-token predicate, built on the same decision function,
at which the simulator stops pulling tokens from the decoder because
``decide`` can no longer change. Local agreement stops at the first
disagreement with the previous hypothesis, which it reads lazily: a previous
decode that was stopped early is advanced only as far as the comparison
reaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .model import Decode
from .vocab import Vocabulary, WordTally

__all__ = [
    "StopReason",
    "PolicyDecision",
    "StepContext",
    "alignatt_decide",
    "edatt_decide",
    "waitk_allowed",
    "longest_common_prefix",
    "local_agreement_prefix",
    "Policy",
    "AlignAttPolicy",
    "EDAttPolicy",
    "WaitKPolicy",
    "LocalAgreementPolicy",
]

DEFAULT_EDATT_LAM = 2


class StopReason(str, Enum):
    """Why a decision committed fewer tokens than were offered."""

    INACCESSIBLE_FRAME = "inaccessible_frame"
    THRESHOLD = "threshold"
    SCHEDULE = "schedule"
    DISAGREEMENT = "disagreement"
    EXHAUSTED = "exhausted"  # every candidate committed; no rule fired


@dataclass(frozen=True)
class PolicyDecision:
    commit_count: int
    stopped_by: StopReason


@dataclass(frozen=True)
class StepContext:
    """Everything a policy may inspect at one timestep: seven fields.

    ``candidates`` are the tokens decoded past the ``committed`` prefix, so
    the full hypothesis is ``committed + candidates``. ``attention`` is their
    head-mean cross-attention, ``(len(candidates), n)`` over the ``n`` encoder
    frames (the committed prefix is not re-gated), and ``alignment`` is each
    candidate's most-attended frame. ``source_words`` is the number of source
    words detected so far (0 unless the policy ``uses_word_counts``).
    ``vocab`` is the adapter's vocabulary, and ``decode`` is the step's
    ``Decode``, the simulator's checked record, paused where the stop rule
    fired. It offers ``tokens``, which are ``committed + candidates`` and then
    every token read past the pause, ``advance()``, which is a checked adapter
    call, and ``eos_reached``, which tells whether the decode ended at
    end-of-sequence and is false while it is paused.
    """

    candidates: tuple[int, ...]
    attention: np.ndarray
    alignment: np.ndarray
    source_words: int
    committed: tuple[int, ...]
    vocab: Vocabulary
    decode: Decode = field(compare=False, repr=False)


def alignatt_decide(alignment: Sequence[int] | np.ndarray, n_frames: int, f: int) -> PolicyDecision:
    """Commit the longest candidate prefix that avoids the last ``f`` frames.

    ``alignment`` holds each candidate's most-attended frame. A candidate
    whose frame falls in the inaccessible band {n-f, ..., n-1} stops the
    emission there. With ``f >= n_frames`` every frame is inaccessible and
    nothing commits (not an error).
    """
    if f < 1:
        raise ValueError("f must be at least 1")
    align = np.asarray(alignment, dtype=np.int64)
    if align.ndim != 1:
        raise ValueError(f"alignment must be 1-D, got shape {align.shape}")
    if align.size == 0:
        return PolicyDecision(0, StopReason.EXHAUSTED)
    if align.min() < 0 or align.max() >= n_frames:
        raise ValueError("alignment indices must lie in [0, n_frames)")
    band_start = n_frames - f  # may be <= 0: the whole input is inaccessible
    hits = np.nonzero(align >= band_start)[0]
    if hits.size:
        return PolicyDecision(int(hits[0]), StopReason.INACCESSIBLE_FRAME)
    return PolicyDecision(align.size, StopReason.EXHAUSTED)


def edatt_decide(attention: np.ndarray, alpha: float, lam: int) -> PolicyDecision:
    """Commit candidates while the attention mass on the last ``lam`` frames is below ``alpha``.

    ``attention`` holds one row per candidate. With ``lam >= n`` the sum
    covers the whole row, which is degenerate but well defined.
    """
    if lam < 1:
        raise ValueError("lam must be at least 1")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    a = np.asarray(attention, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"attention must be 2-D, got shape {a.shape}")
    n = a.shape[1]
    recent = a[:, max(0, n - lam):].sum(axis=1)
    hits = np.nonzero(recent >= alpha)[0]
    if hits.size:
        return PolicyDecision(int(hits[0]), StopReason.THRESHOLD)
    return PolicyDecision(a.shape[0], StopReason.EXHAUSTED)


def waitk_allowed(k: int, source_words_detected: int, target_words_emitted: int) -> int:
    """Words the wait-k schedule currently allows: max(0, detected - k + 1 - emitted)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return max(0, source_words_detected - k + 1 - target_words_emitted)


def longest_common_prefix(a: Sequence[int], b: Iterable[int]) -> int:
    """Length of the common prefix; ``b`` is read no further than ``a`` allows."""
    length = 0
    for x, y in zip(a, b):
        if x != y:
            break
        length += 1
    return length


def local_agreement_prefix(
    previous: Optional[Iterable[int]],
    current: Sequence[int],
    committed: int,
) -> PolicyDecision:
    """Commit the part of the hypotheses' longest common prefix not yet emitted.

    With no previous hypothesis nothing can agree and nothing commits.
    """
    if previous is None:
        return PolicyDecision(0, StopReason.DISAGREEMENT)
    lcp = longest_common_prefix(current, previous)
    commit = max(0, lcp - committed)
    if lcp < len(current):
        return PolicyDecision(commit, StopReason.DISAGREEMENT)
    return PolicyDecision(commit, StopReason.EXHAUSTED)


class Policy:
    """Per-session decision policy; hyperparameters are fixed for the session."""

    name: str = "base"
    uses_word_counts: bool = False

    def reset(self) -> None:
        """Clear any per-session state before a new run."""

    def decide(self, ctx: StepContext) -> PolicyDecision:
        raise NotImplementedError

    def stop_rule(
        self, committed: tuple[int, ...], source_words: int, vocab: Vocabulary, layer: int
    ) -> Optional[Callable[[int, np.ndarray], bool]]:
        """A rule ``stop(token, row)`` that may end this step's decode early, or None.

        Asked for before each decode but the final flush, whatever the
        adapter. The simulator pulls the decode one token at a time, ``row``
        being the token's (L, H, n) cross-attention, until the rule returns
        true, which it may do only at a token after which no continuation
        changes what ``decide`` commits; ``decide`` still runs on the
        shortened decode. With None the decode is pulled to its end.
        """
        return None


class AlignAttPolicy(Policy):
    name = "alignatt"

    def __init__(self, f: int):
        if f < 1:
            raise ValueError(f"f must be >= 1, got {f}")
        self.f = f

    def decide(self, ctx: StepContext) -> PolicyDecision:
        return alignatt_decide(ctx.alignment, ctx.attention.shape[1], self.f)

    def stop_rule(self, committed, source_words, vocab, layer):
        def stop(token: int, row: np.ndarray) -> bool:
            # the token that ``decide`` stops at: aligned to an inaccessible frame
            mean = row[layer].mean(axis=0)
            aligned = mean.argmax(keepdims=True)
            return alignatt_decide(aligned, mean.shape[0], self.f).commit_count == 0

        return stop


class EDAttPolicy(Policy):
    name = "edatt"

    def __init__(self, alpha: float, lam: int = DEFAULT_EDATT_LAM):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if lam < 1:
            raise ValueError(f"lambda must be >= 1, got {lam}")
        self.alpha = alpha
        self.lam = lam

    def decide(self, ctx: StepContext) -> PolicyDecision:
        return edatt_decide(ctx.attention, self.alpha, self.lam)

    def stop_rule(self, committed, source_words, vocab, layer):
        def stop(token: int, row: np.ndarray) -> bool:
            # the token that ``decide`` stops at: its recent-frame mass reaches alpha
            mean = row[layer].mean(axis=0)
            return edatt_decide(mean[None], self.alpha, self.lam).commit_count == 0

        return stop


class WaitKPolicy(Policy):
    """Word-level wait-k over subword candidates.

    The word budget comes from the detected source word count; a candidate
    word is committed only when complete, i.e. followed in the candidate
    stream by whitespace or by end-of-sequence (``ctx.decode.eos_reached``).
    Words are those of the text the tokens write, so a leading continuation
    extends the last committed word and costs no budget.
    """

    name = "waitk"
    uses_word_counts = True

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k

    def decide(self, ctx: StepContext) -> PolicyDecision:
        tally = WordTally(ctx.vocab, ctx.committed)
        budget = tally.words + waitk_allowed(self.k, ctx.source_words, tally.words)
        # The last cut within the budget: a cut before token i commits the
        # tokens before it when no word goes on across it.
        commit = 0
        for i, token in enumerate(ctx.candidates):
            if not tally.add(token):
                commit = i
            if tally.words > budget:
                break
        else:
            if ctx.decode.eos_reached or not tally.open:
                commit = len(ctx.candidates)
        if commit < len(ctx.candidates):
            return PolicyDecision(commit, StopReason.SCHEDULE)
        return PolicyDecision(commit, StopReason.EXHAUSTED)

    def stop_rule(self, committed, source_words, vocab, layer):
        tally = WordTally(vocab, committed)
        budget = tally.words + waitk_allowed(self.k, source_words, tally.words)

        def stop(token: int, row: np.ndarray) -> bool:
            # the token that goes over the budget, where ``decide`` stops reading
            tally.add(token)
            return tally.words > budget

        return stop


class LocalAgreementPolicy(Policy):
    """Commit what the previous and the current hypothesis agree on.

    The previous hypothesis is the previous step's ``Decode``, which may be
    paused where its stop rule fired. It is read through ``tokens`` and then
    ``advance()`` until None, only as far as a comparison reaches.
    """

    name = "local_agreement"

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._previous: Decode | None = None

    def _hypothesis(self) -> Iterator[int]:
        """The previous hypothesis token by token, its decode advanced as it is read."""
        yield from self._previous.tokens
        while (pulled := self._previous.advance()) is not None:
            yield pulled[0]

    def decide(self, ctx: StepContext) -> PolicyDecision:
        current = ctx.committed + ctx.candidates
        previous = None if self._previous is None else self._hypothesis()
        decision = local_agreement_prefix(previous, current, len(ctx.committed))
        self._previous = ctx.decode
        return decision

    def stop_rule(self, committed, source_words, vocab, layer):
        if self._previous is None:
            # nothing commits without a previous hypothesis: one token suffices
            return lambda token, row: True
        rest = islice(self._hypothesis(), len(committed), None)

        def stop(token: int, row: np.ndarray) -> bool:
            # the first token past the longest common prefix ``decide`` computes
            return next(rest, None) != token

        return stop
