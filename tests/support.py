"""Test fixtures and references that the library does not run.

``ScriptedAdapter`` replays hand-written hypotheses and alignments keyed by
encoder length. ``PlantedAdapter`` decodes each utterance's reference as its
planted source states arrive, so the attention policies' commits have closed
forms. ``teacher_forced`` is ToyModel's full-pass decoder, the reference for
its incremental decode, and ``validate_attention_matrix`` checks that
attention rows are distributions. ``FaultyAdapter`` makes one adapter
member break one clause of its contract at a chosen step. ``piece_id``
looks up a piece's token id. ``write_wav`` makes audio for the front end to
read, and ``mel_center_frequencies`` places the Mel filters from the public
scale conversions alone. ``reference_session`` states each policy's rule a second
time, over full re-decodes, as the oracle for ``run_session``.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from simulst import (
    NUM_MEL_BINS,
    FeatureMatrix,
    ManifestEntry,
    ToyModel,
    Vocabulary,
    hz_to_mel,
    longest_common_prefix,
    mel_to_hz,
    write_features,
)
from simulst.model import (
    _CROSS_GAIN,
    _EOS_LENGTH_RATIO,
    _EOS_SLOPE,
    _FRAMES_PER_STATE,
    _REPEAT_PENALTY,
    _REPEAT_WINDOW,
    DEFAULT_MAX_NEW,
    DecodeResult,
    EncoderStates,
    _causal_mask,
    _rms_norm,
)
from simulst.vocab import piece_text

ROW_SUM_TOL = 1e-5


def _encode(raw_features: np.ndarray, fill: float = 0.0) -> EncoderStates:
    """ToyModel's state count for ``raw_features``, every state one value ``fill``."""
    feats = np.asarray(raw_features, dtype=float)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("raw features must be a non-empty (T, F) matrix")
    n = -(-feats.shape[0] // _FRAMES_PER_STATE)
    return EncoderStates(states=np.full((n, 8), fill), version=feats.shape[0])


def _one_hot(layers: int, heads: int, frames: Sequence[int], n: int) -> np.ndarray:
    """(layers, heads, len(frames), n) attention, row i one-hot at ``frames[i]``."""
    attn = np.zeros((layers, heads, len(frames), n))
    for i, frame in enumerate(frames):
        attn[:, :, i, frame] = 1.0
    return attn


class ScriptedAdapter:
    """Adapter whose hypotheses and alignments are scripted per frame count.

    The script maps the encoder length n to a step: the full hypothesis at
    that point, one aligned source frame per token (rows become one-hot at
    that frame across every layer and head), whether the hypothesis ended
    with end-of-sequence, and optionally the detected source word count.
    Useful for driving the simulator down exact decision paths; also the
    reference full-decode adapter: it offers only ``decode_greedy``, so the
    simulator pulls its results through ``FinishedDecode``.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        script: Callable[[int], "ScriptStep"] | dict[int, "ScriptStep"],
        num_layers: int = 1,
        num_heads: int = 1,
    ):
        self.vocab = vocab
        self.num_decoder_layers = num_layers
        self.num_heads = num_heads
        if callable(script):
            self._script = script
        else:
            table = dict(script)

            def lookup(n: int) -> ScriptStep:
                if n not in table:
                    raise KeyError(f"no scripted step for n={n}")
                return table[n]

            self._script = lookup

    def encode(self, raw_features: np.ndarray) -> EncoderStates:
        return _encode(raw_features)  # the state values are unread

    def decode_greedy(
        self, enc: EncoderStates, forced_prefix: Sequence[int], max_new: int = DEFAULT_MAX_NEW
    ) -> DecodeResult:
        prefix = tuple(forced_prefix)
        if self.vocab.eos_id in prefix:
            raise ValueError("forced prefix must not contain end-of-sequence")
        step = self._script(enc.n)
        tokens = tuple(step.tokens)
        if tokens[: len(prefix)] != prefix:
            raise ValueError(
                f"scripted hypothesis {tokens} does not extend committed prefix {prefix}"
            )
        tokens = tokens[: len(prefix) + max_new]
        alignment = list(step.alignment)[: len(tokens)]
        if len(alignment) != len(tokens):
            raise ValueError("script must align every token")
        for frame in alignment:
            if not 0 <= frame < enc.n:
                raise ValueError(f"scripted alignment {frame} outside [0, {enc.n})")
        attn = _one_hot(self.num_decoder_layers, self.num_heads, alignment, enc.n)
        # as in ToyModel, end-of-sequence is read only after fewer than max_new tokens
        eos = step.eos and len(step.tokens) < len(prefix) + max_new
        return DecodeResult(tokens, attn, eos)

    def count_source_words(self, raw_features: np.ndarray) -> int:
        return self._script(self.encode(raw_features).n).source_words


@dataclass(frozen=True)
class ScriptStep:
    """One scripted decode outcome: hypothesis tokens, aligned frame per token."""

    tokens: tuple[int, ...]
    alignment: tuple[int, ...]
    eos: bool = False
    source_words: int = 0


def piece_id(vocab: Vocabulary, piece: str) -> int:
    """The id of ``piece`` in ``vocab``; ValueError for a piece it does not hold."""
    for token_id in range(vocab.size):
        if vocab.piece(token_id) == piece:
            return token_id
    raise ValueError(f"unknown piece {piece!r}")


ADAPTER_MEMBERS = ("encode", "count_source_words", "start_decode", "decode_greedy", "advance", "eos_reached")

# The clauses that a FaultyAdapter breaks other than by raising, each with the member that breaks it.
CONTRACT_BREAKS = {
    "no_states": "encode",  # returns zero states
    "negative_count": "count_source_words",  # returns -1
    "none_count": "count_source_words",  # returns None
    "float_token": "advance",  # returns the token 5.0
    "unknown_id": "advance",  # returns the id vocab.size
    "eos_id": "advance",  # returns vocab.eos_id
    "row_shape": "advance",  # returns the row without its last encoder state
    "nan_row": "advance",  # returns a row of NaN
    "past_max_new": "advance",  # ended at max_new, returns its last token and row once more
}

_TOKEN_BREAKS = {
    "float_token": lambda vocab, token, row: (5.0, row),
    "unknown_id": lambda vocab, token, row: (vocab.size, row),
    "eos_id": lambda vocab, token, row: (vocab.eos_id, row),
    "row_shape": lambda vocab, token, row: (token, row[..., :-1]),
    "nan_row": lambda vocab, token, row: (token, np.full_like(row, np.nan)),
}


class FaultyAdapter:
    """``inner`` whose ``member`` breaks one clause of the adapter contract, ``fault``, the first time
    it can once the session has delivered ``frames`` source frames, read from the prefixes that
    ``encode`` and ``count_source_words`` receive.

    ``member`` is one of ``ADAPTER_MEMBERS``; ``advance`` and ``eos_reached`` are those of the decodes
    that ``start_decode`` returns. The fault ``"raise"`` makes any member raise ``RuntimeError``; the
    others, ``CONTRACT_BREAKS``, make their member return a value that breaks the clause, an
    ``advance`` break at the first token the decode returns (``past_max_new`` at the first decode that
    ends at ``max_new``). The adapter offers ``start_decode`` unless ``member`` is ``decode_greedy``.
    ``failed_at`` holds the seconds of source delivered when the member broke, ``error`` what it
    raised and ``returned`` what it returned instead.
    """

    def __init__(self, inner, member: str, frames: int, fault: str = "raise", frame_shift_ms: float = 10.0):
        if member not in ADAPTER_MEMBERS or fault != "raise" and CONTRACT_BREAKS.get(fault) != member:
            raise ValueError(f"{member!r} cannot break {fault!r}")
        self._inner = inner
        self.vocab = inner.vocab
        self.num_decoder_layers = inner.num_decoder_layers
        self.num_heads = inner.num_heads
        self.member = member
        self.fault = fault
        self._frames = frames
        self._frame_shift_ms = frame_shift_ms
        self.delivered = 0
        self.failed_at: float | None = None
        self.error: RuntimeError | None = None
        self.returned = None
        if member != "decode_greedy":
            self.start_decode = self._start_decode

    def breaks(self, member: str, fault: str = "raise") -> bool:
        """Whether ``member`` commits ``fault`` now, which it does once; a ``"raise"`` raises."""
        if (member, fault) != (self.member, self.fault) or self.failed_at is not None or self.delivered < self._frames:
            return False
        self.failed_at = self.delivered * self._frame_shift_ms / 1000.0
        if fault == "raise":
            self.error = RuntimeError(f"{member} lost")
            raise self.error
        return True

    def instead(self, value):
        """``value``, returned in place of what the member would return."""
        self.returned = value
        return value

    def encode(self, raw_features):
        self.delivered = len(raw_features)
        self.breaks("encode")
        states = self._inner.encode(raw_features)
        if self.breaks("encode", "no_states"):
            return self.instead(EncoderStates(states.states[:0], states.version))
        return states

    def count_source_words(self, raw_features):
        self.delivered = len(raw_features)
        self.breaks("count_source_words")
        words = self._inner.count_source_words(raw_features)
        for fault, value in (("negative_count", -1), ("none_count", None)):
            if self.breaks("count_source_words", fault):
                return self.instead(value)
        return words

    def decode_greedy(self, enc, forced_prefix, max_new=DEFAULT_MAX_NEW):
        self.breaks("decode_greedy")
        return self._inner.decode_greedy(enc, forced_prefix, max_new)

    def _start_decode(self, enc, forced_prefix, max_new=DEFAULT_MAX_NEW):
        self.breaks("start_decode")
        return _FaultyDecode(self, self._inner.start_decode(enc, forced_prefix, max_new))


class _FaultyDecode:
    def __init__(self, adapter: FaultyAdapter, decode):
        self._adapter = adapter
        self._decode = decode
        self._last = None

    def advance(self):
        adapter = self._adapter
        adapter.breaks("advance")
        pulled = self._decode.advance()
        if pulled is None:
            if self._last is not None and not self._decode.eos_reached and adapter.breaks("advance", "past_max_new"):
                return adapter.instead(self._last)
            return None
        self._last = pulled
        if adapter.fault in _TOKEN_BREAKS and adapter.breaks("advance", adapter.fault):
            return adapter.instead(_TOKEN_BREAKS[adapter.fault](adapter.vocab, *pulled))
        return pulled

    @property
    def eos_reached(self):
        self._adapter.breaks("eos_reached")
        return self._decode.eos_reached


# Reference words are ``▁w<i>``, optionally continued by ``s``; the guess at
# encoder length n is ``▁guess<n>``, so no guess is ever a reference token.
PLANTED_MAX_STATES = 64
_WORD_PIECES = [f"▁w{i}" for i in range(10)] + ["s"]
PLANTED_VOCAB = Vocabulary(_WORD_PIECES + [f"▁guess{n}" for n in range(1, PLANTED_MAX_STATES)])
PLANTED_WORDS = tuple(piece_id(PLANTED_VOCAB, p) for p in _WORD_PIECES)


def guess_id(n: int) -> int:
    """The token guessed at encoder length ``n``."""
    return piece_id(PLANTED_VOCAB, f"▁guess{n}")


@dataclass(frozen=True)
class Planted:
    """One utterance: reference tokens, the encoder state each attends to, source word ends.

    ``num_frames`` input frames make ``num_states`` encoder states; every
    planted state lies below that.
    """

    tokens: tuple[int, ...]
    frames: tuple[int, ...]
    boundaries: tuple[int, ...]
    num_frames: int

    def __post_init__(self) -> None:
        if len(self.frames) != len(self.tokens):
            raise ValueError("plant one state per reference token")
        if not set(self.tokens) <= set(PLANTED_WORDS):
            raise ValueError("reference tokens are the ids of PLANTED_WORDS")
        if not 1 <= self.num_states < PLANTED_MAX_STATES:
            raise ValueError(f"{self.num_states} encoder states: at most {PLANTED_MAX_STATES - 1}")
        if not all(0 <= a < self.num_states for a in (*self.frames, *self.boundaries)):
            raise ValueError(f"planted states lie in [0, {self.num_states})")

    @property
    def num_states(self) -> int:
        return -(-self.num_frames // _FRAMES_PER_STATE)

    @property
    def reference(self) -> str:
        return PLANTED_VOCAB.detokenize(self.tokens)


class PlantedAdapter:
    """Adapter whose cross-attention shows exactly which source each token has seen.

    Utterance u's source is ``source(u)``, whose frames all hold the value u,
    so each call knows its utterance. At encoder length n the hypothesis is
    the reference up to the first token whose planted state has not arrived
    (``frames[i] >= n``); before the full source, the guess ``guess_id(n)``
    follows. End-of-sequence comes only with the full source. Every layer and
    head attends one-hot to a reference token's planted state, and to state
    n - 1 from a guess or a forced token off the reference. After a forced
    prefix that leaves the reference, only the guess follows.
    ``count_source_words`` counts the planted boundaries below n. It offers
    only ``decode_greedy``.
    """

    num_decoder_layers = 2
    num_heads = 2
    vocab = PLANTED_VOCAB

    def __init__(self, utterances: Sequence[Planted]):
        self.utterances = tuple(utterances)

    def source(self, u: int) -> FeatureMatrix:
        return FeatureMatrix(frames=np.full((self.utterances[u].num_frames, NUM_MEL_BINS), u))

    def manifest(self, directory: Path) -> list[ManifestEntry]:
        """One entry per utterance, its source written to ``directory/utt<u>.sgfb``."""
        entries = []
        for u, planted in enumerate(self.utterances):
            write_features(directory / f"utt{u}.sgfb", self.source(u))
            entries.append(ManifestEntry(f"utt{u}", directory / f"utt{u}.sgfb", planted.reference))
        return entries

    def encode(self, raw_features: np.ndarray) -> EncoderStates:
        return _encode(raw_features, fill=raw_features[0, 0])

    def _utterance(self, enc: EncoderStates) -> Planted:
        return self.utterances[int(enc.states[0, 0])]

    def decode_greedy(
        self, enc: EncoderStates, forced_prefix: Sequence[int], max_new: int = DEFAULT_MAX_NEW
    ) -> DecodeResult:
        planted, n, prefix = self._utterance(enc), enc.n, tuple(forced_prefix)
        matched = longest_common_prefix(prefix, planted.tokens)
        if any(a >= n for a in planted.frames[:matched]):
            raise ValueError(f"forced prefix {prefix} holds reference tokens not arrived at n={n}")
        tokens = prefix
        if matched == len(prefix):
            matched = next((i for i, a in enumerate(planted.frames) if a >= n), len(planted.frames))
            tokens = planted.tokens[:matched]
        full = n == planted.num_states
        if not full:
            tokens += (guess_id(n),)
        capped = tokens[: len(prefix) + max_new]
        frames = [*planted.frames[:matched], *[n - 1] * (len(tokens) - matched)]
        attn = _one_hot(self.num_decoder_layers, self.num_heads, frames[: len(capped)], n)
        return DecodeResult(capped, attn, full and len(tokens) < len(prefix) + max_new)

    def count_source_words(self, raw_features: np.ndarray) -> int:
        enc = self.encode(raw_features)
        return sum(1 for b in self._utterance(enc).boundaries if b < enc.n)


def reference_session(
    source: FeatureMatrix,
    adapter,
    policy: str,
    *,
    chunk_ms: float,
    step_cost_s: float = 0.0,
    max_new: int = DEFAULT_MAX_NEW,
    f: int | None = None,
    alpha: float | None = None,
    lam: int = 2,
    k: int | None = None,
) -> list[tuple[int, float, float]]:
    """The ``(token, ideal_s, wall_s)`` commits of a session under ``policy``, stated from the rules alone.

    Every step re-encodes the delivered prefix and decodes it in full with
    ``decode_greedy`` from the committed tokens; the policy then commits a
    prefix of the candidates, and the last step commits them all. Nothing of
    the simulator or the policies is used, so this checks the stop rules,
    the pulled decodes and the clock of ``run_session`` from outside.
    """
    vocab = adapter.vocab
    layer = min(3, adapter.num_decoder_layers - 1)  # the README's default attention layer

    def text(tokens) -> str:
        return "".join(piece_text(vocab.piece(t)) for t in tokens)

    def words(tokens) -> int:
        # Deliberate (ROADMAP item 11): the output is taken to start inside a word, as wait-k's
        # tally counts, so a continuation piece at its very start starts no word and costs no budget.
        return len(("x" + text(tokens)).split()) - 1

    chunk = chunk_ms / source.frame_shift_ms
    assert chunk.is_integer(), f"chunk_ms={chunk_ms} is not a whole number of frames"
    chunk = int(chunk)
    committed: list[int] = []
    events: list[tuple[int, float, float]] = []
    previous, detected, clock = None, 0, 0.0
    for end in range(chunk, source.num_frames + chunk, chunk):
        end = min(end, source.num_frames)
        prefix, ideal_s = source.frames[:end], end * source.frame_shift_ms / 1000.0
        final = end == source.num_frames
        if policy == "waitk" and not final:
            # Deliberate: detections only ratchet upward, so a word budget once granted is never
            # retracted; wait-k as published reads a count that only grows anyway.
            detected = max(detected, adapter.count_source_words(prefix))
        result = adapter.decode_greedy(adapter.encode(prefix), committed, max_new)
        # The simulated clock: the chunk's arrival, then one charge for the encode and one for the decode.
        clock = max(clock, ideal_s) + step_cost_s + step_cost_s
        hypothesis = list(result.tokens)
        candidates = hypothesis[len(committed):]
        mean = result.attention[layer, :, len(committed):].mean(axis=0)  # head mean, one row per candidate
        n = mean.shape[1]
        if final:
            take = len(candidates)
        elif policy in ("alignatt", "edatt"):
            # AlignAtt: up to the first candidate whose attention peaks in the last f frames.
            # EDAtt: up to the first candidate whose mass on the last lam frames reaches alpha.
            stops = [
                int(np.argmax(row)) >= n - f if policy == "alignatt" else row[max(0, n - lam):].sum() >= alpha
                for row in mean
            ]
            take = stops.index(True) if True in stops else len(candidates)
        elif policy == "waitk":
            # Whole words, at most one per detected source word after the first k - 1: the longest
            # commit with whitespace right before or after it, or of every candidate at end-of-sequence.
            def whole(c: int) -> bool:
                before, after = "x" + text(hypothesis[: len(committed) + c]), text(candidates[c:])
                return before[-1].isspace() or (after[0].isspace() if after else result.eos_reached)

            budget = max(0, detected - k + 1)
            fits = [c for c in range(1, len(candidates) + 1) if whole(c)]
            take = max((c for c in fits if words(hypothesis[: len(committed) + c]) <= budget), default=0)
        elif policy == "local_agreement":
            # The longest common prefix of the last two full hypotheses, less what is committed.
            agreed = 0 if previous is None else len(os.path.commonprefix([previous, hypothesis]))
            take, previous = max(0, agreed - len(committed)), hypothesis
        else:
            raise ValueError(f"unknown policy {policy!r}")
        events += [(token, ideal_s, clock) for token in candidates[:take]]
        committed += candidates[:take]
    return events


def teacher_forced(model: ToyModel, ids: Sequence[int], enc: np.ndarray):
    """``model``'s full teacher-forced pass over ``ids``, bos first, attending to encoder states ``enc``.

    Returns (logits (m, V), cross-attention (L, H, m, n)); logits row i
    predicts the token after ``ids[i]``. The program decodes incrementally
    instead; this is the reference the tests hold that decode to.
    """
    m, n = len(ids), enc.shape[0]
    x = model._embed[np.asarray(ids, dtype=np.int64)] + model._pos(m)
    mask = _causal_mask(m, m)
    cross = np.empty((model.num_decoder_layers, model.num_heads, m, n))
    for layer, weights in zip(model._layers, cross):
        y = _rms_norm(x)
        keys_t = model._heads(y @ layer["sk"]).transpose(0, 2, 1)
        attn = model._attend_heads(y @ layer["sq"], keys_t, model._heads(y @ layer["sv"]), mask)
        x = x + attn @ layer["so"]
        y = _rms_norm(x)
        keys_t = model._heads(enc @ layer["ck"]).transpose(0, 2, 1)
        attn = model._attend_heads(y @ layer["cq"], keys_t, model._heads(enc @ layer["cv"]), weights=weights)
        x = x + _CROSS_GAIN * (attn @ layer["co"])
        y = _rms_norm(x)
        x = x + (np.tanh(y @ layer["f1"] + layer["bf1"]) @ layer["f2"] + layer["bf2"])
    logits = _rms_norm(x) @ model._embed.T + model._logit_mask
    for i in range(m):
        # the ids of the repeat window ending at row i, bos included; a repeat is penalised once
        for token in set(ids[max(0, i + 1 - _REPEAT_WINDOW) : i + 1]):
            logits[i, token] -= _REPEAT_PENALTY
        logits[i, model.vocab.eos_id] += _EOS_SLOPE * (i - _EOS_LENGTH_RATIO * n)
    return logits, cross


def validate_attention_matrix(weights: np.ndarray) -> np.ndarray:
    """Check that ``weights`` is a valid row-stochastic attention matrix.

    Entries must lie in [0, 1] and every row must sum to 1 within
    ``ROW_SUM_TOL``. Returns the input as a float array.
    """
    a = np.asarray(weights, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"attention matrix must be 2-D, got shape {a.shape}")
    m, n = a.shape
    if m >= 1 and n == 0:
        raise ValueError("attention matrix with target rows needs at least one source column")
    if a.size:
        if a.min() < -ROW_SUM_TOL or a.max() > 1.0 + ROW_SUM_TOL:
            raise ValueError("attention weights must lie in [0, 1]")
        worst = np.abs(a.sum(axis=1) - 1.0).max()
        if worst > ROW_SUM_TOL:
            raise ValueError(f"attention rows must sum to 1 (worst deviation {worst:.2e})")
    return a


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono 16-bit PCM; samples are clipped to [-1, 1]."""
    pcm = np.clip(np.asarray(samples, dtype=float), -1.0, 1.0)
    data = (pcm * 32767.0).astype("<i2").tobytes()
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(data)


def mel_center_frequencies(sample_rate: int) -> np.ndarray:
    """Center frequency in Hz of each of the NUM_MEL_BINS triangular Mel filters.

    The filters' edges are evenly spaced in Mel from 0 Hz to Nyquist.
    """
    edges = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), NUM_MEL_BINS + 2)
    return mel_to_hz(edges)[1:-1]
