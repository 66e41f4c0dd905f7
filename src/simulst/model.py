"""Incremental encoder-decoder contract plus a small deterministic toy model.

The contract (``ModelAdapter``) is what the simulator drives: encode the
source features delivered so far, greedily decode a continuation of the
committed prefix while capturing every layer/head of cross-attention, and
count source words from a CTC-style frame posterior. Implementations must be
deterministic: identical inputs give identical outputs. ``Decode`` is the
simulator's checked record of one decode, and ``FinishedDecode`` replays a
full decode token by token.

``ToyModel`` is a fixed-seed stand-in for a trained system: a mean-pool +
linear front-end that shrinks the input by 4x, a pre-norm transformer decoder
with configurable layers/heads, and a per-frame label head for word counting.
It exists to exercise every interface at negligible cost, not to translate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .attention import softmax
from .features import NUM_MEL_BINS
from .vocab import Vocabulary, build_default_vocabulary

__all__ = [
    "EncoderStates",
    "DecodeResult",
    "ModelAdapter",
    "Decode",
    "FinishedDecode",
    "ToyModelConfig",
    "ToyModel",
    "count_words_in_labels",
]

DEFAULT_MAX_NEW = 128
_RMS_EPS = 1e-6

_FRAMES_PER_STATE = 4  # input frames per encoder state
_D_MODEL = 32
_FFN_DIM = 64
_NUM_CTC_LABELS = 8  # label 0 = blank, label _BOUNDARY_LABEL = word boundary
_BOUNDARY_LABEL = 1

# Toy-decoder output shaping. Untrained random weights fixed-point into
# repetition under greedy decoding, so the logits carry a penalty on the two
# preceding tokens and an end-of-sequence drive that grows with the
# output/source length ratio. Both are part of the model definition; one
# method, ``ToyModel._set_logits``, applies them after every decoder row.
_REPEAT_PENALTY = 12.0
_REPEAT_WINDOW = 2
_EOS_SLOPE = 0.75
_EOS_LENGTH_RATIO = 0.2
_CROSS_GAIN = 1.5
# Rows past the forced prefix that a decode's buffers start with.
_INITIAL_NEW_ROWS = 32


@dataclass(frozen=True)
class EncoderStates:
    """Encoder output over the source delivered so far.

    ``version`` stamps the raw-frame count the states were computed from, so
    successive re-encodes of a growing stream are ordered.
    """

    states: np.ndarray  # (n, d_model)
    version: int

    @property
    def n(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class DecodeResult:
    """One greedy decode pass from a forced prefix.

    ``tokens`` is the full output (prefix + continuation, never containing
    end-of-sequence); ``attention`` is the (layers, heads, len(tokens), n)
    cross-attention captured at each generated position.
    """

    tokens: tuple[int, ...]
    attention: np.ndarray
    eos_reached: bool


@runtime_checkable
class ModelAdapter(Protocol):
    """What the simulator requires of a model.

    Adapters are immutable after construction and shared by every session
    of a run; any scratch state lives inside a single call or in a
    decode it returned. External bridges (e.g. a subprocess wrapping a
    trained model) satisfy this protocol by mapping their outputs onto
    ``EncoderStates`` / ``DecodeResult``.

    An adapter that can generate on demand offers
    ``start_decode(enc, forced_prefix, max_new)`` beside this protocol. It
    returns a decode paused before its first generated token: any object with
    ``advance()`` and ``eos_reached``. ``advance()`` generates the next token,
    an id of the vocabulary other than end-of-sequence, and returns it with
    its (layers, heads, n) cross-attention row, or None once end-of-sequence
    was read or ``max_new`` tokens exist, and on every call after that; drained,
    it gives exactly ``decode_greedy``'s result. ``eos_reached``, read once
    ``advance()`` has returned None, tells whether end-of-sequence was read.
    Several decodes may be live, each advancing on its own. Any other adapter is
    bridged by ``FinishedDecode``, so every adapter gets stop rules; the
    simulator checks that each of its ``decode_greedy`` results begins with
    the forced prefix. The simulator reads every decode through ``Decode``.

    An adapter may also declare the class attribute ``forkable = True``
    (optional, false when absent): a forked copy of it runs sessions exactly
    as the original does, so ``run_eval`` may run a run's sessions in forked
    worker processes. An adapter that holds OS resources (a subprocess, a
    socket) or records into its process's memory must not declare it. The
    pool runs on Linux only, so elsewhere the attribute changes nothing.
    """

    num_decoder_layers: int
    num_heads: int
    vocab: Vocabulary

    def encode(self, raw_features: np.ndarray) -> EncoderStates: ...

    def decode_greedy(
        self, enc: EncoderStates, forced_prefix: Sequence[int], max_new: int = DEFAULT_MAX_NEW
    ) -> DecodeResult: ...

    def count_source_words(self, raw_features: np.ndarray) -> int: ...


class _AdapterFault(Exception):
    """An adapter fault met in ``Decode.advance()``; ``run_session`` reports its cause as the adapter's."""


class Decode:
    """A step's decode held to the adapter contract and recorded: what the simulator pulls, and
    ``StepContext.decode``.

    It reads a raw decode (see ``ModelAdapter``) only through ``advance()``,
    which is the one place every generated token passes through, pulled by the
    simulator or read by a policy past the pause: it checks the token id, an
    integer, the (layers, heads, n) row over this decode's own ``n`` and that
    no more than ``max_new`` tokens are generated, raises any fault as
    ``_AdapterFault``, and appends the token and row to the record, which
    starts from the committed tokens. It returns the token and row, or None
    once the decode has ended. When the decode first returns None, it reads
    the decode's ``eos_reached`` into its own, false until then, and does not
    ask the decode again.
    """

    def __init__(self, decode, adapter: ModelAdapter, committed: tuple[int, ...], n: int, max_new: int):
        self._decode = decode
        self._vocab = adapter.vocab
        self._row_shape = (adapter.num_decoder_layers, adapter.num_heads, n)
        self._max_new = max_new
        self._committed = committed
        self._tokens: list[int] = []
        self._rows: list[np.ndarray] = []
        self._ended = False
        self.eos_reached = False

    @property
    def tokens(self) -> tuple[int, ...]:
        return self._committed + tuple(self._tokens)

    def candidate_attention(self) -> np.ndarray:
        """The (layers, heads, tokens, n) attention of the tokens ``advance()`` returned."""
        # one array of the rows, then a view: np.stack takes 2-3x as long per step
        return np.array(self._rows).reshape(len(self._rows), *self._row_shape).transpose(1, 2, 0, 3)

    def advance(self) -> Optional[tuple[int, np.ndarray]]:
        if self._ended:
            return None
        try:
            if (pulled := self._decode.advance()) is None:
                self.eos_reached = bool(self._decode.eos_reached)
                self._ended = True
                return None
            token, row = pulled
            token = operator.index(token)
            if len(self._tokens) == self._max_new:
                raise ValueError(f"decode returned token id {token} after max_new={self._max_new} tokens")
            vocab = self._vocab
            if token == vocab.eos_id or not 0 <= token < vocab.size:
                raise ValueError(
                    f"decode returned token id {token}; tokens are ids in [0, {vocab.size}) "
                    f"other than end-of-sequence ({vocab.eos_id})"
                )
            if np.shape(row) != self._row_shape:
                raise ValueError(
                    f"decode returned token id {token} with a row of shape {np.shape(row)}; "
                    f"expected (layers, heads, encoder states) = {self._row_shape}"
                )
        except Exception as exc:
            raise _AdapterFault from exc
        self._tokens.append(token)
        self._rows.append(row)
        return token, row


class FinishedDecode:
    """A ``decode_greedy`` result replayed token by token from output position ``start``: the raw
    decode that bridges an adapter with only ``decode_greedy`` to the simulator's pulls."""

    eos_reached = False

    def __init__(self, result: DecodeResult, start: int):
        self._result = result
        self._position = start

    def advance(self) -> Optional[tuple[int, np.ndarray]]:
        i, result = self._position, self._result
        if i >= len(result.tokens):
            self.eos_reached = result.eos_reached
            return None
        self._position = i + 1
        return result.tokens[i], result.attention[:, :, i]


def _rms_norm(x: np.ndarray) -> np.ndarray:
    # add.reduce / d is what ndarray.mean computes, minus its call overhead
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + _RMS_EPS)


def _rms_norm_row(x: np.ndarray) -> np.ndarray:
    """``_rms_norm`` of one (d,) row, with the denominator as a Python float."""
    return x / math.sqrt(float(np.add.reduce(x * x)) / x.shape[0] + _RMS_EPS)


def _causal_mask(m: int, s: int) -> np.ndarray:
    """Additive mask letting query i of the last m of s positions see keys 0..s-m+i."""
    return np.triu(np.full((m, s), -np.inf), k=s - m + 1)


@dataclass(frozen=True)
class ToyModelConfig:
    num_decoder_layers: int = 2
    num_heads: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if _D_MODEL % self.num_heads != 0:
            raise ValueError(f"the model width {_D_MODEL} must be divisible by num_heads")


class ToyModel:
    """Fixed-seed encoder-decoder exercising the full adapter contract."""

    forkable = True

    def __init__(self, config: ToyModelConfig = ToyModelConfig(), vocab: Optional[Vocabulary] = None):
        self.config = config
        self.vocab = vocab if vocab is not None else build_default_vocabulary()
        self.num_decoder_layers = config.num_decoder_layers
        self.num_heads = config.num_heads
        self._head_dim = _D_MODEL // config.num_heads
        self._scale = np.sqrt(self._head_dim)

        rng = np.random.default_rng(config.seed)
        d, v = _D_MODEL, self.vocab.size

        def mat(rows: int, cols: int) -> np.ndarray:
            return rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols))

        self._w_in = mat(NUM_MEL_BINS, d)
        self._b_in = rng.normal(0.0, 0.1, size=d)
        self._w_mix = mat(d, d)
        self._b_mix = rng.normal(0.0, 0.1, size=d)
        self._embed = rng.normal(0.0, 1.0, size=(v, d))
        self._layers = [
            {
                name: mat(d, d)
                for name in ("sq", "sk", "sv", "so", "cq", "ck", "cv", "co")
            }
            | {
                "f1": mat(d, _FFN_DIM),
                "f2": mat(_FFN_DIM, d),
                "bf1": rng.normal(0.0, 0.1, size=_FFN_DIM),
                "bf2": rng.normal(0.0, 0.1, size=d),
            }
            for _ in range(config.num_decoder_layers)
        ]
        # q|k|v of one generated row in a single matmul (``_step``)
        for layer in self._layers:
            layer["sqkv"] = np.concatenate((layer["sq"], layer["sk"], layer["sv"]), axis=1)
        self._w_ctc = mat(d, _NUM_CTC_LABELS)
        self._b_ctc = rng.normal(0.0, 0.5, size=_NUM_CTC_LABELS)
        self._pos_cache = self._positions(512)
        # the toy decoder never generates <s> or <unk>
        self._logit_mask = np.zeros(v)
        self._logit_mask[[self.vocab.bos_id, self.vocab.unk_id]] = -np.inf

    @staticmethod
    def _positions(length: int) -> np.ndarray:
        pos = np.arange(length)[:, None]
        dim = np.arange(_D_MODEL)[None, :]
        angle = pos / np.power(10000.0, (2 * (dim // 2)) / _D_MODEL)
        return np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))

    def _pos(self, length: int) -> np.ndarray:
        if length > self._pos_cache.shape[0]:
            self._pos_cache = self._positions(2 * length)
        return self._pos_cache[:length]

    # ------------------------------------------------------------------ encoder

    def encode(self, raw_features: np.ndarray) -> EncoderStates:
        """Mean-pool each group of _FRAMES_PER_STATE frames, then map and mix.

        n = ceil(T / 4); each state depends only on its own pool group and
        position, so earlier states are stable as the stream grows.
        """
        feats = np.asarray(raw_features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("raw features must be a non-empty (T, F) matrix")
        if feats.shape[1] != NUM_MEL_BINS:
            raise ValueError(f"expected {NUM_MEL_BINS} feature dims, got {feats.shape[1]}")
        r = _FRAMES_PER_STATE
        t, f = feats.shape
        n, full = -(-t // r), t // r
        pooled = np.empty((n, f))
        pooled[:full] = np.add.reduce(feats[: full * r].reshape(full, r, f), axis=1) / r
        if full < n:
            pooled[full] = np.add.reduce(feats[full * r:], axis=0) / (t - full * r)
        x = pooled @ self._w_in + self._b_in + self._pos(n)
        states = np.tanh(x) @ self._w_mix + self._b_mix
        return EncoderStates(states=states, version=t)

    # ------------------------------------------------------------------ decoder

    def _heads(self, x: np.ndarray) -> np.ndarray:
        """Split (s, d) into per-head (H, s, head_dim) views."""
        return x.reshape(x.shape[0], self.num_heads, self._head_dim).transpose(1, 0, 2)

    def _attend_heads(
        self, q: np.ndarray, keys_t: np.ndarray, values: np.ndarray, mask=None, weights=None
    ) -> np.ndarray:
        """Attention of q (m, d) over head-split keys (H, hd, s) and values (H, s, hd).

        Returns the (m, d) output; the (H, m, s) softmax weights are written
        to ``weights`` if given.
        """
        scores = self._heads(q) @ keys_t / self._scale
        if mask is not None:
            scores = scores + mask
        weights = softmax(scores, out=weights)
        return (weights @ values).transpose(1, 0, 2).reshape(q.shape[0], _D_MODEL)

    def decode_greedy(
        self, enc: EncoderStates, forced_prefix: Sequence[int], max_new: int = DEFAULT_MAX_NEW
    ) -> DecodeResult:
        """Greedily extend the forced prefix by up to ``max_new`` tokens.

        Generation stops at end-of-sequence (never included in the output).
        The returned attention covers every output position: row i is the
        cross-attention of the pass that generated token i, captured by the
        incremental pass itself (teacher-forcing reproduces it for forced
        positions).
        """
        decode = self.start_decode(enc, forced_prefix, max_new)
        while decode.advance() is not None:
            pass
        tokens = decode._tokens
        return DecodeResult(tuple(tokens), decode._attention[:, :, : len(tokens)], decode.eos_reached)

    def start_decode(
        self, enc: EncoderStates, forced_prefix: Sequence[int], max_new: int = DEFAULT_MAX_NEW
    ) -> _ToyDecode:
        """The decode of ``decode_greedy``, prefilled and paused before its first generated token."""
        if max_new < 1:
            raise ValueError("max_new must be at least 1")
        prefix = list(forced_prefix)
        if self.vocab.eos_id in prefix:
            raise ValueError("forced prefix must not contain end-of-sequence")
        for t in prefix:
            if not 0 <= t < self.vocab.size:
                raise ValueError(f"forced prefix contains unknown token id {t}")

        decode = _ToyDecode(self, enc.states, prefix, max_new)
        self._advance(decode, [self.vocab.bos_id] + prefix)
        return decode

    def _advance(self, decode: _ToyDecode, new_ids: list[int]) -> None:
        """Run the next ``len(new_ids)`` positions of ``decode`` through the decoder.

        Their self-attention keys/values are appended to the cache, their
        cross-attention rows are captured, and the next-token logits of the
        last one replace ``decode.logits``.
        """
        start = decode.length
        end = start + len(new_ids)
        decode.reserve(end)
        x = self._embed[new_ids] + self._pos(end)[start:]
        mask = _causal_mask(len(new_ids), end) if len(new_ids) > 1 else None
        for li, layer in enumerate(self._layers):
            y = _rms_norm(x)
            keys, values = decode.keys[li], decode.values[li]
            keys[start:end] = y @ layer["sk"]
            values[start:end] = y @ layer["sv"]
            keys_t = self._heads(keys[:end]).transpose(0, 2, 1)
            attn = self._attend_heads(y @ layer["sq"], keys_t, self._heads(values[:end]), mask)
            x = x + attn @ layer["so"]
            y = _rms_norm(x)
            cross = decode._attention[li, :, start:end]
            attn = self._attend_heads(y @ layer["cq"], *decode.cross[li], weights=cross)
            x = x + _CROSS_GAIN * (attn @ layer["co"])
            y = _rms_norm(x)
            x = x + (np.tanh(y @ layer["f1"] + layer["bf1"]) @ layer["f2"] + layer["bf2"])
        decode.length = end
        decode.recent = (decode.recent + tuple(new_ids))[-_REPEAT_WINDOW:]
        self._set_logits(decode, x[-1])

    def _step(self, decode: _ToyDecode, token: int) -> None:
        """``_advance(decode, [token])`` for one generated row, in fewer NumPy calls.

        Every IEEE-754 operation is the one ``_advance`` performs, so tokens,
        attention and logits are bit-identical; only the dispatch differs: the
        row is a 1-D vector, q|k|v come from one matmul and the RMS-norm
        denominator is a Python float.
        """
        start = decode.length
        end = start + 1
        decode.reserve(end)
        d, heads, head_dim = _D_MODEL, self.num_heads, self._head_dim
        x = self._embed[token] + self._pos(end)[start]
        for li, layer in enumerate(self._layers):
            y = _rms_norm_row(x)
            qkv = y @ layer["sqkv"]
            keys, values = decode.keys[li, :end], decode.values[li, :end]
            keys[start] = qkv[d : 2 * d]
            values[start] = qkv[2 * d :]
            keys_t = keys.reshape(end, heads, head_dim).transpose(1, 2, 0)
            scores = qkv[:d].reshape(heads, 1, head_dim) @ keys_t / self._scale
            weights = softmax(scores)
            attn = weights @ values.reshape(end, heads, head_dim).transpose(1, 0, 2)
            x = x + attn.reshape(d) @ layer["so"]
            y = _rms_norm_row(x)
            cross_keys_t, cross_values = decode.cross[li]
            scores = (y @ layer["cq"]).reshape(heads, 1, head_dim) @ cross_keys_t / self._scale
            weights = softmax(scores, out=decode._attention[li, :, start:end])
            x = x + _CROSS_GAIN * ((weights @ cross_values).reshape(d) @ layer["co"])
            y = _rms_norm_row(x)
            x = x + (np.tanh(y @ layer["f1"] + layer["bf1"]) @ layer["f2"] + layer["bf2"])
        decode.length = end
        decode.recent = (decode.recent + (token,))[-_REPEAT_WINDOW:]
        self._set_logits(decode, x)

    def _set_logits(self, decode: _ToyDecode, x: np.ndarray) -> None:
        """Set ``decode.logits`` from ``x`` (d,), the decoder output of its last row.

        A repeated id is penalised once, and the end-of-sequence drive grows
        with that row's 0-based position. The updates are scalar: on one row
        array indexing costs more than the arithmetic.
        """
        logits = _rms_norm_row(x) @ self._embed.T + self._logit_mask
        for prev in set(decode.recent):
            logits[prev] -= _REPEAT_PENALTY
        position = decode.length - 1
        logits[self.vocab.eos_id] += _EOS_SLOPE * (position - _EOS_LENGTH_RATIO * decode.n)
        decode.logits = logits

    # ------------------------------------------------------------------ CTC head

    def frame_labels(self, raw_features: np.ndarray) -> np.ndarray:
        """Greedy per-frame label decisions of the toy CTC head."""
        states = self.encode(raw_features).states
        return np.argmax(states @ self._w_ctc + self._b_ctc, axis=1)

    def count_source_words(self, raw_features: np.ndarray) -> int:
        """Collapse repeats, count word-boundary labels."""
        return count_words_in_labels(self.frame_labels(raw_features))


class _ToyDecode:
    """One ``ToyModel`` decode and its scratch state; buffer row i is output position i.

    The self-attention keys/values (L, rows, d) and the captured
    cross-attention (L, H, rows, n) share one row capacity, which doubles
    when full; ``length`` rows (bos included) have been through the decoder.
    The encoder-side head views are built once per decode. ``_step`` runs on
    a generated token only when the token after it is asked for, so a paused
    decode has done the decoder work of the tokens it returned and no more.
    """

    def __init__(self, model: ToyModel, enc: np.ndarray, prefix: list[int], max_new: int):
        layers, d = model.num_decoder_layers, _D_MODEL
        capacity = 1 + len(prefix) + min(max_new, _INITIAL_NEW_ROWS)
        self._model = model
        self._tokens = prefix
        self._limit = len(prefix) + max_new
        self.n = enc.shape[0]
        self.cross = [
            (model._heads(enc @ l["ck"]).transpose(0, 2, 1), model._heads(enc @ l["cv"]))
            for l in model._layers
        ]
        self.keys = np.empty((layers, capacity, d))
        self.values = np.empty((layers, capacity, d))
        self._attention = np.empty((layers, model.num_heads, capacity, self.n))
        self.length = 0
        self.recent: tuple[int, ...] = ()
        self.logits: np.ndarray | None = None
        self.eos_reached = False

    def reserve(self, rows: int) -> None:
        capacity = self.keys.shape[1]
        if rows <= capacity:
            return
        capacity = max(rows, 2 * capacity)
        grown = []
        for buf in (self.keys, self.values, self._attention):
            new = np.empty(buf.shape[:-2] + (capacity, buf.shape[-1]))
            new[..., : self.length, :] = buf[..., : self.length, :]
            grown.append(new)
        self.keys, self.values, self._attention = grown

    def advance(self) -> Optional[tuple[int, np.ndarray]]:
        tokens = self._tokens
        if self.eos_reached or len(tokens) == self._limit:
            return None
        if self.length == len(tokens):  # the last token is not through the decoder yet (bos is)
            self._model._step(self, tokens[-1])
        next_id = int(self.logits.argmax())
        if next_id == self._model.vocab.eos_id:
            self.eos_reached = True
            return None
        tokens.append(next_id)
        return next_id, self._attention[:, :, len(tokens) - 1]


def count_words_in_labels(labels: Sequence[int]) -> int:
    """CTC-style word count: word-boundary labels (1) left after collapsing repeats."""
    ids = np.asarray(labels).tolist()  # Python ints compare faster than NumPy scalars
    return sum(1 for prev, label in zip([None, *ids], ids) if prev != label == _BOUNDARY_LABEL)

