"""Streaming session driver: deliver source in chunks, decode, let the policy commit.

Each timestep reads one chunk of source frames, re-encodes the delivered
prefix, greedily extends the committed hypothesis, and hands the candidate
tokens (with their aggregated cross-attention) to the decision policy.
Committed output is append-only. When the source is exhausted the final
hypothesis is committed unconditionally. Every decode (the adapter's
``start_decode``, or its ``decode_greedy`` result, which must begin with the
committed tokens, replayed by ``FinishedDecode``) is wrapped in ``Decode``,
the step's checked record, and pulled one token at a time through its
``advance()``. Before every other decode the policy may supply a stop rule;
tokens are pulled until it fires or the decode ends, and the paused record
goes to the policy with the step's context, so it can read further. The
simulator's pulls and the policy's reads both go through the record, which
holds each token and row, and the count of generated tokens (at most
``max_new``), to the adapter contract; the step's candidates and their
attention are the recorded ones. Each encode must give at least one state,
a word count must be an integer >= 0, and a commit count an integer in
[0, candidates]. An exception from the adapter or the policy, or either
breaking its contract, ends the session with a ``SessionError`` that names
which failed, when and why, and carries the commits made so far.

``write_emission_log`` writes any session's outcome, its ``EmissionLog`` or
the ``SessionError`` that ended it, as one JSON-lines file, and
``read_emission_log`` reads it back.

Every event carries two timestamps: ``ideal_s``, the seconds of source audio
delivered when the tokens were committed, and ``wall_s``, the session clock
reading. The simulated clock advances to each chunk's arrival time and adds a
declared compute cost per adapter call, so wall_s >= ideal_s always holds and
runs are deterministic. The real clock reads elapsed monotonic time instead.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass
from typing import Protocol, get_type_hints

import numpy as np

from .attention import aggregate_attention, compute_alignment
from .features import FeatureMatrix
from .manifest import read_json_lines, write_bytes_atomic
from .model import DEFAULT_MAX_NEW, Decode, FinishedDecode, ModelAdapter, _AdapterFault
from .policies import Policy, StepContext
from .vocab import Vocabulary, piece_text

__all__ = [
    "Clock",
    "SimulatedClock",
    "RealClock",
    "Emission",
    "EmissionLog",
    "SessionError",
    "StreamCursor",
    "run_session",
    "write_emission_log",
    "read_emission_log",
]

DEFAULT_CHUNK_MS = 1000.0


class Clock(Protocol):
    """Session time source. ``now`` is monotone non-decreasing."""

    def now(self) -> float:
        """Current session time in seconds."""

    def charge(self, seconds: float) -> None:
        """Account for compute work taking ``seconds``."""

    def advance_to(self, floor_s: float) -> None:
        """Audio up to ``floor_s`` has arrived; time cannot be earlier."""


class SimulatedClock:
    """Deterministic clock: arrival floors plus declared compute costs."""

    def __init__(self) -> None:
        self._t = 0.0

    def now(self) -> float:
        return self._t

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"compute cost must be >= 0, got {seconds}")
        self._t += seconds

    def advance_to(self, floor_s: float) -> None:
        self._t = max(self._t, floor_s)


class RealClock:
    """``SimulatedClock`` with each step's compute measured, not declared:
    ``now`` adds the monotonic seconds elapsed since the last ``advance_to``."""

    def __init__(self) -> None:
        self._t = 0.0
        self._mark = time.monotonic()

    def now(self) -> float:
        return self._t + (time.monotonic() - self._mark)

    def charge(self, seconds: float) -> None:
        pass

    def advance_to(self, floor_s: float) -> None:
        mark = time.monotonic()
        self._t = max(self._t + (mark - self._mark), floor_s)
        self._mark = mark


@dataclass(frozen=True)
class Emission:
    """One committed token with its surface piece and both delays; its fields are a log event's keys, in order."""

    token: int
    text: str
    ideal_s: float
    wall_s: float


@dataclass(frozen=True)
class EmissionLog:
    """Ordered committed tokens of one session plus source duration.

    Its ``final_text`` is the text its events write (``piece_text``), or it raises ValueError.
    """

    events: tuple[Emission, ...]
    source_duration_s: float
    final_text: str

    def __post_init__(self) -> None:
        if self.final_text != (written := "".join(piece_text(e.text) for e in self.events).strip()):
            raise ValueError(f"final_text {self.final_text!r} is not {written!r}, the text its events write")

    @property
    def tokens(self) -> tuple[int, ...]:
        return tuple(event.token for event in self.events)


class SessionError(RuntimeError):
    """A failed session; carries the log of commits made so far, None if it never started."""

    def __init__(self, message: str, partial_log: EmissionLog | None):
        super().__init__(message)
        self.partial_log = partial_log

    def __reduce__(self):
        # Exceptions pickle as ``cls(*args)``; keep the log, so a session run in a worker reports it.
        return type(self), (str(self), self.partial_log)


class StreamCursor:
    """Delivers a FeatureMatrix as a growing prefix, one chunk per read."""

    def __init__(self, source: FeatureMatrix, chunk_ms: float):
        if source.num_frames < 1:
            raise ValueError("source has no frames")
        if not math.isfinite(chunk_ms):
            raise ValueError(f"chunk_ms takes finite numbers, got {chunk_ms}")
        shift = source.frame_shift_ms
        if not (chunk_ms >= shift and (chunk_ms / shift).is_integer()):
            raise ValueError(f"chunk_ms={chunk_ms} is not a positive multiple of the frame shift ({shift} ms)")
        self._source = source
        self.chunk_frames = int(chunk_ms / shift)
        self.position = 0

    @property
    def exhausted(self) -> bool:
        return self.position >= self._source.num_frames

    @property
    def delivered_s(self) -> float:
        """Seconds of audio delivered so far."""
        return self.position * self._source.frame_shift_ms / 1000.0

    def read(self) -> np.ndarray:
        """Advance by one chunk (clamped at the end) and return the full prefix."""
        if self.exhausted:
            raise ValueError("stream already exhausted")
        self.position = min(self.position + self.chunk_frames, self._source.num_frames)
        return self._source.frames[: self.position]


def _resolve_layer(adapter: ModelAdapter, attention_layer: int | None) -> int:
    num_layers = adapter.num_decoder_layers
    if attention_layer is None:
        # Match the convention of reading a mid-stack layer (index 3 when deep
        # enough); shallow toy decoders fall back to their last layer.
        return min(3, num_layers - 1)
    if not 0 <= attention_layer < num_layers:
        raise ValueError(
            f"attention_layer={attention_layer} out of range for {num_layers} decoder layers"
        )
    return attention_layer


def _count_words(adapter: ModelAdapter, prefix: np.ndarray) -> int:
    """``adapter.count_source_words(prefix)``, which must be an integer >= 0."""
    words = operator.index(adapter.count_source_words(prefix))
    if words < 0:
        raise ValueError(f"counted {words} source words; counts are integers >= 0")
    return words


def _decide(policy: Policy, context: StepContext) -> int:
    """The commit count of ``policy.decide(context)``, which must be an integer in
    ``[0, len(context.candidates)]``."""
    count = operator.index(policy.decide(context).commit_count)
    if not 0 <= count <= len(context.candidates):
        raise ValueError(f"policy committed {count} of {len(context.candidates)} candidates")
    return count


def run_session(
    source: FeatureMatrix,
    adapter: ModelAdapter,
    policy: Policy,
    *,
    chunk_ms: float = DEFAULT_CHUNK_MS,
    clock: Clock | None = None,
    attention_layer: int | None = None,
    step_cost_s: float = 0.0,
    max_new: int = DEFAULT_MAX_NEW,
) -> EmissionLog:
    """Run one streaming session and return its emission log.

    Args:
        source: full utterance features; delivered incrementally.
        adapter: incremental encoder-decoder bridge.
        policy: decision policy; its state is reset at session start.
        chunk_ms: source milliseconds delivered per read step.
        clock: session time source; default is a fresh SimulatedClock.
        attention_layer: decoder layer whose head-mean feeds the policy;
            None selects layer 3 or the last layer if the stack is shallower.
        step_cost_s: simulated compute seconds charged per adapter call
            (encode and decode each); ignored by the real clock.
        max_new: candidate-length cap per decode step.

    Raises:
        SessionError: the adapter or the policy failed mid-run; the exception
            carries the partial log of everything committed before the failure.
        ValueError: the session cannot start: ``attention_layer`` is out of
            range, ``chunk_ms`` is not finite or not a positive multiple of the
            source's frame shift, ``max_new`` is below 1, or ``step_cost_s``
            is negative or not finite.
    """
    if max_new < 1:
        raise ValueError(f"max_new must be >= 1, got {max_new}")
    if not math.isfinite(step_cost_s):
        raise ValueError(f"step_cost_s takes finite numbers, got {step_cost_s}")
    if step_cost_s < 0:
        raise ValueError(f"step_cost_s must be >= 0, got {step_cost_s}")
    if clock is None:
        clock = SimulatedClock()
    layer = _resolve_layer(adapter, attention_layer)
    vocab = adapter.vocab
    cursor = StreamCursor(source, chunk_ms)
    policy.reset()

    committed: list[int] = []
    events: list[Emission] = []
    detected_words = 0

    def partial() -> EmissionLog:
        return EmissionLog(
            events=tuple(events),
            source_duration_s=source.duration_s,
            final_text=vocab.detokenize(committed),
        )

    def commit(tokens: list[int], ideal_s: float) -> None:
        wall_s = clock.now()
        if not math.isfinite(wall_s):
            raise SessionError(f"{type(clock).__name__} read {wall_s} at {ideal_s:.3f}s", partial())
        for token in tokens:
            events.append(
                Emission(token=token, text=vocab.piece(token), ideal_s=ideal_s, wall_s=wall_s)
            )
            committed.append(token)

    def call(failure: str, thunk):
        """``thunk()``, any exception from which fails the session as ``failure``."""
        try:
            return thunk()
        except Exception as exc:
            if isinstance(exc, _AdapterFault):  # from ``advance()``, the simulator's or a policy's
                failure, exc = "adapter failed", exc.__cause__
            # a policy fault is named by its repr: its type says where the bug is
            detail = repr(exc) if failure == "policy failed" else str(exc)
            raise SessionError(f"{failure} at {ideal_s:.3f}s: {detail}", partial()) from exc

    def start(prefix: np.ndarray) -> Decode:
        """The record of the decode of ``prefix``."""
        states = adapter.encode(prefix)
        if states.n < 1:
            raise ValueError(f"encoder returned no states for {len(prefix)} frames")
        clock.charge(step_cost_s)
        if hasattr(adapter, "start_decode"):
            decode = adapter.start_decode(states, committed, max_new)
        else:
            result = adapter.decode_greedy(states, committed, max_new)
            if (head := list(result.tokens[: len(committed)])) != committed:
                raise ValueError(f"decode tokens begin {head}, not with the committed {committed}")
            decode = FinishedDecode(result, len(committed))
        return Decode(decode, adapter, tuple(committed), states.n, max_new)

    while not cursor.exhausted:
        prefix = cursor.read()
        ideal_s = cursor.delivered_s
        clock.advance_to(ideal_s)
        # Final flush: once the full source has been seen, the remaining
        # greedy hypothesis is committed without consulting the policy.
        final = cursor.exhausted
        if policy.uses_word_counts and not final:
            words = call("adapter failed counting words", lambda: _count_words(adapter, prefix))
            # Word detections only ratchet upward so the schedule never
            # retracts budget already granted.
            detected_words = max(detected_words, words)
        rule = None if final else call(
            "policy failed", lambda: policy.stop_rule(tuple(committed), detected_words, vocab, layer)
        )
        decode = call("adapter failed", lambda: start(prefix))
        # On the final flush, or with no rule, the decode is pulled to its end.
        while (pulled := call("adapter failed", decode.advance)) is not None:
            if rule is not None and call("policy failed", lambda: rule(*pulled)):
                break
        clock.charge(step_cost_s)

        candidates = decode.tokens[len(committed):]
        if final:
            commit(candidates, ideal_s)
            break

        weights = aggregate_attention(decode.candidate_attention(), layer)
        context = StepContext(
            candidates=candidates,
            attention=weights,
            alignment=compute_alignment(weights),
            source_words=detected_words,
            committed=tuple(committed),
            vocab=vocab,
            decode=decode,
        )
        count = call("policy failed", lambda: _decide(policy, context))
        commit(candidates[:count], ideal_s)

    return partial()


# ------------------------------------------------------------------ JSONL I/O

def write_emission_log(path, outcome: EmissionLog | SessionError) -> None:
    """One JSON event per line, then a summary record.

    A ``SessionError`` writes its partial log with the error added to the
    summary record, or only ``{"error": ...}`` when the session never started.
    """
    failed = isinstance(outcome, SessionError)
    log = outcome.partial_log if failed else outcome
    records, summary = [], {}
    if log is not None:
        # a new dict per event: vars(event) would keep one on every event for the rest of its life
        records = [{key: getattr(event, key) for key in _EVENT_TYPES} for event in log.events]
        summary = {"source_duration_s": log.source_duration_s, "final_text": log.final_text}
    if failed:
        summary["error"] = str(outcome)
    records.append(summary)
    lines = [json.dumps(record, ensure_ascii=False) for record in records]
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


_JSON_KINDS = {int: (int,), float: (int, float), str: (str,)}
_EVENT_TYPES = get_type_hints(Emission)


def has_json_type(value, kind: type) -> bool:
    """Whether a decoded JSON value is a ``kind``: an int is also a float, a bool is neither.

    NaN and +-inf, which Python's ``json`` parses but JSON does not define, are not floats,
    and neither is an int too large to convert to one.
    """
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        return False
    if kind is not float:
        return True
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def read_emission_log(path) -> EmissionLog:
    """Parse a log written by ``write_emission_log``.

    Raises ValueError naming ``path`` when the file is empty or not UTF-8, a
    line is not a JSON object (naming the line too), a key is missing or of
    the wrong type, the source duration is not positive, or ``final_text`` is
    not the text the events write (``piece_text``). The log of a failed
    session raises ValueError with the session's error message verbatim.
    """
    records = [record for _, record in read_json_lines(path, ValueError)]
    if not records:
        raise ValueError(f"{path}: empty emission log")

    def field(rec: dict, key: str, kind: type):
        value = rec.get(key)
        if not has_json_type(value, kind):
            raise ValueError(f"{path}: key {key!r} is missing or not {kind.__name__}")
        return kind(value)

    *events, summary = records
    if "error" in summary:
        raise ValueError(field(summary, "error", str))
    if "source_duration_s" not in summary or "final_text" not in summary:
        raise ValueError(f"{path}: missing trailing summary record")
    duration = field(summary, "source_duration_s", float)
    if not duration > 0:
        raise ValueError(f"{path}: source duration must be positive, got {duration}")
    events = tuple(
        Emission(**{key: field(event, key, kind) for key, kind in _EVENT_TYPES.items()}) for event in events
    )
    final_text = field(summary, "final_text", str)
    try:
        return EmissionLog(events, duration, final_text)
    except ValueError as exc:  # final_text is not the text its events write
        raise ValueError(f"{path}: {exc}") from None
