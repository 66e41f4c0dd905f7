"""Streaming session driver: clocks, chunked delivery, commit timing, JSONL."""

import json
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import (
    AlignAttPolicy,
    DecodeResult,
    EDAttPolicy,
    EncoderStates,
    Emission,
    EmissionLog,
    FeatureMatrix,
    LocalAgreementPolicy,
    ModelAdapter,
    Policy,
    PolicyDecision,
    RealClock,
    SessionError,
    SimulatedClock,
    StopReason,
    StreamCursor,
    ToyModel,
    ToyModelConfig,
    Vocabulary,
    WaitKPolicy,
    aggregate_attention,
    alignatt_decide,
    build_default_vocabulary,
    compute_alignment,
    load_manifest,
    load_source_features,
    read_emission_log,
    run_session,
    write_emission_log,
)
from simulst import simulator
from simulst.model import Decode, FinishedDecode, _ToyDecode

from conftest import build_suite, make_source
from support import ADAPTER_MEMBERS, CONTRACT_BREAKS, FaultyAdapter, ScriptStep, ScriptedAdapter, piece_id


class TestSimulatedClock:
    def test_advance_and_charge(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        clock.advance_to(1.0)
        assert clock.now() == 1.0
        clock.charge(0.25)
        assert clock.now() == 1.25
        clock.advance_to(1.0)  # floor below current time: no-op
        assert clock.now() == 1.25
        clock.advance_to(2.0)
        assert clock.now() == 2.0

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match=">= 0"):
            SimulatedClock().charge(-0.1)


class TestRealClock:
    def test_respects_arrival_floor(self):
        clock = RealClock()
        clock.advance_to(100.0)
        assert clock.now() >= 100.0

    def test_charge_is_a_no_op(self):
        clock = RealClock()
        before = clock.now()
        clock.charge(50.0)
        assert clock.now() - before < 1.0

    def test_time_moves_forward(self):
        clock = RealClock()
        assert clock.now() >= 0.0
        first = clock.now()
        assert clock.now() >= first

    def test_compute_after_arrival_counts(self, monkeypatch):
        ticks = iter([0.0, 0.001, 0.011])
        monkeypatch.setattr(simulator, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        clock = RealClock()
        clock.advance_to(0.25)
        assert clock.now() == pytest.approx(0.26)


class TestStreamCursor:
    def source(self, num_frames=10):
        return FeatureMatrix(frames=np.arange(num_frames * 2, dtype=np.float32).reshape(num_frames, 2))

    def test_prefix_grows_by_chunk(self):
        cursor = StreamCursor(self.source(10), chunk_ms=30.0)
        first = cursor.read()
        assert first.shape[0] == 3
        assert cursor.delivered_s == pytest.approx(0.03)
        second = cursor.read()
        assert second.shape[0] == 6
        assert np.array_equal(second[:3], first)

    def test_final_chunk_clamped(self):
        cursor = StreamCursor(self.source(10), chunk_ms=40.0)
        cursor.read(), cursor.read()
        final = cursor.read()
        assert final.shape[0] == 10
        assert cursor.exhausted
        assert cursor.delivered_s == pytest.approx(0.1)

    def test_read_after_exhaustion(self):
        cursor = StreamCursor(self.source(2), chunk_ms=1000.0)
        cursor.read()
        with pytest.raises(ValueError, match="exhausted"):
            cursor.read()

    def test_validation(self):
        with pytest.raises(ValueError, match="no frames"):
            StreamCursor(FeatureMatrix(frames=np.zeros((0, 2), dtype=np.float32)), 100.0)
        with pytest.raises(ValueError, match=r"not a positive multiple of the frame shift \(10\.0 ms\)"):
            StreamCursor(self.source(), chunk_ms=5.0)

    def test_chunk_is_a_whole_number_of_frame_shifts(self):
        # rounding would run both as 20 ms chunks while the run records what was asked for
        for chunk_ms in (15.0, 25.0):
            with pytest.raises(ValueError) as info:
                StreamCursor(self.source(), chunk_ms=chunk_ms)
            assert str(info.value) == f"chunk_ms={chunk_ms} is not a positive multiple of the frame shift (10.0 ms)"
        assert StreamCursor(self.source(), chunk_ms=250.0).chunk_frames == 25


def scripted_setup(alignment_mode: str):
    """160-frame source (1.6 s), 400 ms chunks -> n = 10, 20, 30, 40.

    alignment_mode "early": every token aligned at frame 0 (never in the
    attention band). "late": every token aligned at the newest frame.
    """
    vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "▁dd"])
    ids = [piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "▁dd")]

    def align(count, n):
        if alignment_mode == "early":
            return tuple(0 for _ in range(count))
        return tuple(n - 1 for _ in range(count))

    script = {
        10: ScriptStep(tokens=tuple(ids[:1]), alignment=align(1, 10)),
        20: ScriptStep(tokens=tuple(ids[:2]), alignment=align(2, 20)),
        30: ScriptStep(tokens=tuple(ids[:3]), alignment=align(3, 30)),
        40: ScriptStep(tokens=tuple(ids[:4]), alignment=align(4, 40), eos=True),
    }
    adapter = ScriptedAdapter(vocab, script)
    source = FeatureMatrix(frames=np.zeros((160, 80), dtype=np.float32))
    return vocab, ids, adapter, source


class TestRunSession:
    def test_early_alignments_commit_as_decoded(self):
        vocab, ids, adapter, source = scripted_setup("early")
        log = run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0)
        assert log.tokens == tuple(ids)
        assert [e.ideal_s for e in log.events] == pytest.approx([0.4, 0.8, 1.2, 1.6])
        assert [e.wall_s for e in log.events] == pytest.approx([0.4, 0.8, 1.2, 1.6])
        assert log.final_text == "aa bb cc dd"
        assert log.source_duration_s == pytest.approx(1.6)

    def test_band_alignments_defer_everything_to_flush(self):
        vocab, ids, adapter, source = scripted_setup("late")
        log = run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0)
        assert log.tokens == tuple(ids)
        # nothing passes the stopping rule mid-stream; the exhaustion flush
        # commits the full hypothesis at the source duration
        assert all(e.ideal_s == pytest.approx(1.6) for e in log.events)

    def test_flush_ignores_policy(self):
        vocab, ids, adapter, source = scripted_setup("late")

        class NeverCommit(AlignAttPolicy):
            def decide(self, ctx):
                decision = super().decide(ctx)
                return type(decision)(commit_count=0, stopped_by=decision.stopped_by)

        log = run_session(source, adapter, NeverCommit(f=2), chunk_ms=400.0)
        assert log.tokens == tuple(ids)

    def test_step_cost_charged_per_adapter_call(self):
        vocab = Vocabulary(["▁aa", "▁bb"])
        a, b = piece_id(vocab, "▁aa"), piece_id(vocab, "▁bb")
        script = {
            25: ScriptStep(tokens=(a,), alignment=(0,)),
            50: ScriptStep(tokens=(a, b), alignment=(0, 0), eos=True),
        }
        adapter = ScriptedAdapter(vocab, script)
        source = FeatureMatrix(frames=np.zeros((200, 80), dtype=np.float32))
        log = run_session(
            source, adapter, AlignAttPolicy(f=2), chunk_ms=1000.0, step_cost_s=0.1
        )
        # chunk arrives at 1.0, encode and decode cost 0.1 each -> wall 1.2;
        # second chunk floors the clock at 2.0 again -> wall 2.2
        assert [e.ideal_s for e in log.events] == pytest.approx([1.0, 2.0])
        assert [e.wall_s for e in log.events] == pytest.approx([1.2, 2.2])

    def test_wall_never_precedes_ideal(self):
        vocab, ids, adapter, source = scripted_setup("early")
        for cost in (0.0, 0.05, 0.7):
            log = run_session(
                source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0, step_cost_s=cost
            )
            for event in log.events:
                assert event.wall_s >= event.ideal_s - 1e-12

    def test_timestamps_monotone(self, toy_model):
        source = make_source(np.random.default_rng(21), 240)
        log = run_session(source, toy_model, AlignAttPolicy(f=3), chunk_ms=300.0, step_cost_s=0.02)
        ideals = [e.ideal_s for e in log.events]
        walls = [e.wall_s for e in log.events]
        assert ideals == sorted(ideals)
        assert walls == sorted(walls)
        assert all(i <= log.source_duration_s + 1e-12 for i in ideals)

    def test_final_text_matches_tokens(self, toy_model, default_vocab):
        source = make_source(np.random.default_rng(22), 180)
        log = run_session(source, toy_model, AlignAttPolicy(f=2), chunk_ms=250.0)
        assert log.final_text == default_vocab.detokenize(log.tokens)

    def test_waitk_schedule_uses_ratcheted_word_counts(self):
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "▁dd"])
        ids = [piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "▁dd")]
        script = {
            10: ScriptStep(tokens=tuple(ids[:2]), alignment=(0, 0), source_words=2),
            20: ScriptStep(tokens=tuple(ids[:3]), alignment=(0, 0, 0), source_words=1),
            30: ScriptStep(tokens=tuple(ids[:3]), alignment=(0, 0, 0), source_words=3),
            40: ScriptStep(tokens=tuple(ids), alignment=(0, 0, 0, 0), eos=True, source_words=4),
        }
        adapter = ScriptedAdapter(vocab, script)
        source = FeatureMatrix(frames=np.zeros((160, 80), dtype=np.float32))
        log = run_session(source, adapter, WaitKPolicy(k=2), chunk_ms=400.0)
        assert log.tokens == tuple(ids)
        # k=2 with 2 words detected allows one committed word; the detected
        # count dips to 1 at n=20 but the ratchet keeps the budget at 2 words;
        # incomplete tail words wait for the next word start or the flush
        by_ideal = {}
        for e in log.events:
            by_ideal.setdefault(round(e.ideal_s, 3), []).append(e.token)
        assert by_ideal[0.4] == [ids[0]]
        assert 0.8 not in by_ideal
        assert by_ideal[1.2] == [ids[1]]
        assert by_ideal[1.6] == [ids[2], ids[3]]

    def test_local_agreement_session(self):
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "▁dd"])
        ids = [piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "▁dd")]
        script = {
            10: ScriptStep(tokens=(ids[0], ids[1]), alignment=(0, 0)),
            20: ScriptStep(tokens=(ids[0], ids[2]), alignment=(0, 0)),
            30: ScriptStep(tokens=(ids[0], ids[2], ids[3]), alignment=(0, 0, 0)),
            40: ScriptStep(tokens=(ids[0], ids[2], ids[3]), alignment=(0, 0, 0), eos=True),
        }
        adapter = ScriptedAdapter(vocab, script)
        source = FeatureMatrix(frames=np.zeros((160, 80), dtype=np.float32))
        log = run_session(source, adapter, LocalAgreementPolicy(), chunk_ms=400.0)
        assert log.tokens == (ids[0], ids[2], ids[3])
        # chunk 1: no history; chunk 2: lcp([aa,bb],[aa,cc]) = 1 -> commit aa;
        # chunk 3: lcp([aa,cc],[aa,cc,dd]) = 2 -> commit cc; flush commits dd
        assert [e.ideal_s for e in log.events] == pytest.approx([0.8, 1.2, 1.6])

    def test_adapter_failure_carries_partial_log(self):
        vocab, ids, adapter, source = scripted_setup("early")

        class Flaky:
            def __init__(self, inner):
                self._inner = inner
                self.vocab = inner.vocab
                self.num_decoder_layers = inner.num_decoder_layers
                self.num_heads = inner.num_heads
                self.calls = 0

            def encode(self, feats):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("device lost")
                return self._inner.encode(feats)

            def decode_greedy(self, enc, forced_prefix, max_new=128):
                return self._inner.decode_greedy(enc, forced_prefix, max_new)

            def count_source_words(self, feats):
                return self._inner.count_source_words(feats)

        with pytest.raises(SessionError, match=r"adapter failed at 1\.200s") as info:
            run_session(source, Flaky(adapter), AlignAttPolicy(f=2), chunk_ms=400.0)
        partial = info.value.partial_log
        assert partial.tokens == tuple(ids[:2])
        assert partial.final_text == "aa bb"

    def test_policy_overflow_is_session_error(self):
        vocab, ids, adapter, source = scripted_setup("early")

        class Greedy(AlignAttPolicy):
            def decide(self, ctx):
                base = super().decide(ctx)
                return type(base)(commit_count=len(ctx.candidates) + 5, stopped_by=base.stopped_by)

        with pytest.raises(SessionError, match="policy committed"):
            run_session(source, adapter, Greedy(f=2), chunk_ms=400.0)

    def test_non_finite_clock_fails_the_session(self):
        vocab, ids, adapter, source = scripted_setup("early")
        with pytest.raises(SessionError, match=r"SimulatedClock read inf at 0\.400s") as info:
            run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0, step_cost_s=1e308)
        assert info.value.partial_log.events == ()

    def test_attention_layer_validation(self):
        vocab, ids, adapter, source = scripted_setup("early")
        with pytest.raises(ValueError, match="out of range"):
            run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0, attention_layer=4)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"max_new": 0}, "max_new must be >= 1, got 0"),
            ({"step_cost_s": -1.0}, "step_cost_s must be >= 0, got -1.0"),
            ({"step_cost_s": float("nan")}, "step_cost_s takes finite numbers, got nan"),
            ({"step_cost_s": float("inf")}, "step_cost_s takes finite numbers, got inf"),
            ({"chunk_ms": float("nan")}, "chunk_ms takes finite numbers, got nan"),
            ({"chunk_ms": float("inf")}, "chunk_ms takes finite numbers, got inf"),
        ],
    )
    def test_bad_engine_arguments_fail_before_the_first_step(self, toy_model, options, message):
        vocab, ids, adapter, source = scripted_setup("early")
        for model in (adapter, toy_model):
            encoded = []
            watched = _Forwarding(model)
            watched.encode = lambda feats: encoded.append(feats) or model.encode(feats)
            with pytest.raises(ValueError) as info:
                run_session(source, watched, AlignAttPolicy(f=2), **{"chunk_ms": 400.0} | options)
            assert str(info.value) == message and encoded == []

    def test_policy_reads_the_steps_decode_through_its_view(self, toy_model):
        # the view holds the step's hypothesis and its end; the candidates are the tokens the stop
        # rule saw, and ``ctx.attention`` is the head-mean of their rows at the policy's layer;
        # a stop rule pauses some decodes before end-of-sequence, not all
        seen, pulled = [], []

        class Reading(AlignAttPolicy):
            def stop_rule(self, committed, source_words, vocab, layer):
                rule = super().stop_rule(committed, source_words, vocab, layer)
                pulled.clear()
                return lambda token, row: pulled.append((token, row)) or rule(token, row)

            def decide(self, ctx):
                assert ctx.decode.tokens == ctx.committed + ctx.candidates
                assert ctx.candidates == tuple(token for token, _ in pulled)
                assert len(ctx.attention) == len(pulled)
                assert all(np.array_equal(w, row[0].mean(axis=0)) for w, (_, row) in zip(ctx.attention, pulled))
                # an end the decode read is one it reached: it returns no more tokens
                assert not ctx.decode.eos_reached or ctx.decode.advance() is None
                seen.append(ctx.decode.eos_reached)
                return super().decide(ctx)

        source = make_source(np.random.default_rng(7), 300)
        run_session(source, toy_model, Reading(f=2), chunk_ms=200.0, attention_layer=0)
        assert set(seen) == {False, True}

    def test_explicit_attention_layer_accepted(self):
        vocab, ids, adapter, source = scripted_setup("early")
        log = run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0, attention_layer=0)
        assert log.tokens == tuple(ids)


class _Forwarding:
    """Forwards the ``ModelAdapter`` protocol and records each decode.

    It offers no ``start_decode``, so the simulator replays each
    ``decode_greedy`` result through ``FinishedDecode``: every decode runs in
    full. ``calls`` names the method of each decode, ``decoded`` counts the
    tokens it generated for the simulator, and ``resumed`` counts the later
    ``advance`` calls on a decode that is no longer the newest, which only a
    policy reading it makes.
    """

    def __init__(self, inner):
        self._inner = inner
        self.vocab = inner.vocab
        self.num_decoder_layers = inner.num_decoder_layers
        self.num_heads = inner.num_heads
        self.calls = []
        self.decoded = []
        self.resumed = 0

    def encode(self, feats):
        return self._inner.encode(feats)

    def decode_greedy(self, enc, forced_prefix, max_new=128):
        self.calls.append("decode_greedy")
        result = self._inner.decode_greedy(enc, forced_prefix, max_new)
        self.decoded.append(len(result.tokens) - len(forced_prefix))
        return result

    def count_source_words(self, feats):
        return self._inner.count_source_words(feats)


class _Pulls(_Forwarding):
    """``_Forwarding`` that also offers ``start_decode``, counting each generated token.

    It forwards the inner adapter's ``start_decode``, or replays the inner
    ``decode_greedy`` result when there is none, so that a scripted adapter
    is pulled as one that generates on demand would be.
    """

    def start_decode(self, enc, forced_prefix, max_new=128):
        self.calls.append("start_decode")
        self.decoded.append(0)
        if hasattr(self._inner, "start_decode"):
            decode = self._inner.start_decode(enc, forced_prefix, max_new)
        else:
            result = self._inner.decode_greedy(enc, forced_prefix, max_new)
            decode = FinishedDecode(result, len(forced_prefix))
        return _CountedDecode(self, decode)


class _CountedDecode:
    def __init__(self, adapter, decode):
        self._adapter = adapter
        self._decode = decode
        self._index = len(adapter.calls) - 1

    def __getattr__(self, name):
        return getattr(self._decode, name)

    def advance(self):
        pulled = self._decode.advance()
        if self._index < len(self._adapter.calls) - 1:
            self._adapter.resumed += 1
        elif pulled is not None:
            self._adapter.decoded[self._index] += 1
        return pulled


class _TwoMembers:
    """A decode with only the two members of the ``Decode`` contract, read from another: ``advance()``,
    and ``eos_reached``, which exists only once ``advance()`` has returned None. Reading any other
    attribute raises."""

    def __init__(self, decode):
        self._decode = decode

    def __getattr__(self, name):
        raise AssertionError(f"read {name!r} of a decode")

    def advance(self):
        if (pulled := self._decode.advance()) is None:
            self.eos_reached = self._decode.eos_reached
        return pulled


class _TwoMemberDecodes(_Forwarding):
    """``_Forwarding`` with a ``start_decode`` whose decodes are ``_TwoMembers``."""

    def start_decode(self, enc, forced_prefix, max_new=128):
        self.calls.append("start_decode")
        return _TwoMembers(self._inner.start_decode(enc, forced_prefix, max_new))


def _without_rule(policy):
    """``policy`` with a ``stop_rule`` that returns None, so that every decode is pulled to its end."""
    policy.stop_rule = lambda committed, source_words, vocab, layer: None
    return policy


def _recording(policy, seen):
    """``policy`` appending, at each ``decide``, the type of the adapter's decode that the step's
    ``Decode`` reads and whether the record holds the hypothesis."""
    decide = policy.decide

    def recorded(ctx):
        assert type(ctx.decode) is Decode
        seen.append((type(ctx.decode._decode), ctx.decode.tokens == ctx.committed + ctx.candidates))
        return decide(ctx)

    policy.decide = recorded
    return policy


_STOP_VOCAB = Vocabulary(["▁aa", "▁bb", "cc", "dd"])


@st.composite
def random_scripts(draw):
    """A source and a ScriptedAdapter that reveals one master hypothesis as a growing prefix.

    Each encoder length n gets a hypothesis length (non-decreasing in n), a
    random frame per token, leaning to the newest frames, an end-of-sequence
    flag and a word count.
    """
    frames = draw(st.integers(4, 120))
    chunk_ms = draw(st.sampled_from([40.0, 80.0, 120.0, 200.0]))
    n_max = -(-frames // 4)
    master = draw(st.lists(st.integers(2, _STOP_VOCAB.size - 1), max_size=14))
    growth = draw(st.lists(st.integers(0, 3), min_size=n_max, max_size=n_max))
    lengths = np.minimum(np.cumsum(growth), len(master))
    seed = draw(st.integers(0, 10_000))
    eos_at_end = draw(st.booleans())
    words_per_frame = draw(st.floats(0.0, 1.5))

    def script(n):
        rng = np.random.default_rng((seed, n))
        length = int(lengths[n - 1])
        late = n - 1 - rng.integers(0, min(n, 3), size=length)
        alignment = np.where(rng.random(length) < 0.5, late, rng.integers(0, n, size=length))
        return ScriptStep(
            tokens=tuple(master[:length]),
            alignment=tuple(int(a) for a in alignment),
            eos=(n == n_max and eos_at_end) or bool(rng.random() < 0.2),
            source_words=int(n * words_per_frame),
        )

    source = FeatureMatrix(frames=np.zeros((frames, 80), dtype=np.float32))
    return source, ScriptedAdapter(_STOP_VOCAB, script, num_layers=2, num_heads=2), chunk_ms


class _Diverging:
    """Scripted hypotheses that keep the committed prefix and diverge after it.

    ``hypotheses[n - 1]`` is the hypothesis at encoder length n; a decode
    returns the forced prefix followed by that hypothesis past the prefix's
    length, so successive hypotheses may disagree anywhere past what has been
    committed. Frames and flags are drawn as in ``random_scripts``.
    """

    num_decoder_layers = 2
    num_heads = 2
    vocab = _STOP_VOCAB

    def __init__(self, hypotheses, seed, words_per_frame):
        self._hypotheses = hypotheses
        self._seed = seed
        self._words_per_frame = words_per_frame

    def encode(self, feats):
        return ScriptedAdapter(self.vocab, {}).encode(feats)

    def _scripted(self, n, prefix):
        tokens = prefix + tuple(self._hypotheses[n - 1][len(prefix):])
        rng = np.random.default_rng((self._seed, n, len(prefix)))
        late = n - 1 - rng.integers(0, min(n, 3), size=len(tokens))
        alignment = np.where(rng.random(len(tokens)) < 0.5, late, rng.integers(0, n, size=len(tokens)))
        step = ScriptStep(
            tokens=tokens,
            alignment=tuple(int(a) for a in alignment),
            eos=bool(rng.random() < 0.5),
        )
        return ScriptedAdapter(self.vocab, {n: step}, self.num_decoder_layers, self.num_heads)

    def decode_greedy(self, enc, forced_prefix, max_new=128):
        prefix = tuple(forced_prefix)
        return self._scripted(enc.n, prefix).decode_greedy(enc, prefix, max_new)

    def count_source_words(self, feats):
        return int(self.encode(feats).n * self._words_per_frame)


@st.composite
def diverging_scripts(draw):
    """A source and a ``_Diverging`` adapter whose hypotheses are random edits of one master."""
    frames = draw(st.integers(4, 120))
    chunk_ms = draw(st.sampled_from([40.0, 80.0, 120.0, 200.0]))
    n_max = -(-frames // 4)
    token = st.integers(2, _STOP_VOCAB.size - 1)
    master = draw(st.lists(token, max_size=14))
    hypotheses = []
    for _ in range(n_max):
        edited = list(master[: draw(st.integers(0, len(master)))])
        for _ in range(draw(st.integers(0, 2))):
            if edited:
                edited[draw(st.integers(0, len(edited) - 1))] = draw(token)
        hypotheses.append(tuple(edited) + tuple(draw(st.lists(token, max_size=2))))
    adapter = _Diverging(hypotheses, draw(st.integers(0, 10_000)), draw(st.floats(0.0, 1.5)))
    source = FeatureMatrix(frames=np.zeros((frames, 80), dtype=np.float32))
    return source, adapter, chunk_ms


class TestStopHook:
    """Pulling a decode only until the stop rule fires never changes what is committed, or when."""

    POLICIES = [
        lambda: AlignAttPolicy(f=1),
        lambda: AlignAttPolicy(f=2),
        lambda: EDAttPolicy(alpha=0.5, lam=2),
        lambda: WaitKPolicy(k=1),
        lambda: WaitKPolicy(k=3),
        lambda: LocalAgreementPolicy(),
    ]

    @staticmethod
    def assert_early_stop_changes_no_log(source, adapter, chunk_ms, max_new, make_policy):
        """Run the policy with its stop rule and without one, and bridged from ``decode_greedy``.

        Returns how often a policy read a paused decode.
        """
        pulled, drained, bridged = _Pulls(adapter), _Pulls(adapter), _Forwarding(adapter)
        runs = ((pulled, make_policy()), (drained, _without_rule(make_policy())), (bridged, make_policy()))
        logs = [run_session(source, a, p, chunk_ms=chunk_ms, max_new=max_new) for a, p in runs]
        assert logs[0] == logs[1] == logs[2]
        assert set(bridged.calls) == {"decode_greedy"}
        assert all(h <= p for h, p in zip(pulled.decoded, drained.decoded))
        assert drained.decoded == bridged.decoded
        return pulled.resumed

    @settings(max_examples=150, deadline=None)
    @given(case=random_scripts(), max_new=st.sampled_from([2, 128]))
    def test_log_equals_the_log_of_an_adapter_without_the_capability(self, case, max_new):
        for make_policy in self.POLICIES:
            self.assert_early_stop_changes_no_log(*case, max_new, make_policy)

    def test_diverging_hypotheses_log_equal_and_local_agreement_resumes(self):
        resumed = []

        @settings(max_examples=150, deadline=None, database=None)
        @given(case=diverging_scripts(), max_new=st.sampled_from([2, 128]))
        def check(case, max_new):
            for make_policy in self.POLICIES:
                count = self.assert_early_stop_changes_no_log(*case, max_new, make_policy)
                if make_policy is not self.POLICIES[-1]:
                    assert count == 0  # only local agreement reads past a paused decode
                resumed.append(count)

        check()
        assert sum(c > 0 for c in resumed) >= 10

    def test_hook_shortens_decodes(self):
        vocab, ids, adapter, source = scripted_setup("late")
        pulled, plain = _Pulls(adapter), _Forwarding(adapter)
        for a in (pulled, plain):
            run_session(source, a, AlignAttPolicy(f=2), chunk_ms=400.0)
        # each early step stops at its first candidate; the final flush drains
        # its decode, and the bridged adapter decodes every step in full
        assert pulled.decoded == [1, 1, 1, 4] and plain.decoded == [1, 2, 3, 4]
        assert pulled.calls == ["start_decode"] * 4

    @pytest.mark.parametrize("make_policy", POLICIES)
    def test_adapters_without_the_capability_are_bridged(self, make_policy):
        vocab, ids, adapter, source = scripted_setup("late")
        plain = _Forwarding(adapter)
        assert isinstance(plain, ModelAdapter)
        rules, seen = [], []
        policy = _recording(make_policy(), seen)
        stop_rule = policy.stop_rule
        policy.stop_rule = lambda *args: rules.append(args) or stop_rule(*args)
        log = run_session(source, plain, policy, chunk_ms=400.0)
        assert log == run_session(source, _Pulls(adapter), make_policy(), chunk_ms=400.0)
        # every step decodes in full; every step but the final flush asks for
        # a stop rule and hands the policy the replayed decode
        assert plain.calls == ["decode_greedy"] * 4
        assert len(rules) == 3 and seen == [(FinishedDecode, True)] * 3

    def test_policies_without_a_rule_decode_in_full(self):
        vocab, ids, adapter, source = scripted_setup("late")
        pulled = _Pulls(adapter)
        log = run_session(source, pulled, _without_rule(AlignAttPolicy(f=2)), chunk_ms=400.0)
        assert log == run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0)
        assert pulled.calls == ["start_decode"] * 4 and pulled.decoded == [1, 2, 3, 4]

    def test_local_agreement_stops_at_the_first_disagreement(self):
        vocab, ids, adapter, source = scripted_setup("late")
        pulled, plain = _Pulls(adapter), _Forwarding(adapter)
        logs = [run_session(source, a, LocalAgreementPolicy(), chunk_ms=400.0) for a in (pulled, plain)]
        assert logs[0] == logs[1] and logs[0].tokens == tuple(ids)
        # step 1 has no previous hypothesis and stops after one token; steps
        # 2 and 3 stop at the token past the previous hypothesis's end, which
        # advancing that hypothesis finds; the final flush drains its decode
        assert pulled.calls == ["start_decode"] * 4
        assert pulled.decoded == [1, 2, 2, 2] and plain.decoded == [1, 2, 2, 2]
        assert pulled.resumed == 2

    def test_local_agreement_reads_the_previous_hypothesis_lazily(self):
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "▁dd"])
        a, b, c, d = (piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "▁dd"))
        script = {
            10: ScriptStep(tokens=(a, b, c, d), alignment=(0, 0, 0, 0)),
            20: ScriptStep(tokens=(a, b, d, c), alignment=(0, 0, 0, 0)),
            30: ScriptStep(tokens=(a, b, d, c, a), alignment=(0, 0, 0, 0, 0), eos=True),
        }
        source = FeatureMatrix(frames=np.zeros((120, 80), dtype=np.float32))
        adapter = ScriptedAdapter(vocab, script)
        pulled, plain = _Pulls(adapter), _Forwarding(adapter)
        logs = [run_session(source, x, LocalAgreementPolicy(), chunk_ms=400.0) for x in (pulled, plain)]
        assert logs[0] == logs[1] and logs[0].tokens == (a, b, d, c, a)
        # step 2 advances step 1's one-token decode twice and stops at d, its
        # first disagreement; the flush then decodes in full
        assert pulled.decoded == [1, 3, 3] and plain.decoded == [4, 4, 3]
        assert pulled.resumed == 2
        assert [e.ideal_s for e in logs[0].events] == pytest.approx([0.8, 0.8, 1.2, 1.2, 1.2])

    @pytest.mark.parametrize(
        "make_policy",
        [lambda: AlignAttPolicy(f=2), lambda: EDAttPolicy(alpha=0.3), lambda: WaitKPolicy(k=2),
         LocalAgreementPolicy],
        ids=["alignatt", "edatt", "waitk", "local_agreement"],
    )
    def test_toy_logs_equal_pulled_and_bridged(self, toy_model, tmp_path, make_policy):
        entries = load_manifest(build_suite(tmp_path, num_utterances=4))
        saved, resumed = [], 0
        for chunk_ms in (250.0, 600.0):
            for entry in entries:
                source = load_source_features(entry.source)
                pulled, plain, seen = _Pulls(toy_model), _Forwarding(toy_model), []
                logs = [
                    run_session(source, x, make_policy(), chunk_ms=chunk_ms)
                    for x in (pulled, plain)
                ]
                logs.append(run_session(source, toy_model, _recording(make_policy(), seen), chunk_ms=chunk_ms))
                # a decode with only the two members of the contract serves as well
                duck, ducks = _TwoMemberDecodes(toy_model), []
                logs.append(run_session(source, duck, _recording(make_policy(), ducks), chunk_ms=chunk_ms))
                assert logs[0] == logs[1] == logs[2] == logs[3]
                assert seen and all(kind is _ToyDecode and holds for kind, holds in seen)
                assert ducks and all(kind is _TwoMembers and holds for kind, holds in ducks)
                saved.append(sum(plain.decoded) - sum(pulled.decoded))
                resumed += pulled.resumed
        local_agreement = make_policy().name == "local_agreement"
        # early stop saves decoder work in every session under local
        # agreement, and in some under each other policy
        assert min(saved) >= 0 and (min(saved) if local_agreement else max(saved)) > 0
        assert (resumed > 0) == local_agreement

    def test_failing_stop_rule_is_a_policy_error(self):
        vocab, ids, adapter, source = scripted_setup("early")

        class Broken(AlignAttPolicy):
            def stop_rule(self, committed, source_words, vocab, layer):
                raise KeyError("layer")

        with pytest.raises(SessionError, match=r"policy failed at 0\.400s: KeyError"):
            run_session(source, adapter, Broken(f=2), chunk_ms=400.0)

    def test_stop_rule_raising_mid_decode_is_a_policy_error(self):
        vocab, ids, adapter, source = scripted_setup("early")

        class Buggy(AlignAttPolicy):
            def stop_rule(self, committed, source_words, vocab, layer):
                def stop(token, row):
                    raise ValueError("rule bug")

                return stop

        with pytest.raises(SessionError) as info:
            run_session(source, adapter, Buggy(f=2), chunk_ms=400.0)
        assert str(info.value) == "policy failed at 0.400s: ValueError('rule bug')"
        assert info.value.partial_log.events == ()

    def test_advance_raising_is_an_adapter_error(self):
        vocab, ids, adapter, source = scripted_setup("early")

        class LostDecode:
            def advance(self):
                raise RuntimeError("device lost")

        class Lost(_Pulls):
            def start_decode(self, enc, forced_prefix, max_new=128):
                decode = super().start_decode(enc, forced_prefix, max_new)
                return LostDecode() if len(self.calls) == 2 else decode

        with pytest.raises(SessionError) as info:
            run_session(source, Lost(adapter), AlignAttPolicy(f=2), chunk_ms=400.0)
        assert str(info.value) == "adapter failed at 0.800s: device lost"
        assert info.value.partial_log.tokens == tuple(ids[:1])


class TestSessionInvariants:
    """What every session log obeys, whatever the adapter's hypotheses and the policy."""

    POLICIES = [
        lambda: AlignAttPolicy(f=2),
        lambda: EDAttPolicy(alpha=0.5, lam=2),
        lambda: WaitKPolicy(k=2),
        lambda: LocalAgreementPolicy(),
    ]

    @classmethod
    def assert_invariants(cls, source, adapter, chunk_ms, step_cost_s):
        for make_policy in cls.POLICIES:
            policy, steps = make_policy(), []
            decide = policy.decide

            def recorded(ctx):
                decision = decide(ctx)
                steps.append((ctx.committed, ctx.candidates, decision.commit_count))
                return decision

            policy.decide = recorded
            log = run_session(source, adapter, policy, chunk_ms=chunk_ms, step_cost_s=step_cost_s)
            # append-only: each step starts from all earlier commits and adds
            # at most its candidates, from their start
            committed = ()
            for before, candidates, count in steps:
                assert before == committed and 0 <= count <= len(candidates)
                committed += candidates[:count]
            assert log.tokens[: len(committed)] == committed
            events = log.events
            assert all(e.wall_s >= e.ideal_s for e in events)
            assert all(a.ideal_s <= b.ideal_s and a.wall_s <= b.wall_s for a, b in zip(events, events[1:]))
            assert log.final_text == adapter.vocab.detokenize(log.tokens)

    @settings(max_examples=60, deadline=None)
    @given(case=random_scripts(), step_cost_s=st.sampled_from([0.0, 0.03]))
    def test_random_scripts(self, case, step_cost_s):
        self.assert_invariants(*case, step_cost_s)

    @settings(max_examples=60, deadline=None)
    @given(case=diverging_scripts(), step_cost_s=st.sampled_from([0.0, 0.03]))
    def test_diverging_scripts(self, case, step_cost_s):
        self.assert_invariants(*case, step_cost_s)


def _faulty_setup(site: str, error: Exception):
    """The "early" scripted session under AlignAtt, with ``site`` raising ``error`` on the third step (1.2 s).

    The adapter offers ``start_decode`` unless the site is the bridged
    ``decode_greedy``; the policy asks for word counts, so that the
    simulator calls ``count_source_words``; ``rule`` is the stop rule itself.
    """
    vocab, ids, adapter, source = scripted_setup("early")

    def check(name: str, third_step: bool) -> None:
        if name == site and third_step:
            raise error

    class Bridged(_Forwarding):
        def encode(self, feats):
            check("encode", len(feats) == 120)
            return super().encode(feats)

        def count_source_words(self, feats):
            check("count_source_words", len(feats) == 120)
            return super().count_source_words(feats)

        def decode_greedy(self, enc, forced_prefix, max_new=128):
            check("decode_greedy", enc.n == 30)
            return super().decode_greedy(enc, forced_prefix, max_new)

    class Pulled(Bridged):
        def start_decode(self, enc, forced_prefix, max_new=128):
            check("start_decode", enc.n == 30)
            decode = FinishedDecode(self._inner.decode_greedy(enc, forced_prefix, max_new), len(forced_prefix))
            advance = decode.advance

            def faulty_advance():
                check("advance", enc.n == 30)
                return advance()

            decode.advance = faulty_advance
            return decode

    class Policy(AlignAttPolicy):
        uses_word_counts = True

        def stop_rule(self, committed, source_words, vocab, layer):
            check("stop_rule", len(committed) == 2)
            rule = super().stop_rule(committed, source_words, vocab, layer)

            def faulty_rule(token, row):
                check("rule", len(committed) == 2)
                return rule(token, row)

            return faulty_rule

        def decide(self, ctx):
            check("decide", len(ctx.committed) == 2)
            return super().decide(ctx)

    faulty = (Bridged if site == "decode_greedy" else Pulled)(adapter)
    return ids, source, faulty, Policy(f=2)


class TestSessionFailures:
    """Whatever collaborator call raises, the session fails with one exact message and its commits so far."""

    @pytest.mark.parametrize(
        "site, message",
        [
            ("count_source_words", "adapter failed counting words at 1.200s: 'boom'"),
            ("stop_rule", "policy failed at 1.200s: KeyError('boom')"),
            ("encode", "adapter failed at 1.200s: 'boom'"),
            ("start_decode", "adapter failed at 1.200s: 'boom'"),
            ("decode_greedy", "adapter failed at 1.200s: 'boom'"),
            ("advance", "adapter failed at 1.200s: 'boom'"),
            ("rule", "policy failed at 1.200s: KeyError('boom')"),
            ("decide", "policy failed at 1.200s: KeyError('boom')"),
        ],
    )
    def test_message_cause_and_partial_log(self, site, message):
        error = KeyError("boom")
        ids, source, adapter, policy = _faulty_setup(site, error)
        with pytest.raises(SessionError) as info:
            run_session(source, adapter, policy, chunk_ms=400.0)
        assert str(info.value) == message
        assert info.value.__cause__ is error
        partial = info.value.partial_log
        assert partial.tokens == tuple(ids[:2])
        assert [e.ideal_s for e in partial.events] == [0.4, 0.8]
        assert partial.final_text == "aa bb"

    def test_pickle_round_trip_keeps_message_and_partial_log(self):
        # A session run in a worker process comes back to the runner pickled.
        ids, source, adapter, policy = _faulty_setup("decide", KeyError("boom"))
        with pytest.raises(SessionError) as info:
            run_session(source, adapter, policy, chunk_ms=400.0)
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is SessionError
        assert str(copy) == str(info.value) == "policy failed at 1.200s: KeyError('boom')"
        assert copy.partial_log == info.value.partial_log
        assert copy.partial_log.tokens == tuple(ids[:2])
        assert pickle.loads(pickle.dumps(SessionError("m", None))).partial_log is None

    def test_missing_adapter_member_is_an_adapter_error(self):
        vocab, ids, adapter, source = scripted_setup("early")

        no_word_counts = SimpleNamespace(
            vocab=vocab, num_decoder_layers=1, num_heads=1, encode=adapter.encode, decode_greedy=adapter.decode_greedy
        )
        with pytest.raises(SessionError) as info:
            run_session(source, no_word_counts, WaitKPolicy(k=1), chunk_ms=400.0)
        assert str(info.value) == (
            "adapter failed counting words at 0.400s: "
            "'types.SimpleNamespace' object has no attribute 'count_source_words'"
        )
        assert info.value.partial_log.events == ()

    def test_without_a_fault_the_session_commits_every_token(self):
        ids, source, adapter, policy = _faulty_setup("none", KeyError("boom"))
        assert run_session(source, adapter, policy, chunk_ms=400.0).tokens == tuple(ids)

    @pytest.mark.parametrize(
        "decision, detail",
        [
            (PolicyDecision(-1, StopReason.EXHAUSTED), r"ValueError\('policy committed -1 of 1 candidates'\)"),
            (None, r"AttributeError\(\"'NoneType' object has no attribute 'commit_count'\"\)"),
            (PolicyDecision(1.0, StopReason.EXHAUSTED), r"TypeError\(\"'float' object cannot be interpreted as an integer\"\)"),
        ],
        ids=["negative", "none", "float"],
    )
    def test_decision_outside_the_contract_fails_the_session(self, decision, detail):
        vocab, ids, adapter, source = scripted_setup("early")

        class Faulty(AlignAttPolicy):
            def decide(self, ctx):
                return decision if len(ctx.committed) == 2 else super().decide(ctx)

        with pytest.raises(SessionError, match=rf"^policy failed at 1\.200s: {detail}$") as info:
            run_session(source, adapter, Faulty(f=2), chunk_ms=400.0)
        assert info.value.partial_log.tokens == tuple(ids[:2])

    def test_policy_without_decide_fails_the_session(self):
        vocab, ids, adapter, source = scripted_setup("early")

        class Undecided(Policy):
            pass

        with pytest.raises(SessionError) as info:
            run_session(source, adapter, Undecided(), chunk_ms=400.0)
        assert str(info.value) == "policy failed at 0.400s: NotImplementedError()"
        assert info.value.partial_log.events == ()

    @staticmethod
    def counting(adapter, third):
        """``adapter`` counting one source word per 400 ms chunk, and ``third`` on the third chunk."""

        class Counting(_Forwarding):
            def count_source_words(self, feats):
                return third if len(feats) == 120 else len(feats) // 40

        return Counting(adapter)

    @pytest.mark.parametrize(
        "words, detail",
        [
            (None, "'NoneType' object cannot be interpreted as an integer"),
            ("3", "'str' object cannot be interpreted as an integer"),
            (-1, "counted -1 source words; counts are integers >= 0"),
        ],
        ids=["none", "str", "negative"],
    )
    def test_word_count_outside_the_contract_fails_the_session(self, words, detail):
        vocab, ids, adapter, source = scripted_setup("early")
        with pytest.raises(SessionError) as info:
            run_session(source, self.counting(adapter, words), WaitKPolicy(k=1), chunk_ms=400.0)
        assert str(info.value) == f"adapter failed counting words at 1.200s: {detail}"
        # wait-1 allowed one word by 0.8 s, when two source words were counted
        assert info.value.partial_log.tokens == tuple(ids[:1])

    def test_numpy_word_counts_are_integers(self):
        vocab, ids, adapter, source = scripted_setup("early")
        counted = run_session(source, self.counting(adapter, np.int64(3)), WaitKPolicy(k=1), chunk_ms=400.0)
        assert counted == run_session(source, self.counting(adapter, 3), WaitKPolicy(k=1), chunk_ms=400.0)

    @staticmethod
    def third_token_session(third: int, make_policy):
        """Hypotheses aa, aa bb, aa bb <third>, aa bb <third> cc over four 400 ms steps, all aligned at frame 0."""
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc"])
        aa, bb, cc = (piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc"))
        hypothesis = (aa, bb, third, cc)

        def script(n):
            count = n // 10
            return ScriptStep(tokens=hypothesis[:count], alignment=(0,) * count, eos=count == 4, source_words=count)

        source = FeatureMatrix(frames=np.zeros((160, 80), dtype=np.float32))
        return run_session(source, ScriptedAdapter(vocab, script), make_policy(), chunk_ms=400.0)

    @pytest.mark.parametrize("third", [999, -1, Vocabulary.eos_id], ids=["unknown", "negative", "eos"])
    @pytest.mark.parametrize(
        "make_policy, committed",
        # wait-k holds bb back until the word after it starts
        [(lambda: AlignAttPolicy(f=2), "aa bb"), (lambda: WaitKPolicy(k=1), "aa")],
        ids=["alignatt", "waitk"],
    )
    def test_token_outside_the_vocabulary_or_eos_is_an_adapter_error(self, third, make_policy, committed):
        with pytest.raises(SessionError) as info:
            self.third_token_session(third, make_policy)
        assert str(info.value) == (
            f"adapter failed at 1.200s: decode returned token id {third}; "
            "tokens are ids in [0, 6) other than end-of-sequence (1)"
        )
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.partial_log.final_text == committed

    @pytest.mark.parametrize(
        "make_policy", [lambda: AlignAttPolicy(f=2), lambda: WaitKPolicy(k=1)], ids=["alignatt", "waitk"]
    )
    def test_token_ids_are_integers(self, make_policy):
        # a NumPy integer commits as the int it is; a float is no token id, whatever its value
        log = self.third_token_session(np.int64(5), make_policy)
        assert log == self.third_token_session(5, make_policy) and all(type(t) is int for t in log.tokens)
        with pytest.raises(SessionError) as info:
            self.third_token_session(5.0, make_policy)
        assert str(info.value) == "adapter failed at 1.200s: 'float' object cannot be interpreted as an integer"
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize(
        "make_policy", [lambda: AlignAttPolicy(f=2), lambda: WaitKPolicy(k=1)], ids=["alignatt", "waitk"]
    )
    def test_unknown_piece_and_bos_are_tokens(self, make_policy):
        for third in (Vocabulary.unk_id, Vocabulary.bos_id):
            log = self.third_token_session(third, make_policy)
            assert log.tokens == (3, 4, third, 5) and log.final_text == "aa bb cc"

    @staticmethod
    def stale_read_session(stale):
        """The "late" scripted session under local agreement, whose second decode calls ``stale()`` for
        ``advance()`` once the third has started: the rules and decisions of the third step read it so."""
        vocab, ids, adapter, source = scripted_setup("late")

        class Stale(_Pulls):
            def start_decode(self, enc, forced_prefix, max_new=128):
                decode = super().start_decode(enc, forced_prefix, max_new)
                if len(self.calls) == 2:
                    advance = decode.advance
                    decode.advance = lambda: stale() if len(self.calls) > 2 else advance()
                return decode

        with pytest.raises(SessionError) as info:
            run_session(source, Stale(adapter), LocalAgreementPolicy(), chunk_ms=400.0)
        # local agreement committed aa at 0.8 s from the first two hypotheses
        assert info.value.partial_log.tokens == tuple(ids[:1])
        return info.value

    def test_policys_later_read_of_a_decode_is_an_adapter_call(self):
        def lost():
            raise error

        error = RuntimeError("device lost")
        failed = self.stale_read_session(lost)
        assert str(failed) == "adapter failed at 1.200s: device lost"
        assert failed.__cause__ is error

    def test_token_outside_the_vocabulary_in_a_later_read_is_an_adapter_error(self):
        failed = self.stale_read_session(lambda: (999, np.full((1, 1, 20), 0.05)))
        assert str(failed) == (
            "adapter failed at 1.200s: decode returned token id 999; "
            "tokens are ids in [0, 7) other than end-of-sequence (1)"
        )
        assert isinstance(failed.__cause__, ValueError)


class _DecodeView(_TwoMembers):
    """``_TwoMembers`` that also offers ``tokens``: the forced prefix and the tokens ``advance()``
    returned, read through ``edit_tokens``."""

    def __init__(self, decode, forced_prefix, edit_tokens):
        super().__init__(decode)
        self._tokens = list(forced_prefix)
        self._edit_tokens = edit_tokens

    @property
    def tokens(self):
        return self._edit_tokens(tuple(self._tokens))

    def advance(self):
        if (pulled := super().advance()) is not None:
            self._tokens.append(pulled[0])
        return pulled


class _IgnoresPrefix(_Forwarding):
    def decode_greedy(self, enc, forced_prefix, max_new=128):
        return super().decode_greedy(enc, (), max_new)


class _WideAttention(_Forwarding):
    def decode_greedy(self, enc, forced_prefix, max_new=128):
        result = super().decode_greedy(enc, forced_prefix, max_new)
        wide = np.pad(result.attention, ((0, 0), (0, 0), (0, 0), (0, 50)))
        return DecodeResult(result.tokens, wide, result.eos_reached)


class TestDecodeContract:
    """A ``decode_greedy`` result that does not begin with the committed tokens, or a row of the wrong
    shape, fails the session as the adapter's fault."""

    @pytest.mark.parametrize(
        "breaker, message",
        [
            (_IgnoresPrefix, r"adapter failed at 1\.250s: decode tokens begin \[6\], not with the committed \[41\]"),
            (
                _WideAttention,
                r"adapter failed at 0\.250s: decode returned token id 11 with a row of shape \(2, 4, 57\); "
                r"expected \(layers, heads, encoder states\) = \(2, 4, 7\)",
            ),
        ],
        ids=["ignores-prefix", "wide-attention"],
    )
    def test_adapter_error_keeps_earlier_commits(self, toy_model, breaker, message):
        source = FeatureMatrix(frames=np.random.default_rng(0).normal(size=(200, 80)).astype(np.float32))
        plain = run_session(source, toy_model, AlignAttPolicy(f=4), chunk_ms=250.0)
        assert len(plain.tokens) == 28
        with pytest.raises(SessionError, match=f"^{message}$") as info:
            run_session(source, breaker(toy_model), AlignAttPolicy(f=4), chunk_ms=250.0)
        assert isinstance(info.value.__cause__, ValueError)
        partial = info.value.partial_log.events
        assert partial == plain.events[: len(partial)]


class _SwapsLastToken(_Forwarding):
    """``_Forwarding`` whose ``start_decode`` decodes report ``token`` in their ``tokens`` in place of
    the last token ``advance()`` returned."""

    def __init__(self, inner, token):
        super().__init__(inner)
        self._token = token

    def start_decode(self, enc, forced_prefix, max_new=128):
        decode = self._inner.start_decode(enc, forced_prefix, max_new)
        skip = len(forced_prefix)
        return _DecodeView(decode, forced_prefix, lambda t: t[:-1] + (self._token,) if len(t) > skip else t)


class TestDecodeTokens:
    """The simulator commits the tokens ``advance()`` returned: a decode's ``tokens`` are not read."""

    @pytest.mark.parametrize("token", [10, 9999], ids=["valid", "unknown"])
    @pytest.mark.parametrize(
        "make_policy", [lambda: AlignAttPolicy(f=4), LocalAgreementPolicy], ids=["alignatt", "local_agreement"]
    )
    def test_a_decode_misreporting_its_last_token_logs_as_the_honest_run(self, toy_model, make_policy, token):
        source = make_source(np.random.default_rng(3), 300)
        honest = run_session(source, _TwoMemberDecodes(toy_model), make_policy(), chunk_ms=250.0)
        assert run_session(source, _SwapsLastToken(toy_model, token), make_policy(), chunk_ms=250.0) == honest


class _FlatRowsAt30(_Pulls):
    """``_Pulls`` whose decode over 30 encoder states returns each row as its first layer's first
    head, shape (n,) where the contract asks for (layers, heads, n)."""

    def start_decode(self, enc, forced_prefix, max_new=128):
        decode = super().start_decode(enc, forced_prefix, max_new)
        if enc.n == 30:
            advance = decode.advance
            decode.advance = lambda: None if (pulled := advance()) is None else (pulled[0], pulled[1][0, 0])
        return decode


class TestAttentionRow:
    """A row from ``advance()`` that is not (layers, heads, n) over the decode's own n encoder states
    fails the session as the adapter's fault, whether the simulator pulls it or a policy reads it."""

    @pytest.mark.parametrize(
        "make_policy",
        [lambda: AlignAttPolicy(f=2), lambda: EDAttPolicy(alpha=0.5), lambda: WaitKPolicy(k=1), LocalAgreementPolicy],
        ids=["alignatt", "edatt", "waitk", "local_agreement"],
    )
    def test_a_pulled_row_is_checked(self, make_policy):
        # hypotheses aa, aa bb, aa bb cc, aa bb cc dd over four 400 ms steps, all aligned at frame 0
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "▁dd"])
        ids = [piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "▁dd")]

        def script(n):
            count = n // 10
            return ScriptStep(tokens=tuple(ids[:count]), alignment=(0,) * count, eos=count == 4, source_words=count)

        adapter = ScriptedAdapter(vocab, script)
        source = FeatureMatrix(frames=np.zeros((160, 80), dtype=np.float32))
        plain = run_session(source, adapter, make_policy(), chunk_ms=400.0)
        with pytest.raises(SessionError) as info:
            run_session(source, _FlatRowsAt30(adapter), make_policy(), chunk_ms=400.0)
        partial = info.value.partial_log.tokens
        assert str(info.value) == (
            f"adapter failed at 1.200s: decode returned token id {ids[len(partial)]} with a row of shape "
            "(30,); expected (layers, heads, encoder states) = (1, 1, 30)"
        )
        assert isinstance(info.value.__cause__, ValueError)
        # the commits of the first two steps are kept
        assert partial and info.value.partial_log.events == tuple(e for e in plain.events if e.ideal_s < 1.2)

    def test_a_later_read_is_checked_against_its_own_decode(self):
        # the previous step's decode attends to 20 encoder states; a row over the current step's 30 is wrong
        vocab, ids, _, _ = scripted_setup("late")
        failed = TestSessionFailures.stale_read_session(lambda: (ids[2], np.full((1, 1, 30), 1 / 30)))
        assert str(failed) == (
            f"adapter failed at 1.200s: decode returned token id {ids[2]} with a row of shape (1, 1, 30); "
            "expected (layers, heads, encoder states) = (1, 1, 20)"
        )
        assert isinstance(failed.__cause__, ValueError)


class _NoStatesFrom120(ScriptedAdapter):
    """``ScriptedAdapter`` whose encoder returns no states once 120 frames have arrived; its decoder
    still answers then, with attention over those zero states."""

    def encode(self, raw_features):
        if len(raw_features) < 120:
            return super().encode(raw_features)
        return EncoderStates(states=np.zeros((0, 8)), version=len(raw_features))

    def decode_greedy(self, enc, forced_prefix, max_new=128):
        if enc.n:
            return super().decode_greedy(enc, forced_prefix, max_new)
        tokens = (*forced_prefix, 3)
        return DecodeResult(tokens, np.zeros((1, 1, len(tokens), 0)), False)


class TestNoEncoderStates:
    @pytest.mark.parametrize(
        "make_policy",
        [lambda: AlignAttPolicy(f=2), lambda: EDAttPolicy(alpha=0.5), lambda: WaitKPolicy(k=1), LocalAgreementPolicy],
        ids=["alignatt", "edatt", "waitk", "local_agreement"],
    )
    def test_fail_the_session_as_the_adapters_fault(self, make_policy):
        # hypotheses aa, aa bb, aa bb cc, aa bb cc dd over four 400 ms steps, all aligned at frame 0
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "▁dd"])
        ids = [piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "▁dd")]

        def script(n):
            count = n // 10
            return ScriptStep(tokens=tuple(ids[:count]), alignment=(0,) * count, eos=count == 4, source_words=count)

        source = FeatureMatrix(frames=np.zeros((160, 80), dtype=np.float32))
        plain = run_session(source, ScriptedAdapter(vocab, script), make_policy(), chunk_ms=400.0)
        with pytest.raises(SessionError) as info:
            run_session(source, _NoStatesFrom120(vocab, script), make_policy(), chunk_ms=400.0)
        assert str(info.value) == "adapter failed at 1.200s: encoder returned no states for 120 frames"
        assert isinstance(info.value.__cause__, ValueError)
        # the commits of the first two steps are kept
        partial = info.value.partial_log
        assert partial.tokens and partial.events == tuple(e for e in plain.events if e.ideal_s < 1.2)


class _Revived(_TwoMembers):
    """A decode that returns ``token``, with a zero row of ``shape``, on every call after ``advance()``
    returned None; ``revived`` counts those calls."""

    def __init__(self, decode, token, shape):
        super().__init__(decode)
        self._token = token
        self._shape = shape
        self._ended = False
        self.revived = 0

    def advance(self):
        if self._ended:
            self.revived += 1
            return self._token, np.zeros(self._shape)
        pulled = super().advance()
        self._ended = pulled is None
        return pulled


class _RevivesAt30(_Pulls):
    """``_Pulls`` whose decode over 30 encoder states is ``_Revived`` with ``token``; ``revivals``
    holds those decodes."""

    def __init__(self, inner, token):
        super().__init__(inner)
        self._token = token
        self.revivals = []

    def start_decode(self, enc, forced_prefix, max_new=128):
        decode = super().start_decode(enc, forced_prefix, max_new)
        if enc.n != 30:
            return decode
        self.revivals.append(_Revived(decode, self._token, (self.num_decoder_layers, self.num_heads, enc.n)))
        return self.revivals[-1]


class TestEndedDecode:
    """A decode is not asked for a token after it ended, so a token it would return then is never read."""

    def test_alignatt(self):
        vocab, ids, adapter, source = scripted_setup("early")
        # no alignment reaches the last f frames, so each decode is pulled to its end
        honest = run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0)
        assert honest.tokens == tuple(ids)
        reviving = _RevivesAt30(adapter, ids[3])
        assert run_session(source, reviving, AlignAttPolicy(f=2), chunk_ms=400.0) == honest
        assert [decode.revived for decode in reviving.revivals] == [0]

    def test_local_agreement(self):
        # the hypothesis at 30 states repeats the one at 20, so its decode agrees to its end
        vocab, ids, _, _ = scripted_setup("early")
        hypotheses = {10: ids[:1], 20: ids[:2], 30: ids[:2], 40: ids[:3], 50: ids}
        script = {
            n: ScriptStep(tokens=tuple(tokens), alignment=(0,) * len(tokens), eos=n == 50)
            for n, tokens in hypotheses.items()
        }
        adapter = ScriptedAdapter(vocab, script)
        source = FeatureMatrix(frames=np.zeros((200, 80), dtype=np.float32))
        log = run_session(source, adapter, LocalAgreementPolicy(), chunk_ms=400.0)
        assert [(e.token, e.ideal_s) for e in log.events] == [
            (ids[0], 0.8), (ids[1], 1.2), (ids[2], 2.0), (ids[3], 2.0)
        ]
        # read, the revived token would be the previous hypothesis's third token for the stop rule at 40 states
        reviving = _RevivesAt30(adapter, ids[2])
        assert run_session(source, reviving, LocalAgreementPolicy(), chunk_ms=400.0) == log
        assert [decode.revived for decode in reviving.revivals] == [0]


_POLICIES = {
    "alignatt": lambda: AlignAttPolicy(f=4),
    "edatt": lambda: EDAttPolicy(alpha=0.3),
    "waitk": lambda: WaitKPolicy(k=2),
    "local_agreement": LocalAgreementPolicy,
}


class TestAdapterFaults:
    """Whichever adapter member raises or breaks its contract, at whichever step, under whichever policy,
    the session fails as the adapter's and keeps the honest run's commits of the steps before, unless
    the break is one that no session checks."""

    @pytest.mark.parametrize("at_s", [0.25, 1.5])
    @pytest.mark.parametrize(
        "member, policy",
        [
            (member, policy)
            for member in ADAPTER_MEMBERS
            for policy in _POLICIES
            if member != "count_source_words" or policy == "waitk"
        ],
    )
    def test_a_raising_member_fails_the_session(self, toy_model, member, policy, at_s):
        source = make_source(np.random.default_rng(3), 300)
        honest = run_session(source, toy_model, _POLICIES[policy](), chunk_ms=250.0)
        adapter = FaultyAdapter(toy_model, member, frames=round(at_s * 100))
        with pytest.raises(SessionError) as info:
            run_session(source, adapter, _POLICIES[policy](), chunk_ms=250.0)
        failure = "adapter failed counting words" if member == "count_source_words" else "adapter failed"
        assert str(info.value) == f"{failure} at {adapter.failed_at:.3f}s: {member} lost"
        assert info.value.__cause__ is adapter.error
        assert info.value.partial_log.events == tuple(e for e in honest.events if e.ideal_s < adapter.failed_at)

    # the message each break fails the session with, from the value the member returned instead
    BROKEN = {
        "no_states": lambda adapter: f"encoder returned no states for {adapter.delivered} frames",
        "negative_count": lambda adapter: "counted -1 source words; counts are integers >= 0",
        "none_count": lambda adapter: "'NoneType' object cannot be interpreted as an integer",
        "float_token": lambda adapter: "'float' object cannot be interpreted as an integer",
        "unknown_id": lambda adapter: (
            f"decode returned token id {adapter.vocab.size}; tokens are ids in [0, {adapter.vocab.size}) "
            f"other than end-of-sequence ({adapter.vocab.eos_id})"
        ),
        "eos_id": lambda adapter: (
            f"decode returned token id {adapter.vocab.eos_id}; tokens are ids in [0, {adapter.vocab.size}) "
            f"other than end-of-sequence ({adapter.vocab.eos_id})"
        ),
        "row_shape": lambda adapter: (
            f"decode returned token id {adapter.returned[0]} with a row of shape {adapter.returned[1].shape}; "
            f"expected (layers, heads, encoder states) = {(2, 4, adapter.returned[1].shape[2] + 1)}"
        ),
        "past_max_new": lambda adapter: f"decode returned token id {adapter.returned[0]} after max_new=2 tokens",
    }
    # a NaN row breaks no clause that a session checks: only an adapter checker would find it (ROADMAP item 4)
    PASSES_BY_DESIGN = {"nan_row"}

    @pytest.mark.parametrize("at_s", [0.25, 1.5])
    @pytest.mark.parametrize(
        "fault, policy",
        [
            (fault, policy)
            for fault, member in CONTRACT_BREAKS.items()
            for policy in _POLICIES
            if member != "count_source_words" or policy == "waitk"
        ],
    )
    def test_a_member_breaking_its_contract_fails_the_session(self, toy_model, fault, policy, at_s):
        # toy decodes of this source reach max_new=2 before end-of-sequence, as past_max_new needs
        max_new = 2 if fault == "past_max_new" else 128
        source = make_source(np.random.default_rng(3), 300)
        honest = run_session(source, toy_model, _POLICIES[policy](), chunk_ms=250.0, max_new=max_new)
        adapter = FaultyAdapter(toy_model, CONTRACT_BREAKS[fault], frames=round(at_s * 100), fault=fault)
        try:
            outcome = run_session(source, adapter, _POLICIES[policy](), chunk_ms=250.0, max_new=max_new)
        except SessionError as exc:  # any other exception escapes the session, and fails this test
            outcome = exc
        assert adapter.failed_at is not None
        if fault in self.PASSES_BY_DESIGN:
            assert isinstance(outcome, EmissionLog)
            return
        assert isinstance(outcome, SessionError)
        failure = "adapter failed counting words" if CONTRACT_BREAKS[fault] == "count_source_words" else "adapter failed"
        assert str(outcome) == f"{failure} at {adapter.failed_at:.3f}s: {self.BROKEN[fault](adapter)}"
        assert isinstance(outcome.__cause__, TypeError if fault in ("none_count", "float_token") else ValueError)
        assert outcome.partial_log.events == tuple(e for e in honest.events if e.ideal_s < adapter.failed_at)


class _Runaway:
    """A decode that ignores ``max_new``: every pull generates ``token``, aligned at the newest
    encoder state. It raises after 300 tokens, so a simulator that does not hold it to ``max_new``
    fails instead of pulling it forever."""

    eos_reached = False

    def __init__(self, forced_prefix, token, layers, heads, n):
        self._tokens = list(forced_prefix)
        self._token = token
        self._row = np.zeros((layers, heads, n))
        self._row[:, :, -1] = 1.0
        self.pulls = 0

    def advance(self):
        self.pulls += 1
        if len(self._tokens) >= 300:
            raise RuntimeError("runaway decode generated 300 tokens")
        self._tokens.append(self._token)
        return self._token, self._row


class TestMaxNew:
    """A decode that generates more than ``max_new`` tokens fails the session as the adapter's fault."""

    def test_a_decode_ignoring_max_new_is_not_pulled_forever(self):
        vocab, ids, _, source = scripted_setup("late")
        decodes = []

        class Runaway(ScriptedAdapter):
            def start_decode(self, enc, forced_prefix, max_new=128):
                decodes.append(_Runaway(forced_prefix, ids[0], 1, 1, enc.n))
                return decodes[-1]

        runaway = Runaway(vocab, {})
        # every token is aligned at the newest state, so AlignAtt stops at once until the final flush,
        # which has no stop rule
        with pytest.raises(SessionError) as info:
            run_session(source, runaway, AlignAttPolicy(f=2), chunk_ms=400.0, max_new=8)
        assert str(info.value) == f"adapter failed at 1.600s: decode returned token id {ids[0]} after max_new=8 tokens"
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.partial_log.tokens == ()
        assert [decode.pulls for decode in decodes] == [1, 1, 1, 9]

    def test_a_finished_decode_past_max_new_is_not_committed(self):
        # the decode_greedy of every step returns 64 tokens aligned at frame 0, whatever max_new asks
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "▁dd"])
        ids = [piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "▁dd")] * 16
        step = ScriptStep(tokens=tuple(ids), alignment=(0,) * len(ids), eos=True)

        class IgnoresMaxNew(ScriptedAdapter):
            def decode_greedy(self, enc, forced_prefix, max_new=128):
                return super().decode_greedy(enc, forced_prefix, len(ids))

        source = FeatureMatrix(frames=np.zeros((160, 80), dtype=np.float32))

        def session(adapter):
            return run_session(source, adapter, AlignAttPolicy(f=4), chunk_ms=400.0, max_new=2)

        capped = session(ScriptedAdapter(vocab, lambda n: step))
        assert [(e.token, e.ideal_s) for e in capped.events[:2]] == [(ids[0], 0.4), (ids[1], 0.4)]
        with pytest.raises(SessionError) as info:
            session(IgnoresMaxNew(vocab, lambda n: step))
        assert str(info.value) == f"adapter failed at 0.400s: decode returned token id {ids[2]} after max_new=2 tokens"
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.partial_log.tokens == ()

    def test_tokens_that_advance_did_not_return_are_not_committed(self):
        # start_decode returns a decode already holding 64 generated tokens, whose advance() returns None
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "▁dd"])
        ids = [piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "▁dd")] * 16
        step = ScriptStep(tokens=tuple(ids), alignment=(0,) * len(ids), eos=True)

        class Prefilled(ScriptedAdapter):
            def start_decode(self, enc, forced_prefix, max_new=128):
                result = self.decode_greedy(enc, forced_prefix, len(ids))
                return FinishedDecode(result, len(result.tokens))

        source = FeatureMatrix(frames=np.zeros((160, 80), dtype=np.float32))
        log = run_session(source, Prefilled(vocab, lambda n: step), AlignAttPolicy(f=4), chunk_ms=400.0, max_new=2)
        assert log.events == () and log.final_text == ""


GOLDEN_CHUNK_MS = 500.0
GOLDEN_F = 4


@pytest.fixture(scope="module")
def golden_log(toy_model):
    rng = np.random.default_rng(7)
    source = FeatureMatrix(frames=rng.normal(size=(200, 80)).astype(np.float32))
    return run_session(source, toy_model, AlignAttPolicy(f=GOLDEN_F), chunk_ms=GOLDEN_CHUNK_MS)


class TestGoldenToySession:
    """Frozen end-to-end trace of the seed-0 toy model under the stopping rule."""

    def test_frozen_commit_schedule(self, golden_log):
        assert len(golden_log.events) == 33
        assert golden_log.tokens[:5] == (41, 31, 3, 6, 18)
        assert [e.ideal_s for e in golden_log.events[:5]] == pytest.approx(
            [1.0, 1.0, 1.0, 1.5, 2.0]
        )
        assert all(e.ideal_s == pytest.approx(2.0) for e in golden_log.events[4:])
        assert golden_log.final_text.startswith("mc a d p b")
        assert golden_log.source_duration_s == pytest.approx(2.0)

    def test_replay_oracle_reproduces_schedule(self, toy_model, golden_log):
        # independently re-drive the loop: cursor, encode, decode, aggregate,
        # align, stopping rule; every commit must land at the same time
        rng = np.random.default_rng(7)
        source = FeatureMatrix(frames=rng.normal(size=(200, 80)).astype(np.float32))
        cursor = StreamCursor(source, GOLDEN_CHUNK_MS)
        committed = []
        expected = []
        layer = min(3, toy_model.num_decoder_layers - 1)
        while not cursor.exhausted:
            prefix = cursor.read()
            ideal = cursor.delivered_s
            enc = toy_model.encode(prefix)
            result = toy_model.decode_greedy(enc, forced_prefix=committed)
            candidates = list(result.tokens[len(committed):])
            if cursor.exhausted:
                take = len(candidates)
            else:
                weights = aggregate_attention(result.attention, layer)[len(committed):, :]
                alignment = compute_alignment(weights)
                take = alignatt_decide(alignment, enc.n, GOLDEN_F).commit_count
            for token in candidates[:take]:
                committed.append(token)
                expected.append((token, ideal))
        assert [(e.token, e.ideal_s) for e in golden_log.events] == expected

    def test_run_is_deterministic(self, toy_model, golden_log, tmp_path):
        rng = np.random.default_rng(7)
        source = FeatureMatrix(frames=rng.normal(size=(200, 80)).astype(np.float32))
        again = run_session(source, toy_model, AlignAttPolicy(f=GOLDEN_F), chunk_ms=GOLDEN_CHUNK_MS)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_emission_log(first, golden_log)
        write_emission_log(second, again)
        assert first.read_bytes() == second.read_bytes()


class TestEmissionLogIO:
    def test_round_trip(self, tmp_path):
        vocab, ids, adapter, source = scripted_setup("early")
        log = run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0)
        path = tmp_path / "session.jsonl"
        write_emission_log(path, log)
        assert read_emission_log(path) == log

    def test_unicode_pieces_survive(self, tmp_path):
        log = EmissionLog(
            events=(Emission(token=3, text="▁darüber", ideal_s=1.0, wall_s=1.0),),
            source_duration_s=1.0,
            final_text="darüber",
        )
        path = tmp_path / "u.jsonl"
        write_emission_log(path, log)
        assert "darüber" in path.read_text(encoding="utf-8")
        assert read_emission_log(path).final_text == "darüber"

    def test_final_text_must_be_the_text_the_events_write(self, tmp_path):
        # otherwise BLEU would score one hypothesis and AL/LAAL the words of another
        events = (Emission(2, "<unk>", 0.5, 0.5), Emission(3, "▁a", 1.0, 1.0), Emission(4, "▁b", 2.0, 2.0))
        path = tmp_path / "u1.jsonl"
        write_emission_log(path, EmissionLog(events, 3.0, "a b"))
        assert read_emission_log(path).final_text == "a b"
        *event_lines, _ = path.read_text(encoding="utf-8").splitlines()
        for final_text, written in (("a b c", "a b"), (" a b", "a b"), ("ab", "a b")):
            summary = json.dumps({"source_duration_s": 3.0, "final_text": final_text})
            path.write_text("\n".join([*event_lines, summary]) + "\n", encoding="utf-8")
            with pytest.raises(ValueError) as info:
                read_emission_log(path)
            assert str(info.value) == f"{path}: final_text {final_text!r} is not {written!r}, the text its events write"
        path.write_text('{"source_duration_s": 3.0, "final_text": "a"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="final_text 'a' is not '', the text its events write"):
            read_emission_log(path)

    def test_inconsistent_log_cannot_be_built(self):
        # so neither a session nor a library caller can write a log that ``score`` rejects
        events = (Emission(2, "<unk>", 0.5, 0.5), Emission(3, "▁a", 1.0, 1.0), Emission(4, "b", 2.0, 2.0))
        assert EmissionLog(events, 3.0, "ab").final_text == "ab"
        for final_text, written in (("a b", "ab"), (" ab", "ab"), ("", "ab")):
            with pytest.raises(ValueError) as info:
                EmissionLog(events, 3.0, final_text)
            assert str(info.value) == f"final_text {final_text!r} is not {written!r}, the text its events write"
        with pytest.raises(ValueError, match="final_text 'darüber' is not '', the text its events write"):
            EmissionLog((), 1.0, "darüber")

    def test_failed_write_keeps_earlier_log(self, tmp_path):
        path = tmp_path / "session.jsonl"
        ok = Emission(token=3, text="ok", ideal_s=0.5, wall_s=0.5)
        write_emission_log(path, EmissionLog(events=(ok,), source_duration_s=1.0, final_text="ok"))
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the write fails partway
        unencodable = EmissionLog(
            events=(Emission(token=3, text="a\ud800", ideal_s=1.0, wall_s=1.0),),
            source_duration_s=2.0,
            final_text="a\ud800",
        )
        with pytest.raises(UnicodeEncodeError):
            write_emission_log(path, unencodable)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["session.jsonl"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty emission log"):
            read_emission_log(path)

    def test_missing_summary_rejected(self, tmp_path):
        path = tmp_path / "no_summary.jsonl"
        path.write_text('{"token": 3, "text": "a", "ideal_s": 1.0, "wall_s": 1.0}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="missing trailing summary"):
            read_emission_log(path)

    EVENT = '{"token": 3, "text": "a", "ideal_s": 1.0, "wall_s": 1.0}'
    SUMMARY = '{"source_duration_s": 1.0, "final_text": "a"}'

    @pytest.mark.parametrize(
        "event, summary",
        [
            ("[3]", SUMMARY),
            (EVENT.replace("3", '"3"'), SUMMARY),
            (EVENT.replace('"ideal_s": 1.0', '"ideal_s": true'), SUMMARY),
            (EVENT.replace(', "wall_s": 1.0', ""), SUMMARY),
            (EVENT.replace('"wall_s": 1.0', '"wall_s": NaN'), SUMMARY),
            (EVENT.replace('"wall_s": 1.0', '"wall_s": 1' + "0" * 400), SUMMARY),
            (EVENT, SUMMARY.replace("1.0", "-1.0")),
            (EVENT, SUMMARY.replace('"a"', "7")),
            (EVENT, '{"error": 3}'),
        ],
    )
    def test_malformed_record_rejected_with_path(self, tmp_path, event, summary):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{event}\n{summary}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl"):
            read_emission_log(path)

    def test_malformed_line_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{self.EVENT}\n\n[3]\n{self.SUMMARY}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:3: expected a JSON object"):
            read_emission_log(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separators_survive(self, tmp_path, separator):
        # JSON writes these raw; only "\n" ends a line of the log
        log = EmissionLog(
            events=(Emission(token=3, text=f"▁a{separator}b", ideal_s=0.5, wall_s=0.75),),
            source_duration_s=1.0,
            final_text=f"a{separator}b",
        )
        path = tmp_path / "session.jsonl"
        write_emission_log(path, log)
        assert read_emission_log(path) == log
        error = f"adapter failed at 0.5s: bad{separator}piece"
        for partial in (log, None):
            write_emission_log(path, SessionError(error, partial))
            with pytest.raises(ValueError) as info:
                read_emission_log(path)
            assert str(info.value) == error
