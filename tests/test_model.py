"""Toy encoder-decoder and scripted adapter: shapes, determinism, caching."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import (
    DecodeResult,
    EncoderStates,
    ModelAdapter,
    ToyModel,
    ToyModelConfig,
    Vocabulary,
    aggregate_attention,
    build_default_vocabulary,
    count_words_in_labels,
)

from simulst import model as model_module
from simulst.model import Decode, FinishedDecode

from conftest import make_source
from support import ScriptStep, ScriptedAdapter, piece_id, teacher_forced, validate_attention_matrix


class TestEncoder:
    @pytest.mark.parametrize("t,expected_n", [(8, 2), (9, 3), (1, 1), (4, 1), (5, 2)])
    def test_state_count_is_ceil_of_reduction(self, toy_model, t, expected_n):
        enc = toy_model.encode(np.ones((t, 80)))
        assert enc.n == expected_n
        assert enc.version == t
        assert enc.states.shape == (expected_n, 32)

    def test_matches_scalar_loop_oracle(self, toy_model):
        feats = np.ones((12, 80))
        enc = toy_model.encode(feats)
        d = toy_model._w_mix.shape[0]
        for i in range(3):
            pooled = [
                sum(feats[4 * i + r, f] for r in range(4)) / 4.0 for f in range(80)
            ]
            for j in range(d):
                x = sum(pooled[f] * toy_model._w_in[f, j] for f in range(80))
                x += toy_model._b_in[j]
                angle = i / 10000.0 ** ((2 * (j // 2)) / d)
                x += math.sin(angle) if j % 2 == 0 else math.cos(angle)
                state = (
                    sum(
                        math.tanh(
                            sum(pooled[f] * toy_model._w_in[f, jj] for f in range(80))
                            + toy_model._b_in[jj]
                            + (
                                math.sin(i / 10000.0 ** ((2 * (jj // 2)) / d))
                                if jj % 2 == 0
                                else math.cos(i / 10000.0 ** ((2 * (jj // 2)) / d))
                            )
                        )
                        * toy_model._w_mix[jj, j]
                        for jj in range(d)
                    )
                    + toy_model._b_mix[j]
                )
                assert enc.states[i, j] == pytest.approx(state, abs=1e-9)
            break  # one full row of the oracle is plenty; rows share the code path

    def test_frozen_spot_values(self, toy_model):
        # frozen from the seed-0 model; guards against accidental weight or
        # architecture drift
        enc = toy_model.encode(np.ones((12, 80)))
        assert enc.states[0, :3] == pytest.approx(
            [-0.6485431201391013, -0.5648757033626385, -0.21105946579316395], abs=1e-12
        )
        assert enc.states[2, -2:] == pytest.approx(
            [-0.19936293658665888, 0.5975241852850112], abs=1e-12
        )

    def test_streaming_prefix_stability(self, toy_model):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(200, 80))
        short = toy_model.encode(feats[:120])
        full = toy_model.encode(feats)
        assert np.array_equal(short.states, full.states[:30])

    @pytest.mark.parametrize("t", range(1, 3 * 4 + 2))
    def test_pooling_equals_per_group_mean(self, toy_model, t):
        # includes t < 4, where there is no full group at all
        r = model_module._FRAMES_PER_STATE
        feats = np.random.default_rng(t).normal(size=(t, 80)).astype(np.float32).astype(float)
        n = -(-t // r)
        pooled = np.stack([feats[i * r: (i + 1) * r].mean(axis=0) for i in range(n)])
        x = pooled @ toy_model._w_in + toy_model._b_in + toy_model._positions(n)
        expected = np.tanh(x) @ toy_model._w_mix + toy_model._b_mix
        assert np.array_equal(toy_model.encode(feats).states, expected)

    def test_rejects_bad_shapes(self, toy_model):
        with pytest.raises(ValueError, match="non-empty"):
            toy_model.encode(np.ones((0, 80)))
        with pytest.raises(ValueError, match="non-empty"):
            toy_model.encode(np.ones(80))
        with pytest.raises(ValueError, match="feature dims"):
            toy_model.encode(np.ones((8, 40)))


@pytest.fixture(scope="module")
def golden_source():
    rng = np.random.default_rng(7)
    return rng.normal(size=(200, 80))


@pytest.fixture(scope="module")
def golden_decode(toy_model, golden_source) -> DecodeResult:
    return toy_model.decode_greedy(toy_model.encode(golden_source), [])


class TestDecode:
    def test_frozen_token_sequence(self, golden_decode):
        assert golden_decode.tokens == (
            6, 6, 6, 18, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4,
            4, 4, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6,
        )
        assert golden_decode.eos_reached

    def test_attention_shape_covers_every_token(self, toy_model, golden_decode):
        m = len(golden_decode.tokens)
        assert golden_decode.attention.shape == (2, 4, m, 50)

    def test_attention_rows_are_valid_distributions(self, toy_model, golden_decode):
        for layer in range(toy_model.num_decoder_layers):
            validate_attention_matrix(aggregate_attention(golden_decode.attention, layer))
        for layer in range(golden_decode.attention.shape[0]):
            for head in range(golden_decode.attention.shape[1]):
                validate_attention_matrix(golden_decode.attention[layer, head])

    def test_deterministic_across_instances(self, golden_source, golden_decode):
        other = ToyModel(ToyModelConfig(seed=0), build_default_vocabulary())
        res = other.decode_greedy(other.encode(golden_source), [])
        assert res.tokens == golden_decode.tokens
        assert np.array_equal(res.attention, golden_decode.attention)

    def test_forced_prefix_reproduces_free_decode(self, toy_model, golden_source, golden_decode):
        enc = toy_model.encode(golden_source)
        for cut in (1, 5, len(golden_decode.tokens) - 1):
            forced = toy_model.decode_greedy(enc, golden_decode.tokens[:cut])
            assert forced.tokens == golden_decode.tokens
            assert forced.eos_reached
            assert np.allclose(forced.attention, golden_decode.attention, atol=1e-9)

    def test_incremental_cache_matches_full_pass(self, toy_model, golden_source, golden_decode):
        # the teacher-forced argmax at each position must equal the token the
        # incremental loop picked there, including the final end-of-sequence
        enc = toy_model.encode(golden_source)
        ids = [toy_model.vocab.bos_id, *golden_decode.tokens]
        logits, _ = teacher_forced(toy_model, ids, enc.states)
        for i, token in enumerate(golden_decode.tokens):
            assert int(np.argmax(logits[i])) == token
        assert int(np.argmax(logits[len(golden_decode.tokens)])) == toy_model.vocab.eos_id

    def test_max_new_truncates_without_eos(self, toy_model, golden_source):
        enc = toy_model.encode(golden_source)
        res = toy_model.decode_greedy(enc, [], max_new=3)
        assert len(res.tokens) == 3
        assert not res.eos_reached
        assert res.attention.shape[2] == 3

    def test_never_emits_specials(self, toy_model, default_vocab):
        rng = np.random.default_rng(3)
        for _ in range(5):
            enc = toy_model.encode(rng.normal(size=(rng.integers(8, 120), 80)))
            res = toy_model.decode_greedy(enc, [])
            assert all(t > default_vocab.unk_id for t in res.tokens)

    def test_rejects_bad_prefixes(self, toy_model, golden_source, default_vocab):
        enc = toy_model.encode(golden_source)
        with pytest.raises(ValueError, match="end-of-sequence"):
            toy_model.decode_greedy(enc, [default_vocab.eos_id])
        with pytest.raises(ValueError, match="unknown token id"):
            toy_model.decode_greedy(enc, [default_vocab.size + 4])
        with pytest.raises(ValueError, match="max_new"):
            toy_model.decode_greedy(enc, [], max_new=0)


def reference_decode(model, enc, prefix, max_new):
    """Greedy decoding that re-runs the full teacher-forced pass for every token."""
    ids = [model.vocab.bos_id, *prefix]
    for _ in range(max_new):
        logits, _ = teacher_forced(model, ids, enc.states)
        next_id = int(np.argmax(logits[-1]))
        if next_id == model.vocab.eos_id:
            return tuple(ids[1:]), True
        ids.append(next_id)
    return tuple(ids[1:]), False


def advance_decode(model, enc, prefix, max_new):
    """``decode_greedy`` with every generated row run through ``_advance``.

    Returns (tokens, eos_reached, attention, last logits row).
    """
    ids = [model.vocab.bos_id, *prefix]
    decode = model_module._ToyDecode(model, enc.states, list(prefix), max_new)
    model._advance(decode, ids)
    eos = False
    while True:
        next_id = int(decode.logits.argmax())
        if next_id == model.vocab.eos_id:
            eos = True
            break
        ids.append(next_id)
        if len(ids) == len(prefix) + 1 + max_new:
            break
        model._advance(decode, [next_id])
    return tuple(ids[1:]), eos, decode._attention[:, :, : len(ids) - 1], decode.logits


class TestIncrementalFastPath:
    """The incremental pass captures the attention that ``teacher_forced`` computes."""

    # (rng seed, frames, share of the free decode forced, max_new)
    CASES = [
        (0, 200, 0.0, 128),
        (1, 37, 0.5, 128),
        (2, 310, 0.3, 5),
        (3, 90, 1.0, 128),
        (4, 6, 0.0, 1),
        (5, 450, 0.8, 3),
        (6, 150, 0.2, 60),
    ]

    @pytest.fixture(scope="class")
    def decodes(self, toy_model):
        out = []
        for seed, frames, share, max_new in self.CASES:
            rng = np.random.default_rng(seed)
            enc = toy_model.encode(rng.normal(size=(frames, 80)))
            free = toy_model.decode_greedy(enc, [])
            prefix = free.tokens[: round(share * len(free.tokens))]
            out.append((enc, prefix, max_new, toy_model.decode_greedy(enc, prefix, max_new)))
        return out

    def test_cases_cover_eos_and_truncation(self, decodes):
        assert {result.eos_reached for *_, result in decodes} == {True, False}

    def test_tokens_match_reference_loop(self, toy_model, decodes):
        for enc, prefix, max_new, result in decodes:
            tokens, eos = reference_decode(toy_model, enc, prefix, max_new)
            assert result.tokens == tokens
            assert result.eos_reached == eos

    def test_step_is_bit_exact_to_single_row_advance(self, toy_model, decodes, monkeypatch):
        started = []

        class RecordedDecode(model_module._ToyDecode):
            def __init__(self, *args):
                super().__init__(*args)
                started.append(self)

        reference = [advance_decode(toy_model, enc, prefix, max_new) for enc, prefix, max_new, _ in decodes]
        monkeypatch.setattr(model_module, "_ToyDecode", RecordedDecode)
        grown = 0
        for (enc, prefix, max_new, _), (tokens, eos, attention, logits) in zip(decodes, reference):
            result = toy_model.decode_greedy(enc, prefix, max_new)
            decode = started[-1]
            assert result.tokens == tokens
            assert result.eos_reached == eos
            assert np.array_equal(result.attention, attention)
            assert np.array_equal(decode.logits, logits)
            # buffers start at prefix + 1 + _INITIAL_NEW_ROWS rows and double when full
            grown += decode.keys.shape[1] > len(prefix) + 1 + model_module._INITIAL_NEW_ROWS
        assert grown >= 2

    def test_attention_matches_teacher_forced_pass(self, toy_model, decodes):
        for enc, prefix, max_new, result in decodes:
            m = len(result.tokens)
            _, cross = teacher_forced(toy_model, [toy_model.vocab.bos_id, *result.tokens], enc.states)
            assert result.attention.shape == (2, 4, m, enc.n)
            assert np.allclose(result.attention, cross[:, :, :m], rtol=0.0, atol=1e-12)
            assert np.array_equal(result.attention.argmax(axis=-1), cross[:, :, :m].argmax(axis=-1))


def finished_start(adapter):
    """A ``start_decode`` for an adapter that decodes in full: its result replayed by ``FinishedDecode``."""

    def start(enc, forced_prefix, max_new=128):
        return FinishedDecode(adapter.decode_greedy(enc, forced_prefix, max_new), len(forced_prefix))

    return start


def checked_start(adapter, start):
    """``start``, a ``start_decode``, with each decode read as the simulator reads it: through its record
    of the forced prefix and of each token and row ``advance()`` returned, whose ``eos_reached`` is the
    decode's once ``advance()`` has returned None."""

    def checked(enc, forced_prefix, max_new=128):
        decode = start(enc, forced_prefix, max_new)
        return Decode(decode, adapter, tuple(forced_prefix), enc.n, max_new)

    return checked


def snapshot(decode):
    """A checked decode so far: its tokens, the attention of the tokens ``advance()`` returned, its end."""
    return DecodeResult(decode.tokens, decode.candidate_attention(), decode.eos_reached)


def generated(result, skip):
    """``result`` with the attention of its first ``skip`` tokens, the forced ones, dropped."""
    return DecodeResult(result.tokens, result.attention[:, :, skip:], result.eos_reached)


def pull_until(decode, stop):
    """Advance ``decode`` until ``stop(token, row)`` flags a token or the decode ends.

    Returns the (token, row copy) pairs the rule saw and whether the decode ended.
    """
    seen = []
    while (pulled := decode.advance()) is not None:
        token, row = pulled
        seen.append((token, row.copy()))
        if stop(token, row):
            return seen, False
    return seen, True


class TestStopHook:
    """Pulling a ``start_decode`` decode until a rule flags a token gives a prefix of the full decode."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        frames=st.integers(1, 400),
        share=st.floats(0.0, 1.0),
        max_new=st.sampled_from([1, 4, 128]),
        rule=st.sampled_from(["count", "token", "late"]),
        param=st.integers(0, 12),
    )
    def test_hooked_decode_is_a_prefix_of_the_full_decode(
        self, toy_model, seed, frames, share, max_new, rule, param
    ):
        enc = toy_model.encode(np.random.default_rng(seed).normal(size=(frames, 80)))
        free = toy_model.decode_greedy(enc, [])
        prefix = free.tokens[: round(share * len(free.tokens))]
        full = toy_model.decode_greedy(enc, prefix, max_new)
        count = 0

        def stop(token, row):
            nonlocal count
            count += 1
            if rule == "count":
                return count > param
            if rule == "token":
                return token % 13 == param
            return row[-1].mean(axis=0).argmax() >= enc.n - 1 - param % 3

        decode = checked_start(toy_model, toy_model.start_decode)(enc, prefix, max_new)
        seen, ended = pull_until(decode, stop)
        got = snapshot(decode)
        m = len(got.tokens)
        assert got.tokens == full.tokens[:m]
        assert np.array_equal(got.attention, full.attention[:, :, len(prefix) : m])
        # the rule saw every generated token with that token's captured attention row
        assert [t for t, _ in seen] == list(got.tokens[len(prefix):])
        for i, (_, row) in enumerate(seen):
            assert np.array_equal(row, full.attention[:, :, len(prefix) + i])
        if ended:
            assert_same_decode(got, generated(full, len(prefix)))
        else:
            assert not decode.eos_reached

    def test_scripted_adapter_truncates_at_first_firing(self):
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "dd"])
        a, b, c, d = (piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "dd"))
        adapter = ScriptedAdapter(
            vocab, {4: ScriptStep(tokens=(a, b, c, d), alignment=(0, 3, 1, 3), eos=True)}
        )
        enc = adapter.encode(np.zeros((16, 80)))
        start = checked_start(adapter, finished_start(adapter))

        def late(token, row):
            return row[0, 0, 3] == 1.0

        decode = start(enc, [a])
        seen, ended = pull_until(decode, late)
        assert decode.tokens == (a, b) and not decode.eos_reached and not ended
        assert decode.candidate_attention().shape == (1, 1, 1, 4)
        assert [t for t, _ in seen] == [b]  # forced tokens are not pulled
        decode = start(enc, [a, b])
        pull_until(decode, late)
        assert decode.tokens == (a, b, c, d) and not decode.eos_reached
        decode = start(enc, [a, b])
        assert pull_until(decode, lambda token, row: False)[1]
        assert decode.tokens == (a, b, c, d) and decode.eos_reached

    def test_capability_is_declared_outside_the_protocol(self, toy_model):
        # ToyModel generates on demand; ScriptedAdapter, the full-decode
        # reference, offers only the protocol and is bridged by FinishedDecode
        assert callable(ToyModel.start_decode) and not hasattr(ScriptedAdapter, "start_decode")
        assert not hasattr(ModelAdapter, "start_decode")
        assert isinstance(ScriptedAdapter(toy_model.vocab, {}), ModelAdapter)
        # a raw decode is any object with the two members; neither kind derives from the checked record
        for kind in (FinishedDecode, model_module._ToyDecode):
            assert kind.__bases__ == (object,) and "advance" in vars(kind) and not issubclass(kind, Decode)


def pause_chain(start, enc, prefix, max_new, pauses):
    """Pull a decode one token at a time, pausing after the generated tokens numbered in ``pauses``.

    ``start`` is a ``checked_start``. Each pause snapshots the decode and
    advances another, unrelated decode of the same adapter in between.
    Returns the snapshots, the drained decode's last.
    """
    decode = start(enc, prefix, max_new)
    other = start(enc, [])
    snapshots = []
    for i in range(10**6):
        if decode.advance() is None:
            break
        if i in pauses:
            snapshots.append(snapshot(decode))
            other.advance()
    snapshots.append(snapshot(decode))
    assert decode.advance() is None and snapshots[-1].tokens == decode.tokens
    return snapshots


def assert_same_decode(got, want):
    assert got.tokens == want.tokens
    assert np.array_equal(got.attention, want.attention)
    assert got.eos_reached == want.eos_reached


class TestResume:
    """A decode paused after any token continues to exactly the uninterrupted result."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        frames=st.integers(1, 450),
        share=st.floats(0.0, 1.0),
        max_new=st.sampled_from([1, 2, 5, 128]),
        pauses=st.sets(st.integers(0, 70), max_size=8),
    )
    def test_resumed_toy_decode_equals_the_uninterrupted_one(
        self, toy_model, seed, frames, share, max_new, pauses
    ):
        enc = toy_model.encode(np.random.default_rng(seed).normal(size=(frames, 80)))
        free = toy_model.decode_greedy(enc, [])
        prefix = free.tokens[: round(share * len(free.tokens))]
        full = toy_model.decode_greedy(enc, prefix, max_new)
        chain = pause_chain(checked_start(toy_model, toy_model.start_decode), enc, prefix, max_new, pauses)
        assert_same_decode(chain[-1], generated(full, len(prefix)))
        for paused in chain[:-1]:
            # each pause is a prefix of the full decode that has not ended
            m = len(paused.tokens)
            assert paused.tokens == full.tokens[:m] and not paused.eos_reached
            assert np.array_equal(paused.attention, full.attention[:, :, len(prefix) : m])
            assert m - len(prefix) - 1 in pauses and m <= len(prefix) + max_new

    def test_chained_resumes_one_token_at_a_time(self, toy_model):
        enc = toy_model.encode(np.random.default_rng(0).normal(size=(200, 80)))
        full = toy_model.decode_greedy(enc, [])
        chain = pause_chain(checked_start(toy_model, toy_model.start_decode), enc, [], 128, set(range(100)))
        assert full.eos_reached and len(full.tokens) == 45
        # a pause after every token, then the advance that reads end-of-sequence
        assert [len(r.tokens) for r in chain] == list(range(1, 46)) + [45]
        assert_same_decode(chain[-1], full)

    def test_resume_grows_the_buffers(self, toy_model):
        enc = toy_model.encode(np.random.default_rng(0).normal(size=(450, 80)))
        full = toy_model.decode_greedy(enc, [])
        raw = toy_model.start_decode(enc, [])
        decode = Decode(raw, toy_model, (), enc.n, 128)
        _, paused = decode.advance()
        assert raw.keys.shape[1] == 1 + model_module._INITIAL_NEW_ROWS
        while decode.advance() is not None:
            pass
        assert raw.keys.shape[1] > 1 + model_module._INITIAL_NEW_ROWS
        assert len(full.tokens) > model_module._INITIAL_NEW_ROWS
        assert_same_decode(snapshot(decode), full)
        # a row returned while paused is not overwritten by the growth
        assert np.array_equal(paused, full.attention[:, :, 0])

    def test_pause_right_before_eos(self, toy_model):
        enc = toy_model.encode(np.random.default_rng(1).normal(size=(40, 80)))
        prefix = toy_model.decode_greedy(enc, []).tokens[:-1]
        full = toy_model.decode_greedy(enc, prefix)
        assert full.eos_reached and len(full.tokens) == len(prefix) + 1
        raw = toy_model.start_decode(enc, prefix)
        decode = Decode(raw, toy_model, prefix, enc.n, 128)
        token, row = decode.advance()
        assert decode.tokens == full.tokens and not decode.eos_reached
        assert token == full.tokens[-1] and np.array_equal(row, full.attention[:, :, -1])
        assert decode.advance() is None
        assert_same_decode(snapshot(decode), generated(full, len(prefix)))
        assert raw.advance() is None and raw.eos_reached

    def test_decode_ending_at_max_new_has_no_resume(self, toy_model, monkeypatch):
        enc = toy_model.encode(np.random.default_rng(2).normal(size=(200, 80)))
        full = toy_model.decode_greedy(enc, [], max_new=3)
        steps = []
        step = toy_model._step
        monkeypatch.setattr(toy_model, "_step", lambda decode, token: steps.append(token) or step(decode, token))
        decode = toy_model.start_decode(enc, [], max_new=3)
        pulled = [decode.advance() for _ in range(3)]
        assert tuple(token for token, _ in pulled) == full.tokens and len(steps) == 2
        assert all(np.array_equal(row, full.attention[:, :, i]) for i, (_, row) in enumerate(pulled))
        # the token that reaches max_new ends the decode without a decoder step
        assert decode.advance() is None and decode.advance() is None
        assert len(steps) == 2 and not decode.eos_reached and not full.eos_reached

    @pytest.mark.parametrize("max_new", [1, 2, 3, 4, 128])
    @pytest.mark.parametrize("eos", [False, True])
    def test_resumed_scripted_decode_equals_the_uninterrupted_one(self, max_new, eos):
        # the scripted result replayed by FinishedDecode
        vocab = Vocabulary(["▁aa", "▁bb", "▁cc", "dd"])
        a, b, c, d = (piece_id(vocab, p) for p in ("▁aa", "▁bb", "▁cc", "dd"))
        adapter = ScriptedAdapter(
            vocab, {4: ScriptStep(tokens=(a, b, c, d), alignment=(0, 3, 1, 2), eos=eos)},
            num_layers=2, num_heads=3,
        )
        enc = adapter.encode(np.zeros((16, 80)))
        start = checked_start(adapter, finished_start(adapter))
        for prefix in ((), (a,), (a, b, c)):
            full = adapter.decode_greedy(enc, prefix, max_new)
            for pauses in (set(), {0}, {1}, {0, 1, 2}, set(range(4))):
                chain = pause_chain(start, enc, prefix, max_new, pauses)
                assert_same_decode(chain[-1], generated(full, len(prefix)))
                for paused in chain[:-1]:
                    assert not paused.eos_reached
                    assert len(paused.tokens) <= len(prefix) + max_new
                    assert paused.tokens == full.tokens[: len(paused.tokens)]
        # a pause right before end-of-sequence
        decode = start(enc, (a, b, c))
        assert decode.advance()[0] == d
        assert decode.tokens == (a, b, c, d) and not decode.eos_reached
        assert decode.advance() is None and decode.eos_reached == eos

    @pytest.mark.parametrize("seed", range(4))
    def test_two_live_decodes_advanced_alternately(self, toy_model, seed):
        # local agreement's access pattern: the previous step's decode is
        # advanced while the current step's decode is pulled
        rng = np.random.default_rng(seed)
        encs = [toy_model.encode(rng.normal(size=(frames, 80))) for frames in (90, 160)]
        prefix = toy_model.decode_greedy(encs[0], []).tokens[:3]
        fulls = [toy_model.decode_greedy(enc, prefix) for enc in encs]
        start = checked_start(toy_model, toy_model.start_decode)
        decodes = [start(enc, prefix) for enc in encs]
        live = [0, 1]
        while live:
            i = live[rng.integers(len(live))]
            if decodes[i].advance() is None:
                live.remove(i)
        for decode, full in zip(decodes, fulls):
            assert_same_decode(snapshot(decode), generated(full, len(prefix)))

    def test_decode_greedy_drains_through_advance(self, toy_model, monkeypatch):
        enc = toy_model.encode(np.random.default_rng(4).normal(size=(120, 80)))
        full = toy_model.decode_greedy(enc, [])
        pulls = []
        advance = model_module._ToyDecode.advance
        monkeypatch.setattr(
            model_module._ToyDecode, "advance", lambda self: pulls.append(1) or advance(self)
        )
        assert_same_decode(toy_model.decode_greedy(enc, []), full)
        # one pull per generated token, and the one that reads end-of-sequence
        assert full.eos_reached and len(pulls) == len(full.tokens) + 1


class TestSharedAcrossThreads:
    def test_position_table_growth_race(self):
        # Every round restarts from a one-row table, so the threads grow it
        # at once and a slower one can install a table shorter than another
        # asked for; each call must still return the length it asked for.
        model = ToyModel(ToyModelConfig(seed=0), build_default_vocabulary())
        lengths = (60, 200, 70, 150)

        def reset():
            model._pos_cache = model._positions(1)

        barrier = threading.Barrier(len(lengths), action=reset, timeout=10)
        wrong = []

        def worker(length):
            for _ in range(100):
                barrier.wait()
                if model._pos(length).shape[0] != length:
                    wrong.append(length)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in lengths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestWordCounting:
    @pytest.mark.parametrize(
        "labels,expected",
        [
            ([2, 2, 1, 0, 2], 1),
            ([0, 0, 0], 0),
            ([1, 0, 1, 2, 1], 3),
            ([1, 1], 1),
            ([], 0),
            ([2, 1, 1, 0, 1], 2),
        ],
    )
    def test_collapse_then_count(self, labels, expected):
        assert count_words_in_labels(labels) == expected

    def test_toy_count_is_stable_and_nonnegative(self, toy_model, golden_source):
        a = toy_model.count_source_words(golden_source)
        b = toy_model.count_source_words(golden_source)
        assert a == b >= 0

    def test_toy_count_frozen(self, toy_model, golden_source):
        assert toy_model.count_source_words(golden_source) == 8

    def test_frame_labels_in_range(self, toy_model, golden_source):
        labels = toy_model.frame_labels(golden_source)
        assert labels.shape == (50,)
        assert labels.min() >= 0
        assert labels.max() < toy_model._b_ctc.shape[0]


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            ToyModelConfig(num_heads=5)

    def test_larger_architecture_builds(self):
        config = ToyModelConfig(num_decoder_layers=6, num_heads=8, seed=5)
        model = ToyModel(config, build_default_vocabulary())
        enc = model.encode(np.random.default_rng(0).normal(size=(40, 80)))
        res = model.decode_greedy(enc, [], max_new=6)
        assert res.attention.shape[:2] == (6, 8)


def _parameter_digest(model: ToyModel) -> str:
    """SHA-256 over every weight array in the order drawn, with its dtype and shape."""
    digest = hashlib.sha256()
    arrays = [model._w_in, model._b_in, model._w_mix, model._b_mix, model._embed]
    arrays += [layer[name] for layer in model._layers for name in sorted(layer)]
    arrays += [model._w_ctc, model._b_ctc]
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestFrozenParameters:
    # frozen from the default-vocabulary models; any change to a weight's
    # value, shape or draw order changes every output of the toy model
    @pytest.mark.parametrize(
        "seed,expected",
        [
            (0, "257e89f886ee647b31816b53fb49862f2da6342da473fb13eca7c092712eb9cc"),
            (5, "5df49cc75abac5d3099833a85b20ba6e0473d97bb825b87e1bc7ccb0e0ad56c8"),
        ],
    )
    def test_parameter_digest(self, seed, expected):
        assert _parameter_digest(ToyModel(ToyModelConfig(seed=seed))) == expected


class TestScriptedAdapter:
    @pytest.fixture()
    def vocab(self):
        return Vocabulary(["▁aa", "▁bb", "▁cc", "dd"])

    def test_encode_pools_like_real_adapters(self, vocab):
        adapter = ScriptedAdapter(vocab, {})
        assert adapter.encode(np.zeros((8, 80))).n == 2
        assert adapter.encode(np.zeros((9, 80))).n == 3
        with pytest.raises(ValueError, match="non-empty"):
            adapter.encode(np.zeros((0, 80)))

    def test_decode_follows_script(self, vocab):
        a, b = piece_id(vocab, "▁aa"), piece_id(vocab, "▁bb")
        adapter = ScriptedAdapter(
            vocab, {2: ScriptStep(tokens=(a, b), alignment=(0, 1), eos=True)}
        )
        res = adapter.decode_greedy(adapter.encode(np.zeros((8, 80))), [])
        assert res.tokens == (a, b)
        assert res.eos_reached
        assert res.attention.shape == (1, 1, 2, 2)
        assert res.attention[0, 0, 0, 0] == 1.0 and res.attention[0, 0, 1, 1] == 1.0
        assert res.attention[0, 0].sum() == 2.0

    def test_prefix_must_match_script(self, vocab):
        a, b = piece_id(vocab, "▁aa"), piece_id(vocab, "▁bb")
        adapter = ScriptedAdapter(vocab, {2: ScriptStep(tokens=(a, b), alignment=(0, 1))})
        enc = adapter.encode(np.zeros((8, 80)))
        assert adapter.decode_greedy(enc, [a]).tokens == (a, b)
        with pytest.raises(ValueError, match="does not extend"):
            adapter.decode_greedy(enc, [b])
        with pytest.raises(ValueError, match="end-of-sequence"):
            adapter.decode_greedy(enc, [vocab.eos_id])

    def test_truncation_suppresses_eos(self, vocab):
        a, b = piece_id(vocab, "▁aa"), piece_id(vocab, "▁bb")
        adapter = ScriptedAdapter(
            vocab, {2: ScriptStep(tokens=(a, b), alignment=(0, 1), eos=True)}
        )
        res = adapter.decode_greedy(adapter.encode(np.zeros((8, 80))), [], max_new=1)
        assert res.tokens == (a,)
        assert not res.eos_reached

    def test_eos_is_not_read_after_max_new_tokens(self, vocab, toy_model):
        # as in ToyModel, a decode that generates max_new tokens never reads
        # end-of-sequence, even where the script ends right there
        a, b = piece_id(vocab, "▁aa"), piece_id(vocab, "▁bb")
        adapter = ScriptedAdapter(
            vocab, {2: ScriptStep(tokens=(a, b), alignment=(0, 1), eos=True)}
        )
        enc = adapter.encode(np.zeros((8, 80)))
        for prefix, max_new, eos in (([], 2, False), ([], 3, True), ([a], 1, False), ([a], 2, True)):
            res = adapter.decode_greedy(enc, prefix, max_new=max_new)
            assert res.tokens == (a, b) and res.eos_reached == eos
        toy_enc = toy_model.encode(np.random.default_rng(1).normal(size=(40, 80)))
        free = toy_model.decode_greedy(toy_enc, [])
        assert free.eos_reached
        assert not toy_model.decode_greedy(toy_enc, [], max_new=len(free.tokens)).eos_reached

    def test_alignment_validation(self, vocab):
        a = piece_id(vocab, "▁aa")
        adapter = ScriptedAdapter(vocab, {2: ScriptStep(tokens=(a,), alignment=(5,))})
        with pytest.raises(ValueError, match="outside"):
            adapter.decode_greedy(adapter.encode(np.zeros((8, 80))), [])
        short = ScriptedAdapter(vocab, {2: ScriptStep(tokens=(a, a), alignment=(0,))})
        with pytest.raises(ValueError, match="align every token"):
            short.decode_greedy(short.encode(np.zeros((8, 80))), [])

    def test_missing_step_raises(self, vocab):
        adapter = ScriptedAdapter(vocab, {4: ScriptStep(tokens=(), alignment=())})
        with pytest.raises(KeyError, match="n=2"):
            adapter.decode_greedy(adapter.encode(np.zeros((8, 80))), [])

    def test_callable_script_and_word_counts(self, vocab):
        a = piece_id(vocab, "▁aa")

        def script(n):
            return ScriptStep(tokens=(a,) * n, alignment=tuple(range(n)), source_words=n * 2)

        adapter = ScriptedAdapter(vocab, script)
        assert adapter.count_source_words(np.zeros((8, 80))) == 4
        res = adapter.decode_greedy(adapter.encode(np.zeros((12, 80))), [])
        assert res.tokens == (a, a, a)


class TestEncoderStates:
    def test_n_property(self):
        states = EncoderStates(states=np.zeros((5, 8)), version=20)
        assert states.n == 5

    def test_make_source_helper(self):
        src = make_source(np.random.default_rng(0), 40)
        assert src.num_frames == 40 and src.feature_dim == 80
