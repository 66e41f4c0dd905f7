"""Decision policies: stopping rules, schedules, agreement, monotonicity."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import (
    AlignAttPolicy,
    DecodeResult,
    EDAttPolicy,
    LocalAgreementPolicy,
    Policy,
    PolicyDecision,
    StepContext,
    StopReason,
    Vocabulary,
    WaitKPolicy,
    aggregate_attention,
    alignatt_decide,
    compute_alignment,
    edatt_decide,
    local_agreement_prefix,
    longest_common_prefix,
    waitk_allowed,
)

from simulst.model import Decode, FinishedDecode

from conftest import alignatt_bruteforce, random_attention, waitk_bruteforce
from support import ScriptStep, ScriptedAdapter, piece_id


def _drained(vocab, committed, candidates, attention, eos=False):
    """A decode of ``committed + candidates`` pulled to its end, as ``run_session`` hands it to a policy
    without a stop rule: its record of the candidates and rows ``advance()`` returned."""
    layers, heads, _, n = attention.shape
    adapter = SimpleNamespace(vocab=vocab, num_decoder_layers=layers, num_heads=heads)
    committed, candidates = tuple(committed), tuple(candidates)
    result = DecodeResult(committed + candidates, attention, eos)
    decode = Decode(FinishedDecode(result, len(committed)), adapter, committed, n, 128)
    assert [decode.advance()[0] for _ in candidates] == list(candidates) and decode.advance() is None
    return decode


class TestAlignAttDecide:
    def test_stops_at_first_inaccessible_frame(self):
        decision = alignatt_decide([0, 3, 5, 8], n_frames=10, f=2)
        assert decision.commit_count == 3
        assert decision.stopped_by is StopReason.INACCESSIBLE_FRAME

    def test_empty_candidates(self):
        decision = alignatt_decide([], n_frames=10, f=2)
        assert decision.commit_count == 0

    def test_commits_all_when_band_avoided(self):
        decision = alignatt_decide([0, 1, 2, 3], n_frames=10, f=2)
        assert decision.commit_count == 4
        assert decision.stopped_by is StopReason.EXHAUSTED

    def test_band_covering_all_frames_commits_nothing(self):
        decision = alignatt_decide([0, 1], n_frames=4, f=4)
        assert decision.commit_count == 0
        decision = alignatt_decide([0], n_frames=4, f=9)
        assert decision.commit_count == 0

    def test_rejects_f_below_one(self):
        with pytest.raises(ValueError, match="f must be"):
            alignatt_decide([0], n_frames=4, f=0)

    def test_rejects_alignment_outside_range(self):
        with pytest.raises(ValueError, match="lie in"):
            alignatt_decide([5], n_frames=4, f=1)
        with pytest.raises(ValueError, match="lie in"):
            alignatt_decide([-1], n_frames=4, f=1)

    def test_rejects_non_1d_alignment(self):
        with pytest.raises(ValueError, match="1-D"):
            alignatt_decide([[0, 1]], n_frames=4, f=1)

    def test_worked_sentence_scenario(self, sentence_vocab):
        # candidates "Ich werde heu te darüber"; the last word's piece aligns
        # inside the last-2-frame band, so exactly "Ich werde heute" commits
        candidates = [piece_id(sentence_vocab, p) for p in ("▁Ich", "▁werde", "▁heu", "te", "▁darüber")]
        alignment = [0, 1, 2, 3, 8]  # n=9, band {7, 8}
        decision = alignatt_decide(alignment, n_frames=9, f=2)
        assert decision.commit_count == 4
        assert sentence_vocab.detokenize(candidates[: decision.commit_count]) == "Ich werde heute"

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        f=st.integers(1, 45),
        num=st.integers(0, 12),
        seed=st.integers(0, 10_000),
    )
    def test_matches_bruteforce_loop(self, n, f, num, seed):
        rng = np.random.default_rng(seed)
        alignment = rng.integers(0, n, size=num)
        decision = alignatt_decide(alignment, n, f)
        assert decision.commit_count == alignatt_bruteforce(alignment, n, f, num)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 30), num=st.integers(0, 10), seed=st.integers(0, 10_000))
    def test_commit_count_non_increasing_in_f(self, n, num, seed):
        rng = np.random.default_rng(seed)
        alignment = rng.integers(0, n, size=num)
        counts = [alignatt_decide(alignment, n, f).commit_count for f in range(1, n + 2)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_committed_prefix_avoids_band_entirely(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            f = int(rng.integers(1, n + 3))
            num = int(rng.integers(0, 10))
            alignment = rng.integers(0, n, size=num)
            commit = alignatt_decide(alignment, n, f).commit_count
            band = set(range(max(0, n - f), n))
            assert all(alignment[i] not in band for i in range(commit))
            if commit < num:
                assert alignment[commit] in band


class TestEDAttDecide:
    def test_stops_when_recent_mass_reaches_threshold(self):
        attn = np.array(
            [
                [0.5, 0.45, 0.03, 0.02],  # last-2 sum 0.05
                [0.4, 0.30, 0.10, 0.20],  # last-2 sum 0.30
            ]
        )
        decision = edatt_decide(attn, alpha=0.1, lam=2)
        assert decision.commit_count == 1
        assert decision.stopped_by is StopReason.THRESHOLD

    def test_alpha_one_commits_everything_below_it(self):
        rng = np.random.default_rng(12)
        attn = random_attention(rng, 4, 10)
        decision = edatt_decide(attn, alpha=1.0, lam=2)
        assert decision.commit_count == 4
        assert decision.stopped_by is StopReason.EXHAUSTED

    def test_seeded_matrix_matches_row_sum_oracle(self):
        rng = np.random.default_rng(13)
        attn = random_attention(rng, 4, 10)
        expected = 0
        for i in range(4):
            if attn[i, -2:].sum() >= 0.2:
                break
            expected += 1
        assert edatt_decide(attn, alpha=0.2, lam=2).commit_count == expected

    def test_lambda_covering_row_uses_total_mass(self):
        attn = np.array([[0.6, 0.4]])
        # lam > n: the sum is the whole row = 1.0 >= alpha
        decision = edatt_decide(attn, alpha=0.9, lam=5)
        assert decision.commit_count == 0

    def test_rejects_bad_hyperparameters(self):
        attn = np.array([[1.0]])
        with pytest.raises(ValueError, match="lam"):
            edatt_decide(attn, alpha=0.5, lam=0)
        with pytest.raises(ValueError, match="alpha"):
            edatt_decide(attn, alpha=0.0, lam=1)

    def test_rejects_non_2d_attention(self):
        with pytest.raises(ValueError, match="2-D"):
            edatt_decide(np.ones(3) / 3, alpha=0.5, lam=1)

    def test_empty_candidates(self):
        assert edatt_decide(np.zeros((0, 4)), alpha=0.5, lam=1).commit_count == 0

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 12),
        lam=st.integers(1, 14),
        seed=st.integers(0, 10_000),
    )
    def test_commit_count_non_decreasing_in_alpha(self, m, n, lam, seed):
        attn = random_attention(np.random.default_rng(seed), m, n)
        alphas = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
        counts = [edatt_decide(attn, a, lam).commit_count for a in alphas]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestPolicyClasses:
    def test_alignatt_policy_delegates_to_rule(self, default_vocab):
        policy = AlignAttPolicy(f=2)
        m, n = 3, 8
        attn = np.zeros((m, n))
        attn[0, 0] = attn[1, 2] = attn[2, 7] = 1.0
        ctx = StepContext(
            candidates=(5, 6, 7),
            attention=attn,
            alignment=np.array([0, 2, 7]),
            source_words=0,
            committed=(),
            vocab=default_vocab,
            decode=_drained(default_vocab, (), (5, 6, 7), attn[None, None]),
        )
        decision = policy.decide(ctx)
        assert decision.commit_count == 2
        assert decision.stopped_by is StopReason.INACCESSIBLE_FRAME

    def test_edatt_policy_delegates_to_rule(self, default_vocab):
        policy = EDAttPolicy(alpha=0.1, lam=2)
        attn = np.array([[0.5, 0.45, 0.03, 0.02], [0.4, 0.3, 0.1, 0.2]])
        ctx = StepContext(
            candidates=(5, 6),
            attention=attn,
            alignment=np.array([0, 0]),
            source_words=0,
            committed=(),
            vocab=default_vocab,
            decode=_drained(default_vocab, (), (5, 6), attn[None, None]),
        )
        assert policy.decide(ctx).commit_count == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="f must be"):
            AlignAttPolicy(f=0)
        with pytest.raises(ValueError, match="alpha"):
            EDAttPolicy(alpha=1.5)
        with pytest.raises(ValueError, match="lam"):
            EDAttPolicy(alpha=0.5, lam=0)
        with pytest.raises(ValueError, match="k must be"):
            WaitKPolicy(k=0)

    def test_policy_names(self):
        assert AlignAttPolicy(f=2).name == "alignatt"
        assert EDAttPolicy(alpha=0.5).name == "edatt"
        assert WaitKPolicy(k=3).name == "waitk"
        assert LocalAgreementPolicy().name == "local_agreement"


class TestWaitK:
    @pytest.mark.parametrize(
        "k,detected,emitted,expected",
        [(3, 2, 0, 0), (3, 3, 0, 1), (3, 7, 2, 3), (1, 1, 0, 1), (2, 10, 9, 0)],
    )
    def test_allowed_examples(self, k, detected, emitted, expected):
        assert waitk_allowed(k, detected, emitted) == expected

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be"):
            waitk_allowed(0, 3, 0)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 9), detected=st.integers(0, 30), emitted=st.integers(0, 30))
    def test_allowed_plus_emitted_respects_budget(self, k, detected, emitted):
        allowed = waitk_allowed(k, detected, emitted)
        assert allowed >= 0
        assert emitted + allowed <= max(emitted, max(0, detected - k + 1))


def _waitk_context(vocab: Vocabulary, committed, candidates, source_words, eos=False):
    n = 20
    m = len(candidates)
    tokens = tuple(committed) + tuple(candidates)
    return StepContext(
        candidates=tuple(candidates),
        attention=np.full((m, n), 1.0 / n),
        alignment=np.zeros(m, dtype=int),
        source_words=source_words,
        committed=tuple(committed),
        vocab=vocab,
        decode=_drained(vocab, committed, candidates, np.full((1, 1, len(tokens), n), 1.0 / n), eos),
    )


_WAITK_VOCAB = Vocabulary(["▁an", "▁be", "▁ce", "de", "fe"])
# _WAITK_VOCAB's pieces, then pieces whose markers are not only at the front
_SPACED_VOCAB = Vocabulary(["▁an", "▁be", "▁ce", "de", "fe", "▁", "g▁h", "▁i▁"])


class TestWaitKPolicy:
    @pytest.fixture()
    def vocab(self):
        return _WAITK_VOCAB

    def test_withholds_incomplete_tail_word(self, vocab):
        policy = WaitKPolicy(k=1)
        ids = [piece_id(vocab, p) for p in ("▁an", "▁be", "de")]
        ctx = _waitk_context(vocab, [], ids, source_words=9)
        decision = policy.decide(ctx)
        # "▁be de" may still grow: only "▁an" is a complete word
        assert decision.commit_count == 1
        assert decision.stopped_by is StopReason.SCHEDULE

    def test_eos_completes_tail_word(self, vocab):
        policy = WaitKPolicy(k=1)
        ids = [piece_id(vocab, p) for p in ("▁an", "▁be", "de")]
        ctx = _waitk_context(vocab, [], ids, source_words=9, eos=True)
        assert policy.decide(ctx).commit_count == 3

    def test_budget_limits_committed_words(self, vocab):
        policy = WaitKPolicy(k=3)
        ids = [piece_id(vocab, p) for p in ("▁an", "▁be", "▁ce", "de")]
        ctx = _waitk_context(vocab, [], ids, source_words=4, eos=True)
        # detected=4, k=3 -> budget 2 words
        decision = policy.decide(ctx)
        assert decision.commit_count == 2
        assert decision.stopped_by is StopReason.SCHEDULE

    def test_leading_continuation_is_free(self, vocab):
        policy = WaitKPolicy(k=2)
        committed = [piece_id(vocab, "▁be")]
        candidates = [piece_id(vocab, "de"), piece_id(vocab, "▁an")]
        # emitted=1 word; detected=2 -> budget max(0, 2-2+1-1)=0, yet the
        # continuation "de" belongs to the committed word and may flow
        ctx = _waitk_context(vocab, committed, candidates, source_words=2, eos=True)
        decision = policy.decide(ctx)
        assert decision.commit_count == 1

    def test_no_candidates(self, vocab):
        policy = WaitKPolicy(k=2)
        ctx = _waitk_context(vocab, [], [], source_words=5)
        assert policy.decide(ctx).commit_count == 0

    @settings(max_examples=1000, deadline=None)
    @given(
        # ids 2..10: <unk> (writes nothing), three word starts, two continuations,
        # a bare marker, a piece with an inner marker and one with a trailing marker
        candidates=st.lists(st.integers(2, 10), max_size=12),
        committed=st.lists(st.integers(2, 10), max_size=8),
        k=st.integers(1, 6),
        source_words=st.integers(0, 14),
        eos=st.booleans(),
    )
    def test_matches_segment_walk_oracle(self, candidates, committed, k, source_words, eos):
        vocab = _SPACED_VOCAB
        ctx = _waitk_context(vocab, committed, candidates, source_words, eos=eos)
        decision = WaitKPolicy(k).decide(ctx)
        assert (decision.commit_count, decision.stopped_by) == waitk_bruteforce(
            committed, candidates, k, source_words, eos, vocab
        )

    @pytest.mark.parametrize(
        "pieces,committed,words,candidates,source_words,eos,commit",
        [
            # "a b": two words, one more allowed; " a b a b" goes over it at its second word
            (["▁a▁", "b"], ["▁a▁", "b"], 2, ["▁a▁", "b", "▁a▁", "b"], 3, False, 1),
            # " a  " is one word, one more allowed; " a" and a bare marker commit, the next " a" does not
            (["▁", "▁a"], ["▁a", "▁", "▁"], 1, ["▁a", "▁", "▁a"], 2, True, 2),
        ],
        ids=["inner_and_trailing_marker", "bare_marker"],
    )
    def test_words_are_those_of_the_text(self, pieces, committed, words, candidates, source_words, eos, commit):
        vocab = Vocabulary(pieces)
        committed, candidates = [[piece_id(vocab, p) for p in ps] for ps in (committed, candidates)]
        assert len(vocab.detokenize(committed).split()) == words
        policy = WaitKPolicy(k=1)
        decision = policy.decide(_waitk_context(vocab, committed, candidates, source_words, eos=eos))
        assert (decision.commit_count, decision.stopped_by) == (commit, StopReason.SCHEDULE)
        stop = policy.stop_rule(tuple(committed), source_words, vocab, 0)
        assert [stop(t, None) for t in candidates[: commit + 1]] == [False] * commit + [True]

    def test_uses_word_counts_flag(self):
        assert WaitKPolicy(k=2).uses_word_counts
        assert not AlignAttPolicy(f=2).uses_word_counts


class TestLocalAgreement:
    def test_prefix_examples(self):
        d = local_agreement_prefix([10, 11, 12], [10, 11, 13], committed=1)
        assert d.commit_count == 1 and d.stopped_by is StopReason.DISAGREEMENT
        assert local_agreement_prefix(None, [10, 11], committed=0).commit_count == 0
        d = local_agreement_prefix([10, 11, 12], [10, 11, 12, 14], committed=0)
        assert d.commit_count == 3

    def test_longest_common_prefix(self):
        assert longest_common_prefix([1, 2, 3], [1, 2, 4]) == 2
        assert longest_common_prefix([], [1]) == 0
        assert longest_common_prefix([1], [1]) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        len_a=st.integers(0, 10),
        len_b=st.integers(0, 10),
        committed=st.integers(0, 5),
    )
    def test_committed_tokens_agree_in_both_hypotheses(self, seed, len_a, len_b, committed):
        rng = np.random.default_rng(seed)
        previous = rng.integers(0, 4, size=len_a).tolist()
        current = rng.integers(0, 4, size=len_b).tolist()
        committed = min(committed, longest_common_prefix(previous, current))
        decision = local_agreement_prefix(previous, current, committed)
        for i in range(committed, committed + decision.commit_count):
            assert previous[i] == current[i]

    def test_policy_first_chunk_commits_nothing(self, default_vocab):
        policy = LocalAgreementPolicy()
        ctx = _waitk_context(default_vocab, [], [5, 6, 7], source_words=0)
        assert policy.decide(ctx).commit_count == 0

    def test_policy_commits_agreed_prefix_on_second_chunk(self, default_vocab):
        policy = LocalAgreementPolicy()
        policy.decide(_waitk_context(default_vocab, [], [5, 6, 7], source_words=0))
        decision = policy.decide(_waitk_context(default_vocab, [], [5, 6, 9, 9], source_words=0))
        assert decision.commit_count == 2
        assert decision.stopped_by is StopReason.DISAGREEMENT

    def test_policy_discounts_already_committed(self, default_vocab):
        policy = LocalAgreementPolicy()
        policy.decide(_waitk_context(default_vocab, [], [5, 6, 7], source_words=0))
        policy.decide(_waitk_context(default_vocab, [], [5, 6, 9], source_words=0))  # commits 2
        decision = policy.decide(_waitk_context(default_vocab, [5, 6], [9, 8], source_words=0))
        # hypothesis [5,6,9,8] vs previous [5,6,9]: lcp 3, minus 2 committed
        assert decision.commit_count == 1

    def test_reset_clears_history(self, default_vocab):
        policy = LocalAgreementPolicy()
        policy.decide(_waitk_context(default_vocab, [], [5, 6], source_words=0))
        policy.reset()
        assert policy.decide(_waitk_context(default_vocab, [], [5, 6], source_words=0)).commit_count == 0



def _step_context(vocab, tensor, layer, committed, candidates, source_words, eos):
    """The context ``run_session`` builds from a decode of ``committed + candidates``."""
    weights = aggregate_attention(tensor, layer)[len(committed):, :]
    return StepContext(
        candidates=tuple(candidates),
        attention=weights,
        alignment=compute_alignment(weights),
        source_words=source_words,
        committed=tuple(committed),
        vocab=vocab,
        decode=_drained(vocab, committed, candidates, tensor, eos),
    )


def _la_context(vocab, committed, candidates, decode=None, eos=False):
    """A local agreement context; ``decode`` is the step's paused decode, else a drained one."""
    ctx = _waitk_context(vocab, committed, candidates, 0, eos)
    return ctx if decode is None else dataclasses.replace(ctx, decode=decode)


class _Logged:
    """A decode from output position 0 whose ``advance`` calls append to ``advances`` the count of
    tokens it has returned."""

    def __init__(self, decode, advances):
        self._decode = decode
        self._advances = advances
        self._returned = 0

    def __getattr__(self, name):
        return getattr(self._decode, name)

    def advance(self):
        self._advances.append(self._returned)
        pulled = self._decode.advance()
        self._returned += pulled is not None
        return pulled


def _paused_decode(tokens, pause, advances):
    """A scripted decode of ``tokens``, read as ``run_session`` reads it, paused after generated token
    ``pause``; the later advances of the adapter's decode are logged."""
    step = ScriptStep(tokens=tokens, alignment=(0,) * len(tokens))
    adapter = ScriptedAdapter(_WAITK_VOCAB, {4: step})
    enc = adapter.encode(np.zeros((16, 80)))
    logged = _Logged(FinishedDecode(adapter.decode_greedy(enc, []), 0), advances)
    decode = Decode(logged, adapter, (), enc.n, 128)
    for _ in range(pause + 1):
        decode.advance()
    advances.clear()
    return decode


class TestStopRule:
    """A stop rule fires only where ``decide`` on the shortened decode equals ``decide`` in full."""

    @settings(max_examples=400, deadline=None)
    @given(
        policy=st.sampled_from(
            [AlignAttPolicy(1), AlignAttPolicy(3), EDAttPolicy(0.2, 1), EDAttPolicy(0.5, 3),
             WaitKPolicy(1), WaitKPolicy(3)]
        ),
        seed=st.integers(0, 10_000),
        # ids 2..7: <unk> (a continuation), three word starts, two continuations
        candidates=st.lists(st.integers(2, 7), max_size=12),
        committed=st.lists(st.integers(2, 7), max_size=6),
        n=st.integers(1, 12),
        source_words=st.integers(0, 10),
        eos=st.booleans(),
    )
    def test_fires_only_once_decide_is_fixed(
        self, policy, seed, candidates, committed, n, source_words, eos
    ):
        vocab, layer = _WAITK_VOCAB, 1
        rng = np.random.default_rng(seed)
        # peaked rows, so that some align with the last frames
        tensor = rng.random((2, 3, len(committed) + len(candidates), n)) ** 6 + 1e-9
        tensor /= tensor.sum(axis=-1, keepdims=True)
        stop = policy.stop_rule(tuple(committed), source_words, vocab, layer)
        fired = next(
            (i for i, token in enumerate(candidates) if stop(token, tensor[:, :, len(committed) + i])),
            None,
        )
        full = policy.decide(
            _step_context(vocab, tensor, layer, committed, candidates, source_words, eos)
        )
        if fired is not None:
            end = len(committed) + fired + 1
            short = policy.decide(
                _step_context(
                    vocab, tensor[:, :, :end], layer, committed, candidates[: fired + 1],
                    source_words, False,
                )
            )
            assert short.commit_count == full.commit_count == fired

    def test_fires_at_the_decision_point(self):
        vocab = _WAITK_VOCAB
        tensor = np.zeros((1, 1, 3, 8))
        tensor[0, 0, [0, 1, 2], [0, 7, 7]] = 1.0
        stop = AlignAttPolicy(f=2).stop_rule((), 0, vocab, 0)
        assert [stop(5, tensor[:, :, i]) for i in range(3)] == [False, True, True]
        stop = EDAttPolicy(alpha=0.5, lam=1).stop_rule((), 0, vocab, 0)
        assert [stop(5, tensor[:, :, i]) for i in range(3)] == [False, True, True]
        an, be, de = (piece_id(vocab, p) for p in ("▁an", "▁be", "de"))
        # detected 4, k 3, nothing emitted: two words allowed, so the rule
        # fires at the third word start, the token that completes word two
        stop = WaitKPolicy(k=3).stop_rule((), 4, vocab, 0)
        row = tensor[:, :, 0]
        assert [stop(t, row) for t in (de, an, de, be, an)] == [False, False, False, False, True]

    def test_policies_needing_the_whole_hypothesis_decode_in_full(self):
        assert Policy().stop_rule((), 3, _WAITK_VOCAB, 0) is None

    def test_local_agreement_fires_at_the_first_disagreement(self):
        vocab, row = _WAITK_VOCAB, np.zeros((1, 1, 4))
        policy = LocalAgreementPolicy()
        # no previous hypothesis: nothing can agree, so one token suffices
        assert policy.stop_rule((), 0, vocab, 0)(3, row)
        policy.decide(_waitk_context(vocab, [], [3, 4, 5], 0))
        # candidates are compared from the end of the committed prefix on
        stop = policy.stop_rule((3,), 0, vocab, 0)
        assert [stop(t, row) for t in (4, 6)] == [False, True]
        stop = policy.stop_rule((3,), 0, vocab, 0)
        assert [stop(t, row) for t in (4, 5, 5)] == [False, False, True]  # past its end

    def test_local_agreement_resumes_the_previous_hypothesis_as_far_as_it_reads(self):
        vocab, row = _WAITK_VOCAB, np.zeros((1, 1, 4))
        advances = []
        paused = _paused_decode((3, 4, 5, 6), pause=0, advances=advances)
        assert paused.tokens == (3,)
        policy = LocalAgreementPolicy()
        policy.decide(_la_context(vocab, (), paused.tokens, paused))
        stop = policy.stop_rule((), 0, vocab, 0)
        assert [stop(t, row) for t in (3, 4, 5)] == [False, False, False]
        assert advances == [1, 2]  # tokens 4 and 5 of the previous hypothesis
        assert stop(7, row) and len(advances) == 3
        # decide reads no further than the rule did
        decision = policy.decide(_la_context(vocab, (), (3, 4, 5, 7), None))
        assert decision == PolicyDecision(3, StopReason.DISAGREEMENT)
        assert len(advances) == 3
        # nor past the end of a current hypothesis that agrees throughout
        advances.clear()
        paused = _paused_decode((3, 4, 5, 6), pause=0, advances=advances)
        policy.decide(_la_context(vocab, (), paused.tokens, paused))
        decision = policy.decide(_la_context(vocab, (), (3, 4), None, eos=True))
        assert decision == PolicyDecision(2, StopReason.EXHAUSTED)
        assert len(advances) == 1

    @settings(max_examples=400, deadline=None)
    @given(
        previous=st.lists(st.integers(2, 5), max_size=8),
        pause=st.integers(0, 8),
        share=st.floats(0.0, 1.0),
        tail=st.lists(st.integers(2, 5), max_size=8),
        eos=st.booleans(),
    )
    def test_local_agreement_fires_only_once_decide_is_fixed(self, previous, pause, share, tail, eos):
        vocab, row = _WAITK_VOCAB, np.zeros((1, 1, 4))
        committed = tuple(previous[: round(share * len(previous))])
        hooked, full = LocalAgreementPolicy(), LocalAgreementPolicy()
        for policy in (hooked, full):
            paused = _paused_decode(tuple(previous), pause, [])
            policy.decide(_la_context(vocab, (), paused.tokens, paused))
        stop = hooked.stop_rule(committed, 0, vocab, 0)
        fired = next((i for i, token in enumerate(tail) if stop(token, row)), None)
        want = full.decide(_la_context(vocab, committed, tuple(tail), None, eos))
        agrees = tuple(tail) == tuple(previous[len(committed): len(committed) + len(tail)])
        assert (fired is None) == agrees
        if fired is not None:
            got = hooked.decide(_la_context(vocab, committed, tuple(tail[: fired + 1]), None))
            assert got == want and got.commit_count == fired
