"""Closed forms of the attention policies on planted alignments, through ``run_eval``.

``PlantedAdapter`` decodes each reference token once its planted encoder
state has arrived and guesses, attending to the newest state, past it. On it:

* AlignAtt(f), f >= 1, scores BLEU 100 and commits token i at the first step
  whose encoder length n exceeds max(a_j for j <= i) + f, or at the final
  flush;
* EDAtt(alpha, lambda = f), 0 < alpha <= 1, commits exactly what AlignAtt(f)
  commits, when it commits it;
* local agreement never commits a guess: token i commits one step after the
  first step whose n exceeds max(a_j for j <= i), or at the final flush;
* wait-k(k) scores BLEU 100, since a guess is always the last, unfinished
  word: token i commits at the first step whose n exceeds max(a_j for j <= i)
  and whose detected word count reaches k plus the index of token i's word,
  or at the final flush. A leading continuation piece, in no word, needs no
  budget.

For every policy, the AL and LAAL in ``aggregate.json`` are those of the word
delays that its closed form gives.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest

from simulst import BOUNDARY_MARKER, FRAME_SHIFT_MS, SessionConfig, read_emission_log, run_eval, runner

from support import PLANTED_VOCAB, PLANTED_WORDS, Planted, PlantedAdapter, guess_id, piece_id


def _planted(seed: int) -> list[Planted]:
    """Eight utterances of 4-12 tokens on 60-240 frames, planted states drawn at random."""
    rng = np.random.default_rng(seed)
    utterances = []
    for u in range(8):
        num_frames = int(rng.integers(60, 241))
        num_states = -(-num_frames // 4)
        length = int(rng.integers(4, 13))
        frames = rng.integers(0, num_states, size=length)
        if u % 2:  # half of them attend monotonically, as a good aligner does
            frames = np.sort(frames)
        boundaries = np.sort(rng.choice(num_states, size=min(length, num_states), replace=False))
        utterances.append(Planted(
            tokens=tuple(int(t) for t in rng.choice(PLANTED_WORDS, size=length)),
            frames=tuple(int(a) for a in frames),
            boundaries=tuple(int(b) for b in boundaries),
            num_frames=num_frames,
        ))
    return utterances


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The adapter and its manifest entries, each source a feature file."""
    adapter = PlantedAdapter(_planted(seed=16))
    return adapter, adapter.manifest(tmp_path_factory.mktemp("planted"))


def _evaluate(planted, tmp_path, monkeypatch, **config):
    """Run ``config`` over the planted corpus; returns aggregate.json and each utterance's log."""
    adapter, entries = planted
    monkeypatch.setattr(runner, "make_adapter", lambda config: adapter)
    session = SessionConfig(**config)
    run_eval(entries, session, out_dir=tmp_path)
    run_dir = tmp_path / session.run_id
    record = json.loads((run_dir / "aggregate.json").read_text(encoding="utf-8"))
    logs = [read_emission_log(run_dir / f"{entry.id}.jsonl") for entry in entries]
    return record, logs


def _starts_word(token: int) -> bool:
    return PLANTED_VOCAB.piece(token).startswith(BOUNDARY_MARKER)


def _steps(planted: Planted, chunk_ms: float) -> list[tuple[int, float]]:
    """(encoder length, delivered seconds) of each step of a session."""
    chunk = max(1, round(chunk_ms / FRAME_SHIFT_MS))
    positions = [min(p, planted.num_frames) for p in range(chunk, planted.num_frames + chunk, chunk)]
    return [(-(-p // 4), p * FRAME_SHIFT_MS / 1000.0) for p in positions]


def _commit_times(planted: Planted, chunk_ms: float, lag: int, steps_late: int) -> list[float]:
    """When token i commits: ``steps_late`` steps after the first step with
    n > max(a_j for j <= i) + lag, and at the latest on the final flush."""
    steps = _steps(planted, chunk_ms)
    seen = np.maximum.accumulate(planted.frames)
    times = []
    for reach in seen:
        first = next((s for s, (n, _) in enumerate(steps) if n > reach + lag), len(steps) - 1)
        times.append(steps[min(first + steps_late, len(steps) - 1)][1])
    return times


def _waitk_commit_times(planted: Planted, chunk_ms: float, k: int) -> list[float]:
    """When token i commits under wait-k: at the first step with n > max(a_j for j <= i)
    and at least k + (index of token i's word) detected source words, else on the final flush."""
    steps = _steps(planted, chunk_ms)
    seen = np.maximum.accumulate(planted.frames)
    # -1 for a leading continuation piece, which belongs to no word
    word = np.cumsum([_starts_word(t) for t in planted.tokens]) - 1
    times = []
    for reach, w in zip(seen, word):
        ready = (
            s for s, (n, _) in enumerate(steps)
            if n > reach and (w < 0 or sum(b < n for b in planted.boundaries) >= k + w)
        )
        times.append(steps[next(ready, len(steps) - 1)][1])
    return times


def _assert_scores_100(record, logs, adapter):
    assert record["num_failed"] == 0 and record["corpus_bleu"] == 100.0
    for utterance, log, p in zip(record["utterances"], logs, adapter.utterances):
        assert utterance["bleu"] == 100.0 and utterance["final_text"] == p.reference
        assert log.tokens == p.tokens  # no guess was ever committed


CHUNKS = [250.0, 400.0]


class TestAlignAtt:
    @pytest.mark.parametrize("chunk_ms", CHUNKS)
    @pytest.mark.parametrize("f", [1, 2, 4])
    def test_commits_each_token_once_its_states_are_f_old(self, planted, tmp_path, monkeypatch, f, chunk_ms):
        record, logs = _evaluate(planted, tmp_path, monkeypatch, policy="alignatt", f=f, chunk_ms=chunk_ms)
        adapter, _ = planted
        _assert_scores_100(record, logs, adapter)
        for log, p in zip(logs, adapter.utterances):
            assert [e.ideal_s for e in log.events] == _commit_times(p, chunk_ms, lag=f, steps_late=0)
            assert all(e.wall_s == e.ideal_s for e in log.events)


class TestEDAtt:
    @pytest.mark.parametrize("chunk_ms", CHUNKS)
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("f", [1, 2, 4])
    def test_commits_what_alignatt_commits(self, planted, tmp_path, monkeypatch, f, alpha, chunk_ms):
        _, alignatt = _evaluate(planted, tmp_path, monkeypatch, policy="alignatt", f=f, chunk_ms=chunk_ms)
        record, edatt = _evaluate(
            planted, tmp_path, monkeypatch, policy="edatt", alpha=alpha, lam=f, chunk_ms=chunk_ms
        )
        assert edatt == alignatt
        assert record["corpus_bleu"] == 100.0


class TestLocalAgreement:
    @pytest.mark.parametrize("t_s_ms", CHUNKS)
    def test_never_commits_a_guess(self, planted, tmp_path, monkeypatch, t_s_ms):
        record, logs = _evaluate(planted, tmp_path, monkeypatch, policy="local_agreement", t_s_ms=t_s_ms)
        adapter, _ = planted
        _assert_scores_100(record, logs, adapter)
        for log, p in zip(logs, adapter.utterances):
            assert [e.ideal_s for e in log.events] == _commit_times(p, t_s_ms, lag=0, steps_late=1)


class TestPlantedAdapter:
    def test_decodes_the_arrived_reference_then_guesses(self):
        a, b, c = PLANTED_WORDS[:3]
        adapter = PlantedAdapter([Planted(tokens=(a, b, c), frames=(1, 4, 2), boundaries=(0, 3), num_frames=24)])
        frames = adapter.source(0).frames

        def decode(num_frames, prefix=(), max_new=128):
            result = adapter.decode_greedy(adapter.encode(frames[:num_frames]), prefix, max_new)
            aligned = [int(np.flatnonzero(row)[0]) for row in result.attention[1, 1]]
            assert (result.attention.sum(axis=3) == 1.0).all()
            return result.tokens, aligned, result.eos_reached

        # n = 2: b's state 4 has not arrived, so the guess follows a
        assert decode(8) == ((a, guess_id(2)), [1, 1], False)
        assert decode(20) == ((a, b, c, guess_id(5)), [1, 4, 2, 4], False)
        assert decode(24) == ((a, b, c), [1, 4, 2], True)
        assert decode(24, max_new=1) == ((a,), [1], False)
        # off the reference only the guess follows
        assert decode(20, prefix=(guess_id(2),)) == ((guess_id(2), guess_id(5)), [4, 4], False)
        assert [adapter.count_source_words(frames[:t]) for t in (4, 8, 16, 24)] == [1, 1, 2, 2]


class TestWaitK:
    @pytest.mark.parametrize("chunk_ms", CHUNKS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_commits_each_word_once_k_more_source_words_are_detected(
        self, planted, tmp_path, monkeypatch, k, chunk_ms
    ):
        record, logs = _evaluate(planted, tmp_path, monkeypatch, policy="waitk", k=k, chunk_ms=chunk_ms)
        adapter, _ = planted
        _assert_scores_100(record, logs, adapter)
        for log, p in zip(logs, adapter.utterances):
            assert [e.ideal_s for e in log.events] == _waitk_commit_times(p, chunk_ms, k)

    def test_leading_continuation_needs_no_budget(self, tmp_path, monkeypatch):
        # the seeded corpus opens no utterance with a continuation piece
        s, w0, w1 = piece_id(PLANTED_VOCAB, "s"), *PLANTED_WORDS[:2]
        p = Planted(tokens=(s, w0, w1), frames=(0, 2, 5), boundaries=(20, 30, 40), num_frames=200)
        adapter = PlantedAdapter([p])
        record, logs = _evaluate(
            (adapter, adapter.manifest(tmp_path)), tmp_path, monkeypatch, policy="waitk", k=2, chunk_ms=100.0
        )
        _assert_scores_100(record, logs, adapter)
        times = [e.ideal_s for e in logs[0].events]
        # "s" commits on the first step, with no source word detected yet; "▁w0" waits for
        # two (n > 30), "▁w1" for three (n > 40)
        assert times == _waitk_commit_times(p, 100.0, k=2) == [0.1, 1.3, 1.7]


def _lagging(delays: list[float], duration: float, length: int) -> float:
    """Average lagging over the words up to the first that reaches the source end."""
    tau = next((i + 1 for i, d in enumerate(delays) if d >= duration), len(delays))
    return sum(delays[i] - i * duration / length for i in range(tau)) / tau


# Each policy's config and the closed-form commit times of an utterance's tokens.
CLOSED_FORMS = {
    "alignatt": (dict(policy="alignatt", f=2), partial(_commit_times, lag=2, steps_late=0)),
    "edatt": (dict(policy="edatt", alpha=0.5, lam=2), partial(_commit_times, lag=2, steps_late=0)),
    "waitk": (dict(policy="waitk", k=2), partial(_waitk_commit_times, k=2)),
    "local_agreement": (dict(policy="local_agreement"), partial(_commit_times, lag=0, steps_late=1)),
}


class TestLagging:
    @pytest.mark.parametrize("chunk_ms", CHUNKS)
    @pytest.mark.parametrize("policy", sorted(CLOSED_FORMS))
    def test_al_and_laal_are_those_of_the_closed_form_delays(
        self, planted, tmp_path, monkeypatch, policy, chunk_ms
    ):
        config, commit_times = CLOSED_FORMS[policy]
        timing = {"t_s_ms": chunk_ms} if policy == "local_agreement" else {"chunk_ms": chunk_ms}
        record, _ = _evaluate(planted, tmp_path, monkeypatch, **config, **timing)
        adapter, _ = planted
        for utterance, p in zip(record["utterances"], adapter.utterances):
            times = commit_times(p, chunk_ms)
            # a word's delay is the commit time of its last piece; no guess commits,
            # so the hypothesis has the reference's words and LAAL equals AL
            starts = [i for i, t in enumerate(p.tokens) if i == 0 or _starts_word(t)]
            delays = [times[end - 1] for end in [*starts[1:], len(p.tokens)]]
            duration = p.num_frames * FRAME_SHIFT_MS / 1000.0
            assert len(delays) == len(p.reference.split())
            expected = _lagging(delays, duration, len(delays))
            assert utterance["al_s"] == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert utterance["laal_s"] == pytest.approx(expected, rel=1e-12, abs=1e-12)
