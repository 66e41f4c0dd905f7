"""Closed forms of the attention policies on planted alignments, through ``run_eval``.

``PlantedAdapter`` decodes each reference token once its planted encoder
state has arrived and guesses, attending to the newest state, past it. On it:

* AlignAtt(f), f >= 1, scores BLEU 100 and commits token i at the first step
  whose encoder length n exceeds max(a_j for j <= i) + f, or at the final
  flush;
* EDAtt(alpha, lambda = f), 0 < alpha <= 1, commits exactly what AlignAtt(f)
  commits, when it commits it;
* local agreement never commits a guess: token i commits one step after the
  first step whose n exceeds max(a_j for j <= i), or at the final flush.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from simulst import FRAME_SHIFT_MS, SessionConfig, read_emission_log, run_eval, runner

from support import PLANTED_WORDS, Planted, PlantedAdapter, guess_id


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
