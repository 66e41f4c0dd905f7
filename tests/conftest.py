"""Shared fixtures: toy models, vocabularies, synthetic evaluation suites."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from simulst import (
    FeatureMatrix,
    StopReason,
    ToyModel,
    ToyModelConfig,
    Vocabulary,
    build_default_vocabulary,
    write_features,
)
from simulst.policies import waitk_allowed
from simulst.vocab import piece_text


@pytest.fixture(scope="session")
def default_vocab() -> Vocabulary:
    return build_default_vocabulary()


@pytest.fixture(scope="session")
def toy_model(default_vocab: Vocabulary) -> ToyModel:
    return ToyModel(ToyModelConfig(seed=0), default_vocab)


@pytest.fixture(scope="session")
def sentence_vocab() -> Vocabulary:
    """Subword inventory for the worked stopping-rule example."""
    return Vocabulary(
        ["▁Ich", "▁werde", "▁heu", "te", "▁darüber", "▁über", "▁Klima", "▁sprechen"]
    )


def random_attention(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Row-stochastic (m, n) matrix."""
    raw = rng.random((m, n)) + 1e-9
    return raw / raw.sum(axis=1, keepdims=True)


def alignatt_bruteforce(alignment, n_frames: int, f: int, num_candidates: int) -> int:
    """Literal loop form of the stopping rule, used as an oracle.

    Walk the candidates in order; stop at the first one whose aligned frame
    is one of the last f frames (0-based band {n-f, ..., n-1}).
    """
    commit = 0
    for i in range(num_candidates):
        inaccessible = False
        for offset in range(1, f + 1):
            if alignment[i] == n_frames - offset:
                inaccessible = True
                break
        if inaccessible:
            break
        commit += 1
    return commit


def waitk_bruteforce(committed, candidates, k: int, source_words: int, eos_reached: bool, vocab: Vocabulary):
    """Brute-force form of the wait-k commit rule, used as an oracle.

    Words are the text the tokens write split on whitespace, with the output
    taken to start inside a word, so a leading continuation starts none.
    Commit the longest candidate prefix that adds at most the allowed words
    and ends no word early: whitespace comes right before or after it, or it
    is every candidate at end-of-sequence. Returns (commit count, stop reason).
    """

    def text(tokens) -> str:
        return "".join(piece_text(vocab.piece(t)) for t in tokens)

    def words(tokens) -> int:
        return len(("x" + text(tokens)).split()) - 1

    allowed = waitk_allowed(k, source_words, words(committed))

    def fits(c: int) -> bool:
        head, rest = "x" + text([*committed, *candidates[:c]]), text(candidates[c:])
        ends = head[-1].isspace() or (rest[0].isspace() if rest else eos_reached)
        return ends and words([*committed, *candidates[:c]]) - words(committed) <= allowed

    commit = max((c for c in range(len(candidates) + 1) if fits(c)), default=0)
    if commit < len(candidates):
        return commit, StopReason.SCHEDULE
    return commit, StopReason.EXHAUSTED


def make_source(rng: np.random.Generator, num_frames: int) -> FeatureMatrix:
    return FeatureMatrix(frames=rng.normal(size=(num_frames, 80)).astype(np.float32))


def build_suite(
    directory: Path,
    num_utterances: int,
    seed: int = 2024,
    min_frames: int = 150,
    max_frames: int = 450,
) -> Path:
    """Write a synthetic manifest: random feature files with references from
    the seed-0 toy model's offline (full-source) decode.

    Returns the manifest path.
    """
    directory.mkdir(parents=True, exist_ok=True)
    vocab = build_default_vocabulary()
    model = ToyModel(ToyModelConfig(seed=0), vocab)
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(num_utterances):
        frames = int(rng.integers(min_frames, max_frames))
        source = make_source(rng, frames)
        name = f"utt{i:03d}.sgfb"
        write_features(directory / name, source)
        result = model.decode_greedy(model.encode(source.frames), [], max_new=128)
        reference = vocab.detokenize(result.tokens)
        lines.append(json.dumps({"id": f"utt{i:03d}", "source": name, "reference": reference}))
    manifest = directory / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest
