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


def waitk_walk(candidates, allowed: int, eos_reached: bool, vocab: Vocabulary):
    """Segment-walk form of the wait-k commit rule, used as an oracle.

    Split the candidates into words and commit complete words in order while
    the budget of ``allowed`` words lasts. A leading continuation extends the
    last committed word and costs no budget; the last word is complete only
    at end-of-sequence. Returns (commit count, stop reason).
    """
    if not candidates:
        return 0, StopReason.EXHAUSTED

    # segment candidates into words; segment 0 may be a continuation of
    # the previously committed word and consumes no word budget
    starts = [i for i, t in enumerate(candidates) if vocab.is_word_start(t)]
    boundaries = ([0] if not starts or starts[0] != 0 else []) + starts
    segments = [
        candidates[b:e]
        for b, e in zip(boundaries, boundaries[1:] + [len(candidates)])
    ]
    glue = 0 if (starts and starts[0] == 0) else 1  # segments costing no budget

    commit = 0
    words_taken = 0
    for idx, seg in enumerate(segments):
        complete = idx < len(segments) - 1 or eos_reached
        if not complete:
            break
        if idx >= glue:
            if words_taken >= allowed:
                break
            words_taken += 1
        commit += len(seg)
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
