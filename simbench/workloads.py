"""Seeded synthetic inputs, the operations each workload repeats, and output checks.

Inputs follow the recipe of the test suite's synthetic corpus: random
80-dimensional feature frames written as ``.sgfb`` files, with references
taken from the seed-0 ``ToyModel`` decode of the full source. This module
keeps its own copy of that recipe so the benchmark does not depend on the
test tree.

Every operation is one call into the public batch entry points
(``simulst.runner.run_eval`` or ``simulst.runner.sweep``). They are looked
up on the ``runner`` module at call time, so the traced run's timing
wrappers see the calls the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from simulst import (
    FeatureMatrix,
    SessionConfig,
    ToyModel,
    ToyModelConfig,
    build_default_vocabulary,
    load_manifest,
    read_features,
    runner,
    write_features,
)
from simulst.manifest import ManifestEntry
from simulst.runner import EvalResult

CHUNK_MS = 250.0
# Declared compute cost per adapter call on the simulated clock; it makes the
# computation-aware delays depend on the adapter call pattern.
STEP_COST_S = 0.05
FEATURE_DIM = 80
WARMUP_FRAMES = 200
WAITK_GRID = (2, 4, 6)


def _config(policy: str, **hyper) -> SessionConfig:
    return SessionConfig(policy=policy, chunk_ms=CHUNK_MS, step_cost_s=STEP_COST_S, **hyper)


ALIGNATT = _config("alignatt", f=4)
EDATT = _config("edatt", alpha=0.6)
WAITK = _config("waitk", k=3)
LOCAL_AGREEMENT = _config("local_agreement", t_s_ms=250.0)


@dataclass(frozen=True)
class WorkloadSpec:
    """Corpus shape and the configurations run over it, one operation each."""

    tag: int  # mixed into the seed so workloads draw independent inputs
    utterances: int
    min_frames: int
    max_frames: int  # inclusive
    configs: tuple[SessionConfig, ...]
    sweep: bool = False


WORKLOADS = {
    # Many short sessions: fixed per-session costs (adapter construction,
    # feature loading, log writing, metrics) are a visible share.
    "short_suite": WorkloadSpec(1, 48, 100, 300, (ALIGNATT, EDATT, WAITK, LOCAL_AGREEMENT)),
    # A wait-k sweep: the decoder mostly generates tokens that are thrown
    # away, and each step runs a second encode to count source words, so it
    # uses the model the opposite way to the prefill-heavy short sessions.
    "waitk_sweep": WorkloadSpec(3, 20, 150, 450, (WAITK,), sweep=True),
}


def _write_corpus(directory: Path, name: str, frame_counts, rng, model, vocab) -> Path:
    lines = []
    for i, frames in enumerate(frame_counts):
        utt = f"{name}{i:03d}"
        source = FeatureMatrix(frames=rng.normal(size=(frames, FEATURE_DIM)).astype(np.float32))
        write_features(directory / f"{utt}.sgfb", source)
        result = model.decode_greedy(model.encode(source.frames), [], max_new=128)
        reference = vocab.detokenize(result.tokens)
        lines.append(json.dumps({"id": utt, "source": f"{utt}.sgfb", "reference": reference}))
    manifest = directory / f"{name}.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def generate_inputs(workload: str, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write the workload's corpus and a one-utterance warm-up corpus.

    Returns ``(manifest, warmup_manifest)``. The same seed writes the same
    bytes.
    """
    spec = WORKLOADS[workload]
    directory.mkdir(parents=True, exist_ok=True)
    vocab = build_default_vocabulary()
    model = ToyModel(ToyModelConfig(seed=0), vocab)
    rng = np.random.default_rng([seed, spec.tag])
    # Lengths are evenly spaced over the range and shuffled: the seed draws
    # the order and the frames, so every seed evaluates the same audio length.
    grid = np.linspace(spec.min_frames, spec.max_frames, spec.utterances).round().astype(int)
    frame_counts = [int(n) for n in rng.permutation(grid)]
    manifest = _write_corpus(directory, "utt", frame_counts, rng, model, vocab)
    warmup = _write_corpus(directory, "warmup", [WARMUP_FRAMES], rng, model, vocab)
    return manifest, warmup


def warm_up(workload: str, warmup_manifest: Path, out_dir: Path) -> None:
    """One untimed session under the workload's first configuration."""
    runner.run_eval(load_manifest(warmup_manifest), WORKLOADS[workload].configs[0], out_dir=out_dir)


@dataclass(frozen=True)
class Operation:
    """One timed call into the batch entry points."""

    name: str
    sessions: int
    audio_s: float
    call: Callable[[Path], list[EvalResult]]


def _source_seconds(entries: list[ManifestEntry]) -> float:
    return sum(read_features(entry.source).duration_s for entry in entries)


def operations(workload: str, manifest: Path) -> list[Operation]:
    spec = WORKLOADS[workload]
    entries = load_manifest(manifest)
    audio_s = _source_seconds(entries)
    if spec.sweep:
        base = spec.configs[0]

        def run_sweep(out_dir: Path) -> list[EvalResult]:
            rows, evaluations = runner.sweep(entries, base, WAITK_GRID, out_dir=out_dir)
            runner.write_curve_csv(out_dir / "curve.csv", rows)
            return evaluations

        n = len(WAITK_GRID)
        return [Operation("waitk_sweep", n * len(entries), n * audio_s, run_sweep)]

    def evaluate(config: SessionConfig) -> Callable[[Path], list[EvalResult]]:
        return lambda out_dir: [runner.run_eval(entries, config, out_dir=out_dir)]

    return [
        Operation(config.policy, len(entries), audio_s, evaluate(config))
        for config in spec.configs
    ]


# ------------------------------------------------------------------ checks

def invariant_violations(evaluation: EvalResult, vocab) -> int:
    """Sessions whose log breaks a simulator invariant.

    Each event must have ``wall_s >= ideal_s``, both delays must never
    decrease, and the final text must be the detokenized committed tokens.
    """
    bad = 0
    for result in evaluation.results:
        log = result.log
        if log is None:
            continue
        ideal = [e.ideal_s for e in log.events]
        wall = [e.wall_s for e in log.events]
        ok = (
            all(w >= i for i, w in zip(ideal, wall))
            and all(a <= b for a, b in zip(ideal, ideal[1:]))
            and all(a <= b for a, b in zip(wall, wall[1:]))
            and log.final_text == vocab.detokenize(log.tokens)
        )
        bad += not ok
    return bad


def output_digest(out_dir: Path) -> str:
    """SHA-256 over every file an operation wrote, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
