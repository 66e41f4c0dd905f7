"""``run_session`` and ``run_eval`` against ``support.reference_session``, a second statement of the rules.

The simulator pulls each decode token by token and stops it where the
policy's stop rule fires; the reference decodes every step in full and
applies each rule as the README states it. Their commits, with both
timestamps, must be equal.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import (
    AlignAttPolicy,
    EDAttPolicy,
    FeatureMatrix,
    LocalAgreementPolicy,
    SessionConfig,
    ToyModel,
    ToyModelConfig,
    WaitKPolicy,
    load_manifest,
    load_source_features,
    make_adapter,
    run_eval,
    run_session,
)

from conftest import build_suite
from support import reference_session


@lru_cache(maxsize=None)
def _model(layers: int, heads: int, seed: int) -> ToyModel:
    return ToyModel(ToyModelConfig(num_decoder_layers=layers, num_heads=heads, seed=seed))


def _commits(log) -> list[tuple[int, float, float]]:
    return [(e.token, e.ideal_s, e.wall_s) for e in log.events]


@settings(max_examples=20, deadline=None)
@given(
    model=st.builds(_model, st.integers(1, 4), st.sampled_from([1, 2, 4]), st.integers(0, 3)),
    source_seed=st.integers(0, 2**16),
    num_frames=st.integers(1, 120),
    chunk_ms=st.integers(4, 60).map(lambda frames: frames * 10.0),
    step_cost_s=st.sampled_from([0.0, 0.01, 0.05]),
    max_new=st.sampled_from([1, 2, 5, 128]),
    f=st.integers(1, 8),
    alpha=st.floats(0.05, 1.0),
    lam=st.integers(1, 4),
    k=st.integers(1, 5),
)
def test_run_session_commits_what_the_reference_does(
    model, source_seed, num_frames, chunk_ms, step_cost_s, max_new, f, alpha, lam, k
):
    rng = np.random.default_rng(source_seed)
    source = FeatureMatrix(rng.normal(size=(num_frames, 80)).astype(np.float32))
    for name, policy, knobs in (
        ("alignatt", AlignAttPolicy(f), {"f": f}),
        ("edatt", EDAttPolicy(alpha, lam), {"alpha": alpha, "lam": lam}),
        ("waitk", WaitKPolicy(k), {"k": k}),
        ("local_agreement", LocalAgreementPolicy(), {}),
    ):
        log = run_session(source, model, policy, chunk_ms=chunk_ms, step_cost_s=step_cost_s, max_new=max_new)
        expected = reference_session(
            source, model, name, chunk_ms=chunk_ms, step_cost_s=step_cost_s, max_new=max_new, **knobs
        )
        assert _commits(log) == expected, name


def test_run_eval_commits_what_the_reference_does(tmp_path):
    # sessions run in forked workers when more than one CPU is available
    entries = load_manifest(build_suite(tmp_path, 4, seed=11, min_frames=60, max_frames=160))
    for config, knobs in (
        (SessionConfig(policy="alignatt", f=3, chunk_ms=250.0, step_cost_s=0.02), {"f": 3}),
        (SessionConfig(policy="edatt", alpha=0.3, chunk_ms=200.0), {"alpha": 0.3, "lam": 2}),
        (SessionConfig(policy="waitk", k=2, chunk_ms=150.0, step_cost_s=0.01), {"k": 2}),
        (SessionConfig(policy="local_agreement", t_s_ms=300.0, max_new=6), {}),
    ):
        evaluation = run_eval(entries, config)
        model = make_adapter(config)
        for entry, result in zip(entries, evaluation.results):
            expected = reference_session(
                load_source_features(entry.source),
                model,
                config.policy,
                chunk_ms=config.effective_chunk_ms,
                step_cost_s=config.step_cost_s,
                max_new=config.max_new,
                **knobs,
            )
            assert _commits(result.log) == expected, (config.policy, entry.id)
