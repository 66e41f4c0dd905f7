"""Tests of the benchmark itself: inputs, proxies, call counts and metric names.

Run from the repository root with ``python3 -m pytest simbench``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import workloads  # noqa: E402
from simulst import (  # noqa: E402
    ModelAdapter,
    ToyModel,
    ToyModelConfig,
    build_default_vocabulary,
    load_manifest,
    read_features,
    run_session,
    runner,
    simulator,
)
from tracer import (  # noqa: E402
    ProxyAdapter,
    ProxyPolicy,
    Tracer,
    installed,
    layer_metrics,
    root_seconds,
    self_times,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONFIGS = (workloads.ALIGNATT, workloads.EDATT, workloads.WAITK, workloads.LOCAL_AGREEMENT)
# The cut corpora below have no recorded digests, so checkers use a seed without any.
UNRECORDED_SEED = bench.RECORDED_SEEDS.stop


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory) -> Path:
    """The short-suite recipe cut to four utterances."""
    directory = tmp_path_factory.mktemp("corpus")
    manifest, _ = workloads.generate_inputs("short_suite", 7, directory)
    lines = manifest.read_text(encoding="utf-8").splitlines()[:4]
    small = directory / "small.jsonl"
    small.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return small


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(tmp_path, workload):
    workloads.generate_inputs(workload, 3, tmp_path / "a")
    workloads.generate_inputs(workload, 3, tmp_path / "b")
    workloads.generate_inputs(workload, 4, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_inputs_follow_the_workload_shape(tmp_path):
    spec = workloads.WORKLOADS["waitk_sweep"]
    manifest, warmup = workloads.generate_inputs("waitk_sweep", 0, tmp_path)
    entries = load_manifest(manifest)
    assert len(entries) == spec.utterances
    for entry in entries:
        assert spec.min_frames <= read_features(entry.source).num_frames <= spec.max_frames
        assert entry.reference
    assert len(load_manifest(warmup)) == 1


def test_proxy_adapter_forwards_exactly():
    vocab = build_default_vocabulary()
    model = ToyModel(ToyModelConfig(seed=0), vocab)
    proxy = ProxyAdapter(model, Tracer())
    assert isinstance(proxy, ModelAdapter)
    assert (proxy.num_decoder_layers, proxy.num_heads, proxy.vocab) == (
        model.num_decoder_layers, model.num_heads, model.vocab
    )
    frames = np.random.default_rng(0).normal(size=(120, 80)).astype(np.float32)
    enc, proxied_enc = model.encode(frames), proxy.encode(frames)
    assert np.array_equal(enc.states, proxied_enc.states) and enc.version == proxied_enc.version
    prefix = list(model.decode_greedy(enc, [], max_new=3).tokens)
    want = model.decode_greedy(enc, prefix, max_new=5)
    got = proxy.decode_greedy(enc, forced_prefix=prefix, max_new=5)
    assert got.tokens == want.tokens and got.eos_reached == want.eos_reached
    assert np.array_equal(got.attention, want.attention)
    assert proxy.count_source_words(frames) == model.count_source_words(frames)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.policy)
def test_proxies_leave_the_session_unchanged(small_corpus, config):
    source = read_features(load_manifest(small_corpus)[0].source)
    model = ToyModel(ToyModelConfig(seed=0), build_default_vocabulary())
    kwargs = dict(chunk_ms=config.effective_chunk_ms, step_cost_s=config.step_cost_s)
    plain = run_session(source, model, config.make_policy(), **kwargs)
    tracer = Tracer()
    proxied = run_session(
        source, ProxyAdapter(model, tracer), ProxyPolicy(config.make_policy(), tracer), **kwargs
    )
    assert proxied == plain
    decisions = sum(1 for span in tracer.spans if span[0] == "policies.decide")
    assert decisions > 0


def test_installed_restores_module_attributes(small_corpus, tmp_path):
    before = {name: getattr(runner, name) for name in vars(runner)}
    before_sim = (simulator.aggregate_attention, simulator.compute_alignment)
    with installed(Tracer()):
        assert runner.make_adapter is not before["make_adapter"]
    assert {name: getattr(runner, name) for name in vars(runner)} == before
    assert (simulator.aggregate_attention, simulator.compute_alignment) == before_sim


def test_traced_logs_are_byte_identical(small_corpus, tmp_path):
    entries = load_manifest(small_corpus)
    runner.run_eval(entries, workloads.WAITK, out_dir=tmp_path / "plain")
    with installed(Tracer()):
        runner.run_eval(entries, workloads.WAITK, out_dir=tmp_path / "traced")
    assert workloads.output_digest(tmp_path / "plain") == workloads.output_digest(tmp_path / "traced")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.policy)
def test_per_session_call_counts(small_corpus, tmp_path, config):
    entries = load_manifest(small_corpus)
    tracer = Tracer()
    with installed(tracer):
        evaluation = runner.run_eval(entries, config, out_dir=tmp_path)
    assert evaluation.num_failed == 0
    chunk = round(config.effective_chunk_ms / 10.0)
    for session, entry in enumerate(entries):
        steps = math.ceil(read_features(entry.source).num_frames / chunk)
        names = [span[0] for span in tracer.spans if span[4] == session]
        assert names.count("model.encode") == names.count("model.decode") == steps
        expected_counts = steps - 1 if config.policy == "waitk" else 0
        assert names.count("model.count_words") == expected_counts
        assert names.count("policies.decide") == steps - 1
        assert names.count("simulator.session") == 1
    metrics = layer_metrics(tracer, passes=1)
    assert metrics["simulator.sessions"][0] == len(entries)
    assert metrics["policies.decide.calls"][0] == sum(s[0] == "policies.decide" for s in tracer.spans)
    # Self times partition the time of the root spans.
    assert sum(self_times(tracer.spans)) == pytest.approx(root_seconds(tracer.spans), rel=1e-9)


def test_checker_counts_failed_sessions(small_corpus, tmp_path, monkeypatch):
    """An adapter that breaks the contract turns every session into a failure."""

    class WrongSignature(ProxyAdapter):
        def decode_greedy(self, enc, prefix):  # no max_new keyword
            return super().decode_greedy(enc, prefix)

    real = runner.make_adapter
    monkeypatch.setattr(runner, "make_adapter", lambda config: WrongSignature(real(config), Tracer()))
    (op,) = [op for op in workloads.operations("short_suite", small_corpus) if op.name == "edatt"]
    checker = bench.Checker("short_suite", UNRECORDED_SEED)
    out_dir = workloads.fresh_dir(tmp_path / "out")
    checker.check(op, op.call(out_dir), out_dir)
    assert checker.attempted == checker.failed == op.sessions


def test_checker_fails_an_operation_whose_outputs_change(small_corpus, tmp_path):
    (op,) = [op for op in workloads.operations("short_suite", small_corpus) if op.name == "alignatt"]
    checker = bench.Checker("short_suite", UNRECORDED_SEED)
    out_dir = workloads.fresh_dir(tmp_path / "out")
    checker.check(op, op.call(out_dir), out_dir)
    assert checker.failed == 0
    evaluations = op.call(workloads.fresh_dir(out_dir))
    next(out_dir.rglob("*.jsonl")).write_text("{}\n", encoding="utf-8")
    checker.check(op, evaluations, out_dir)
    assert checker.failed == op.sessions and checker.mismatches == ["alignatt"]


def test_digests_are_recorded_for_every_workload_and_seed():
    recorded = json.loads(bench.EXPECTED_DIGESTS.read_text(encoding="utf-8"))
    assert set(recorded) == set(workloads.WORKLOADS)
    for workload, by_seed in recorded.items():
        spec = workloads.WORKLOADS[workload]
        names = {workload} if spec.sweep else {config.policy for config in spec.configs}
        assert set(by_seed) == {str(seed) for seed in bench.RECORDED_SEEDS}
        assert all(set(digests) == names for digests in by_seed.values())


def test_metric_names_match_benchmark_json(small_corpus, tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

    tracer = Tracer()
    with installed(tracer):
        runner.run_eval(load_manifest(small_corpus), workloads.ALIGNATT, out_dir=tmp_path)
    traced = set(layer_metrics(tracer, passes=1)) | set(bench.TRACE_METRICS)
    assert traced == {m["name"] for m in spec["per_layer"]}
    assert set(bench.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
