"""Batch evaluation over manifests: aggregation, failures, sweeps, CSV."""

import concurrent.futures
import dataclasses
import gc
import json
import math
import multiprocessing
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time
import types
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from simulst import (
    AlignAttPolicy,
    ConfigError,
    PolicyDecision,
    SessionConfig,
    StopReason,
    ToyModel,
    ToyModelConfig,
    build_default_vocabulary,
    load_manifest,
    read_emission_log,
    read_features,
    run_eval,
    runner,
    sweep,
)
from simulst.runner import (
    CURVE_HEADER,
    CurveRow,
    make_adapter,
    write_curve_csv,
)

from conftest import build_suite
from support import FaultyAdapter


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    manifest = build_suite(
        tmp_path_factory.mktemp("suite"), num_utterances=3, min_frames=80, max_frames=160
    )
    return load_manifest(manifest)


ALIGNATT4 = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)


def _tree(root):
    """Every path under ``root``, relative, mapped to its bytes, or to None for a directory."""
    return {
        path.relative_to(root).as_posix(): None if path.is_dir() else path.read_bytes()
        for path in root.rglob("*")
    }


def _with_frame_shift(feature_file: bytes, shift_ms: float) -> bytes:
    """The feature file with the header's frame shift replaced."""
    blob = bytearray(feature_file)
    struct.pack_into("<f", blob, 16, shift_ms)
    return bytes(blob)


class TestMakeAdapter:
    def test_toy_adapter_uses_config_seed(self):
        adapter = make_adapter(SessionConfig(policy="alignatt", f=2, seed=3))
        assert isinstance(adapter, ToyModel)
        assert adapter.config.seed == 3

    def test_unknown_adapter(self):
        with pytest.raises(ConfigError, match="unknown adapter"):
            make_adapter(SessionConfig(policy="alignatt", f=2, adapter="prod"))


class TestRunEval:
    def test_results_follow_manifest_order(self, small_suite):
        evaluation = run_eval(small_suite, ALIGNATT4)
        assert [r.id for r in evaluation.results] == [e.id for e in small_suite]
        assert evaluation.num_failed == 0
        assert not math.isnan(evaluation.corpus_bleu)
        assert not math.isnan(evaluation.mean_latency.laal_s)
        for result in evaluation.results:
            assert result.log is not None
            assert result.latency is not None
            assert result.bleu is not None

    def test_references_reproduced_offline_score_high(self, small_suite):
        # the suite's references are the same model's full-source decodes, so
        # a late-committing policy should land near them
        evaluation = run_eval(
            small_suite, SessionConfig(policy="alignatt", f=30, chunk_ms=500.0)
        )
        assert evaluation.corpus_bleu > 50.0

    def test_writes_logs_and_aggregate(self, small_suite, tmp_path):
        evaluation = run_eval(small_suite, ALIGNATT4, out_dir=tmp_path)
        run_dir = tmp_path / ALIGNATT4.run_id
        for entry in small_suite:
            assert (run_dir / f"{entry.id}.jsonl").exists()
        record = json.loads((run_dir / "aggregate.json").read_text(encoding="utf-8"))
        assert record["run_id"] == ALIGNATT4.run_id
        assert record["num_utterances"] == 3
        assert record["num_failed"] == 0
        assert record["corpus_bleu"] == pytest.approx(evaluation.corpus_bleu)
        assert len(record["utterances"]) == 3

    def test_missing_source_recorded_not_raised(self, small_suite, tmp_path):
        broken = [
            dataclasses.replace(small_suite[0], source=tmp_path / "gone.sgfb"),
            *small_suite[1:],
        ]
        evaluation = run_eval(broken, ALIGNATT4, out_dir=tmp_path)
        assert evaluation.num_failed == 1
        assert evaluation.results[0].failed
        assert "source unreadable" in evaluation.results[0].error
        assert not evaluation.results[1].failed
        record = json.loads(
            (tmp_path / ALIGNATT4.run_id / "aggregate.json").read_text(encoding="utf-8")
        )
        assert record["failed_ids"] == [broken[0].id]
        # the failed utterance's log is its error alone; it adds no pooled counts
        path = tmp_path / ALIGNATT4.run_id / f"{broken[0].id}.jsonl"
        error = evaluation.results[0].error
        assert path.read_text(encoding="utf-8") == json.dumps({"error": error}) + "\n"
        assert record["corpus_bleu"] is not None

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("riff_only.wav", lambda good: b"RIFF"),
            ("no_chunks.wav", lambda good: b"RIFF\x08\x00\x00\x00WAVEJUNK"),
            ("shift_zero.sgfb", lambda good: _with_frame_shift(good, 0.0)),
            ("shift_negative.sgfb", lambda good: _with_frame_shift(good, -10.0)),
            ("shift_nan.sgfb", lambda good: _with_frame_shift(good, math.nan)),
        ],
        ids=["riff_only", "no_chunks", "shift_zero", "shift_negative", "shift_nan"],
    )
    def test_malformed_source_fails_only_its_utterance(self, small_suite, tmp_path, name, corrupt):
        bad = tmp_path / name
        bad.write_bytes(corrupt(small_suite[1].source.read_bytes()))
        entries = [small_suite[0], dataclasses.replace(small_suite[1], source=bad)]
        evaluation = run_eval(entries, ALIGNATT4, out_dir=tmp_path)
        assert not evaluation.results[0].failed
        assert evaluation.results[1].error.startswith(f"source unreadable: {bad}")
        run_dir = tmp_path / ALIGNATT4.run_id
        assert read_emission_log(run_dir / f"{entries[0].id}.jsonl") == evaluation.results[0].log
        record = json.loads((run_dir / "aggregate.json").read_text(encoding="utf-8"))
        assert record["failed_ids"] == [entries[1].id]

    def test_real_clock_counts_compute_after_arrival(self, small_suite):
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0, clock="real")
        evaluation = run_eval(small_suite, config)
        events = [e for r in evaluation.results for e in r.log.events]
        assert all(e.wall_s >= e.ideal_s for e in events)
        assert any(e.wall_s > e.ideal_s for e in events)
        assert evaluation.mean_latency.laal_ca_s > evaluation.mean_latency.laal_s

    def test_failed_session_log_keeps_its_commits_and_error(self, small_suite, tmp_path, monkeypatch):
        class FailsThirdStep(AlignAttPolicy):
            steps = 0

            def decide(self, ctx):
                self.steps += 1
                if self.steps == 3:
                    raise IndexError("alignment index out of range")
                return PolicyDecision(len(ctx.candidates), StopReason.EXHAUSTED)

        monkeypatch.setattr(SessionConfig, "make_policy", lambda config: FailsThirdStep(config.f))
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=250.0)
        evaluation = run_eval(small_suite[:1], config, out_dir=tmp_path)
        error = evaluation.results[0].error
        assert "policy failed" in error
        path = tmp_path / config.run_id / f"{small_suite[0].id}.jsonl"
        *events, summary = map(json.loads, path.read_text(encoding="utf-8").splitlines())
        assert events and all(set(e) == {"token", "text", "ideal_s", "wall_s"} for e in events)
        assert summary["error"] == error and summary["source_duration_s"] > 0
        with pytest.raises(ValueError) as info:
            read_emission_log(path)
        assert str(info.value) == error

    def test_overflowing_clock_fails_each_utterance_and_writes_no_infinity(
        self, small_suite, tmp_path
    ):
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0, step_cost_s=1e308)
        evaluation = run_eval(small_suite, config, out_dir=tmp_path)
        assert all("SimulatedClock read inf" in r.error for r in evaluation.results)
        for path in (tmp_path / config.run_id).iterdir():
            assert "Infinity" not in path.read_text(encoding="utf-8")

    def test_all_failed_gives_null_aggregates(self, small_suite, tmp_path):
        broken = [
            dataclasses.replace(e, source=tmp_path / f"none_{i}.sgfb")
            for i, e in enumerate(small_suite)
        ]
        evaluation = run_eval(broken, ALIGNATT4, out_dir=tmp_path)
        assert evaluation.num_failed == 3
        assert math.isnan(evaluation.corpus_bleu)
        record = json.loads(
            (tmp_path / ALIGNATT4.run_id / "aggregate.json").read_text(encoding="utf-8")
        )
        assert record["corpus_bleu"] is None
        assert record["mean_laal_s"] is None

    def test_empty_manifest_rejected(self):
        with pytest.raises(ConfigError, match="manifest is empty"):
            run_eval([], ALIGNATT4)

    def test_one_adapter_per_run_shared_across_sessions(self, small_suite, tmp_path, monkeypatch):
        built = []

        def counting_make_adapter(config):
            built.append(config.run_id)
            return make_adapter(config)

        monkeypatch.setattr(runner, "make_adapter", counting_make_adapter)
        for run in ("a", "b"):
            run_eval(small_suite, ALIGNATT4, out_dir=tmp_path / run)
        assert built == [ALIGNATT4.run_id, ALIGNATT4.run_id]
        for name in [f"{e.id}.jsonl" for e in small_suite] + ["aggregate.json"]:
            first = (tmp_path / "a" / ALIGNATT4.run_id / name).read_bytes()
            second = (tmp_path / "b" / ALIGNATT4.run_id / name).read_bytes()
            assert first == second, name

    def test_word_count_failure_fails_only_its_utterance(self, small_suite, monkeypatch):
        doomed = read_features(small_suite[1].source).frames[0]

        class WordCountFails(ToyModel):
            """Like a scripted adapter without a step for one source's prefixes."""

            def count_source_words(self, raw_features):
                if np.array_equal(raw_features[0], doomed):
                    raise KeyError("no scripted step")
                return super().count_source_words(raw_features)

        monkeypatch.setattr(runner, "make_adapter", lambda config: WordCountFails())
        config = SessionConfig(policy="waitk", k=2, chunk_ms=500.0)
        evaluation = run_eval(small_suite, config)
        assert [r.failed for r in evaluation.results] == [False, True, False]
        assert "counting words" in evaluation.results[1].error
        assert not math.isnan(evaluation.corpus_bleu)

    def test_raising_decode_end_fails_only_its_utterance(self, small_suite, tmp_path, monkeypatch):
        # the first session's first decode to end raises on reading its end; the adapter is not
        # forkable, so the sessions run in manifest order in this process
        honest = run_eval(small_suite, ALIGNATT4, out_dir=tmp_path / "honest")
        faulty = FaultyAdapter(make_adapter(ALIGNATT4), "eos_reached", frames=1)
        monkeypatch.setattr(runner, "make_adapter", lambda config: faulty)
        evaluation = run_eval(small_suite, ALIGNATT4, out_dir=tmp_path / "faulty")
        assert [r.failed for r in evaluation.results] == [True, False, False]
        assert evaluation.results[0].error == f"adapter failed at {faulty.failed_at:.3f}s: eos_reached lost"
        assert [r.log for r in evaluation.results[1:]] == [r.log for r in honest.results[1:]]
        run_dir = tmp_path / "faulty" / ALIGNATT4.run_id
        names = [f"{e.id}.jsonl" for e in small_suite]
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(names + ["aggregate.json"])
        with pytest.raises(ValueError, match="eos_reached lost"):
            read_emission_log(run_dir / names[0])
        for name in names[1:]:
            assert (run_dir / name).read_bytes() == (tmp_path / "honest" / ALIGNATT4.run_id / name).read_bytes()

    def test_policy_failure_fails_only_its_utterance(self, small_suite, monkeypatch):
        made = []

        def make_policy(config):
            policy = AlignAttPolicy(f=config.f)
            made.append(policy)
            if len(made) == 2:
                def decide(context):
                    raise IndexError("alignment index out of range")

                policy.decide = decide
            return policy

        monkeypatch.setattr(SessionConfig, "make_policy", make_policy)
        # ``made`` counts policies in this process; a forked worker would count its own.
        monkeypatch.setattr(ToyModel, "forkable", False)
        evaluation = run_eval(small_suite[:2], ALIGNATT4)
        assert [r.failed for r in evaluation.results] == [False, True]
        assert "policy failed" in evaluation.results[1].error
        assert "IndexError" in evaluation.results[1].error
        assert not math.isnan(evaluation.corpus_bleu)

    def test_interrupted_aggregate_write_keeps_earlier_file(self, small_suite, tmp_path, monkeypatch):
        run_eval(small_suite, ALIGNATT4, out_dir=tmp_path)
        earlier = _tree(tmp_path)
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name == "aggregate.json":
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            run_eval(small_suite[:2], ALIGNATT4, out_dir=tmp_path)
        # the earlier run is whole, and the failed one left no directory behind
        assert _tree(tmp_path) == earlier

    def test_a_run_replaces_its_directory_whole(self, small_suite, tmp_path):
        # manifest B holds one utterance, under manifest A's first id but from another source
        a = small_suite[:2]
        b = [dataclasses.replace(small_suite[2], id=small_suite[0].id)]
        run_eval(a, ALIGNATT4, out_dir=tmp_path / "out")
        evaluation = run_eval(b, ALIGNATT4, out_dir=tmp_path / "out")
        run_eval(b, ALIGNATT4, out_dir=tmp_path / "fresh")
        assert _tree(tmp_path / "out") == _tree(tmp_path / "fresh")
        assert sorted(_tree(tmp_path / "out")) == [
            ALIGNATT4.run_id, f"{ALIGNATT4.run_id}/aggregate.json", f"{ALIGNATT4.run_id}/{b[0].id}.jsonl"
        ]
        record = json.loads((tmp_path / "out" / ALIGNATT4.run_id / "aggregate.json").read_text(encoding="utf-8"))
        assert record["num_utterances"] == 1 and record["utterances"][0]["final_text"] == evaluation.results[0].log.final_text

    def test_the_next_run_removes_a_killed_runs_staging(self, small_suite, tmp_path):
        # what a run killed mid-write leaves beside its run directory: its staging directory, a partial run
        out = tmp_path / "out"
        debris = out / f".{ALIGNATT4.run_id}.stale1" / "run"
        debris.mkdir(parents=True)
        (debris / "u9.jsonl").write_text("{}\n", encoding="utf-8")
        # another config's staging may belong to a run still writing, so it stays
        other = dataclasses.replace(ALIGNATT4, f=2)
        (out / f".{other.run_id}.live").mkdir()
        run_eval(small_suite[:2], ALIGNATT4, out_dir=out)
        run_eval(small_suite[:2], ALIGNATT4, out_dir=tmp_path / "fresh")
        assert sorted(path.name for path in out.iterdir()) == sorted([ALIGNATT4.run_id, f".{other.run_id}.live"])
        assert _tree(out / ALIGNATT4.run_id) == _tree(tmp_path / "fresh" / ALIGNATT4.run_id)

    def test_deterministic_outputs(self, small_suite, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_eval(small_suite, ALIGNATT4, out_dir=a_dir)
        run_eval(small_suite, ALIGNATT4, out_dir=b_dir)
        for name in [f"{e.id}.jsonl" for e in small_suite] + ["aggregate.json"]:
            a = (a_dir / ALIGNATT4.run_id / name).read_bytes()
            b = (b_dir / ALIGNATT4.run_id / name).read_bytes()
            assert a == b, name


class TestDecoderWork:
    """Model work per policy on fixed corpora, so that early stop cannot lose its savings
    silently and the growth of work with utterance length is on file."""

    CONFIGS = [
        SessionConfig(policy="alignatt", f=4, chunk_ms=250.0),
        SessionConfig(policy="edatt", alpha=0.6, chunk_ms=250.0),
        SessionConfig(policy="waitk", k=3, chunk_ms=250.0),
        SessionConfig(policy="local_agreement", t_s_ms=250.0, chunk_ms=250.0),
    ]

    # ToyModel._step calls of one run_eval over the corpus below
    STEPS = {"alignatt": 142, "edatt": 123, "waitk": 133, "local_agreement": 225}

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.policy)
    def test_step_counts(self, tmp_path, monkeypatch, config):
        entries = load_manifest(build_suite(tmp_path, num_utterances=4, min_frames=100, max_frames=300))
        steps = []
        step = ToyModel._step
        monkeypatch.setattr(ToyModel, "_step", lambda self, *args: steps.append(1) or step(self, *args))
        # ``steps`` counts calls in this process; a forked worker would count its own.
        monkeypatch.setattr(ToyModel, "forkable", False)
        evaluation = run_eval(entries, config)
        assert all(result.error is None for result in evaluation.results)
        assert len(steps) == self.STEPS[config.policy]

    # Per utterance length in seconds: frames passed to ToyModel.encode (word
    # counting included), rows run through ToyModel._advance (prefill) and
    # ToyModel._step calls (generated rows) of one run_eval on that utterance.
    # Every step re-encodes the whole delivered prefix and re-prefills the
    # committed tokens, so from 10 s to 20 s frames grow about fourfold,
    # prefill rows three- to fourfold and generated rows about 1.5-fold.
    WORK = {
        "alignatt": {5: (5250, 712, 64), 10: (20500, 2199, 84), 20: (81000, 6477, 123)},
        "edatt": {5: (5250, 762, 64), 10: (20500, 2249, 84), 20: (81000, 6529, 123)},
        "waitk": {5: (10000, 159, 51), 10: (40000, 701, 86), 20: (160000, 3007, 129)},
        "local_agreement": {5: (5250, 670, 118), 10: (20500, 2120, 162), 20: (81000, 6317, 235)},
    }

    @pytest.fixture(scope="class")
    def utterances(self, tmp_path_factory):
        """A seeded one-utterance corpus of each length in seconds (100 frames a second)."""
        directory = tmp_path_factory.mktemp("lengths")
        manifests = {
            seconds: build_suite(directory / f"{seconds}s", 1, min_frames=100 * seconds, max_frames=100 * seconds + 1)
            for seconds in (5, 10, 20)
        }
        return {seconds: load_manifest(manifest) for seconds, manifest in manifests.items()}

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.policy)
    def test_work_per_utterance_length(self, utterances, monkeypatch, config):
        work = [0, 0, 0]
        encode, advance, step = ToyModel.encode, ToyModel._advance, ToyModel._step

        def counted(index, method, size):
            def wrapper(self, *args):
                work[index] += size(*args)
                return method(self, *args)
            return wrapper

        monkeypatch.setattr(ToyModel, "encode", counted(0, encode, len))
        monkeypatch.setattr(ToyModel, "_advance", counted(1, advance, lambda decode, ids: len(ids)))
        monkeypatch.setattr(ToyModel, "_step", counted(2, step, lambda decode, token: 1))
        counts = {}
        for seconds, entries in utterances.items():
            work[:] = [0, 0, 0]
            evaluation = run_eval(entries, config)
            assert evaluation.results[0].error is None
            counts[seconds] = tuple(work)
        assert counts == self.WORK[config.policy]


class _SerialToy(ToyModel):
    forkable = False


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# Runs a 3-utterance manifest on 2 workers; each worker writes its pid to the
# pipe fd argv[1] when it starts, and the first utterance's load never returns,
# so one worker stays busy while the other goes idle waiting for a task.
_POOLED_PARENT = """
import os, sys, time
from simulst import SessionConfig, load_manifest, runner

report, entries = int(sys.argv[1]), load_manifest(sys.argv[2])
start, load = runner._start_worker, runner.load_source_features

def start_and_report(*args):
    start(*args)
    os.write(report, b"%d\\n" % os.getpid())

def load_or_stall(path):
    if path == entries[0].source:
        time.sleep(600)
    return load(path)

runner._start_worker, runner.load_source_features = start_and_report, load_or_stall
runner._available_cpus = lambda: 2
runner.run_eval(entries, SessionConfig(policy="alignatt", f=4))
"""


_LINUX_ONLY = pytest.mark.skipif(sys.platform != "linux", reason="the pool runs on Linux only")
# The environment of a child Python that imports simulst from this source tree.
_SRC_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([str(Path(runner.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]),
)


def _read_pipe(fd: int, timeout_s: float, enough=lambda data: False) -> tuple[bytes, bool]:
    """What the pipe gives until ``enough`` holds, end-of-file or the timeout; and whether it ended."""
    data = b""
    deadline = time.monotonic() + timeout_s
    while not enough(data):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return data, False
        chunk = os.read(fd, 4096)
        if not chunk:
            return data, True
        data += chunk
    return data, False


class TestWorkerPool:
    """Sessions run in forked workers give exactly the serial outputs and leave no process behind."""

    CONFIGS = TestDecoderWork.CONFIGS

    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        manifest = build_suite(tmp_path_factory.mktemp("pool"), num_utterances=5, min_frames=80, max_frames=240)
        return load_manifest(manifest)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Start methods of the pools ``run_eval`` and ``sweep`` start."""
        started = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: started.append(method) or get_context(method)
        )
        return started

    def _serial(self, monkeypatch, call):
        with monkeypatch.context() as patch:
            patch.setattr(
                runner,
                "make_adapter",
                lambda config: _SerialToy(ToyModelConfig(seed=config.seed), build_default_vocabulary()),
            )
            return call()

    def _pooled(self, monkeypatch, cpus, call):
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_available_cpus", lambda: cpus)
            return call()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda config: config.policy)
    def test_run_eval_tree_equals_serial(self, suite, tmp_path, monkeypatch, pools, config, cpus):
        serial = self._serial(monkeypatch, lambda: run_eval(suite, config, out_dir=tmp_path / "serial"))
        assert pools == []
        pooled = self._pooled(monkeypatch, cpus, lambda: run_eval(suite, config, out_dir=tmp_path / "pooled"))
        assert pools == ["fork"]
        assert pooled == serial
        assert _files(tmp_path / "pooled") == _files(tmp_path / "serial")
        assert len(_files(tmp_path / "serial")) == len(suite) + 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_sweep_tree_and_curve_equal_serial(self, suite, tmp_path, monkeypatch, pools, cpus):
        base = SessionConfig(policy="waitk", k=3, chunk_ms=250.0, step_cost_s=0.05)

        def run(out_dir):
            rows, evaluations = sweep(suite, base, [2, 4, 6], out_dir=out_dir)
            write_curve_csv(out_dir / "curve.csv", rows)
            return evaluations

        serial = self._serial(monkeypatch, lambda: run(tmp_path / "serial"))
        pooled = self._pooled(monkeypatch, cpus, lambda: run(tmp_path / "pooled"))
        assert pools == ["fork"]
        assert pooled == serial
        assert _files(tmp_path / "pooled") == _files(tmp_path / "serial")
        assert "curve.csv" in _files(tmp_path / "serial")

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_word_count_failure_fails_only_its_utterance(self, small_suite, monkeypatch, pools, cpus):
        doomed = read_features(small_suite[1].source).frames[0]

        class WordCountFails(ToyModel):
            def count_source_words(self, raw_features):
                if np.array_equal(raw_features[0], doomed):
                    raise KeyError("no scripted step")
                return super().count_source_words(raw_features)

        config = SessionConfig(policy="waitk", k=2, chunk_ms=500.0)
        monkeypatch.setattr(runner, "make_adapter", lambda config: WordCountFails())
        pooled = self._pooled(monkeypatch, cpus, lambda: run_eval(small_suite, config))
        assert pools == ["fork"]
        monkeypatch.setattr(WordCountFails, "forkable", False)
        serial = run_eval(small_suite, config)
        assert [r.failed for r in pooled.results] == [False, True, False]
        assert "counting words" in pooled.results[1].error
        assert pooled == serial

    def test_no_process_or_warning_left_after_return(self, small_suite, tmp_path, monkeypatch, pools):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._pooled(monkeypatch, 2, lambda: run_eval(small_suite, ALIGNATT4, out_dir=tmp_path))
            gc.collect()
        assert pools == ["fork"]
        assert multiprocessing.active_children() == []
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_no_process_or_warning_left_after_a_worker_raises(self, small_suite, tmp_path, monkeypatch, pools):
        load = runner.load_source_features

        def load_or_raise(path):
            if Path(path).name == small_suite[1].source.name:
                raise RuntimeError("worker fault")
            return load(path)

        monkeypatch.setattr(runner, "load_source_features", load_or_raise)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="worker fault"):
                self._pooled(monkeypatch, 2, lambda: run_eval(small_suite, ALIGNATT4, out_dir=tmp_path))
            gc.collect()
        assert pools == ["fork"]
        assert multiprocessing.active_children() == []
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert not (tmp_path / ALIGNATT4.run_id).exists()

    def test_worker_death_raises_instead_of_waiting(self, small_suite, tmp_path, monkeypatch, pools):
        load = runner.load_source_features

        def load_or_exit(path):
            if Path(path).name == small_suite[1].source.name:
                os._exit(3)
            return load(path)

        monkeypatch.setattr(runner, "load_source_features", load_or_exit)
        with pytest.raises(BrokenProcessPool):
            self._pooled(monkeypatch, 2, lambda: run_eval(small_suite, ALIGNATT4, out_dir=tmp_path))
        assert pools == ["fork"]
        assert multiprocessing.active_children() == []
        assert not (tmp_path / ALIGNATT4.run_id).exists()

    def test_worker_death_mid_sweep_writes_no_grid_value(self, small_suite, tmp_path, monkeypatch, pools):
        run_session = runner.run_session

        def run_or_exit(source, adapter, policy, **kwargs):
            if policy.f == 8:  # the last grid value: the first two may have finished
                os._exit(3)
            return run_session(source, adapter, policy, **kwargs)

        monkeypatch.setattr(runner, "run_session", run_or_exit)
        with pytest.raises(BrokenProcessPool):
            self._pooled(monkeypatch, 2, lambda: sweep(small_suite, ALIGNATT4, [2, 4, 8], out_dir=tmp_path))
        assert pools == ["fork"]
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []

    def test_one_utterance_sweep_runs_its_grid_in_one_pool(self, suite, tmp_path, monkeypatch, pools):
        base = SessionConfig(policy="waitk", k=3, chunk_ms=250.0)
        sizes = []

        class Sized(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Sized)
        serial = self._serial(monkeypatch, lambda: sweep(suite[:1], base, [2, 4, 6], out_dir=tmp_path / "serial"))
        assert pools == []
        pooled = self._pooled(monkeypatch, 8, lambda: sweep(suite[:1], base, [2, 4, 6], out_dir=tmp_path / "pooled"))
        assert pools == ["fork"]
        assert sizes == [3]  # never more workers than sessions
        assert pooled == serial
        assert _files(tmp_path / "pooled") == _files(tmp_path / "serial")
        assert len(_files(tmp_path / "serial")) == 3 * 2

    def test_real_clock_runs_in_this_process(self, small_suite, monkeypatch, pools):
        real = dataclasses.replace(ALIGNATT4, clock="real")
        evaluation = self._pooled(monkeypatch, 2, lambda: run_eval(small_suite, real))
        assert pools == []
        assert evaluation.num_failed == 0

    def test_other_threads_keep_the_run_in_this_process(self, small_suite, monkeypatch, pools):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            self._pooled(monkeypatch, 2, lambda: run_eval(small_suite, ALIGNATT4))
        finally:
            release.set()
            other.join()
        assert pools == []
        self._pooled(monkeypatch, 2, lambda: run_eval(small_suite, ALIGNATT4))
        assert pools == ["fork"]

    def test_other_platforms_run_in_this_process(self, suite, monkeypatch, pools):
        pooled = self._pooled(monkeypatch, 2, lambda: run_eval(suite, ALIGNATT4))
        assert pools == ["fork"]
        pools.clear()
        monkeypatch.setattr(runner, "sys", types.SimpleNamespace(platform="darwin"))
        elsewhere = self._pooled(monkeypatch, 2, lambda: run_eval(suite, ALIGNATT4))
        assert pools == []
        assert elsewhere == pooled

    @_LINUX_ONLY
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        manifest = build_suite(tmp_path, num_utterances=3, min_frames=80, max_frames=160)
        read_end, write_end = os.pipe()
        try:
            parent = subprocess.Popen(
                [sys.executable, "-c", _POOLED_PARENT, str(write_end), str(manifest)],
                pass_fds=(write_end,), env=_SRC_ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            os.close(write_end)
            try:
                reported, _ = _read_pipe(read_end, 60, lambda data: data.count(b"\n") == 2)
                workers = [int(pid) for pid in reported.split()]
                assert len(workers) == 2
                parent.send_signal(signal.SIGTERM)
                assert parent.wait(10) == -signal.SIGTERM
                # The workers hold the pipe's write end: it ends when the last of them is gone.
                _, ended = _read_pipe(read_end, 10)
                if not ended:
                    for pid in workers:
                        os.kill(pid, signal.SIGKILL)
                assert ended
            finally:
                parent.kill()
                parent.wait()
        finally:
            os.close(read_end)

    @_LINUX_ONLY
    def test_a_worker_whose_parent_is_gone_exits(self):
        # the worker's own pid stands for a parent that died before the death signal was requested
        started = subprocess.run(
            [sys.executable, "-c", "import os; from simulst import runner; runner._start_worker(None, None, os.getpid())"],
            env=_SRC_ENV, capture_output=True, timeout=60,
        )
        assert (started.returncode, started.stderr) == (1, b"")

    @_LINUX_ONLY
    def test_available_cpus_is_the_affinity_set(self):
        assert runner._available_cpus() == len(os.sched_getaffinity(0))

    def test_one_utterance_or_one_cpu_runs_in_this_process(self, small_suite, monkeypatch, pools):
        self._pooled(monkeypatch, 4, lambda: run_eval(small_suite[:1], ALIGNATT4))
        self._pooled(monkeypatch, 1, lambda: run_eval(small_suite, ALIGNATT4))
        assert pools == []


class TestSweep:
    def test_rows_sorted_and_deduplicated(self, small_suite):
        rows, evaluations = sweep(small_suite, ALIGNATT4, [8, 2, 8])
        assert [row.param for row in rows] == [2.0, 8.0]
        assert len(evaluations) == 2
        assert evaluations[0].config.f == 2
        assert evaluations[1].config.f == 8

    def test_rows_match_single_runs(self, small_suite, tmp_path, monkeypatch):
        for cpus in (1, 2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(runner, "_available_cpus", lambda: cpus)
                swept, single = tmp_path / f"sweep{cpus}", tmp_path / f"single{cpus}"
                rows, evaluations = sweep(small_suite, ALIGNATT4, [2, 4, 8], out_dir=swept)
                singles = [run_eval(small_suite, e.config, out_dir=single) for e in evaluations]
            assert [e.config.f for e in singles] == [2, 4, 8]
            assert evaluations == singles
            assert rows == [
                CurveRow(float(e.config.f), e.corpus_bleu, e.mean_latency.laal_s, e.mean_latency.laal_ca_s, e.mean_latency.al_s)
                for e in singles
            ]
            assert _files(swept) == _files(single)
            assert len(_files(swept)) == 3 * (len(small_suite) + 1)

    def test_one_adapter_per_sweep(self, small_suite, monkeypatch):
        built = []

        def counting_make_adapter(config):
            built.append(config.f)
            return make_adapter(config)

        monkeypatch.setattr(runner, "make_adapter", counting_make_adapter)
        _, evaluations = sweep(small_suite, ALIGNATT4, [2, 4, 8])
        assert len(built) == 1
        assert [e.config.f for e in evaluations] == [2, 4, 8]

    def test_empty_grid_rejected(self, small_suite):
        with pytest.raises(ConfigError, match="sweep grid is empty"):
            sweep(small_suite, ALIGNATT4, [])

    def test_laal_cap_filters_rows_not_evaluations(self, small_suite):
        uncapped_rows, _ = sweep(small_suite, ALIGNATT4, [2, 30])
        assert len(uncapped_rows) == 2
        cap = (uncapped_rows[0].laal_ca_s + uncapped_rows[1].laal_ca_s) / 2.0
        capped = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0, laal_cap_s=cap)
        rows, evaluations = sweep(small_suite, capped, [2, 30])
        assert len(evaluations) == 2  # every grid point still evaluated
        assert [row.param for row in rows] == [2.0]

    def test_fractional_value_of_integer_knob_rejected_before_any_run(self, small_suite, tmp_path):
        with pytest.raises(ConfigError, match="f takes whole numbers, got 2.5"):
            sweep(small_suite, ALIGNATT4, [2, 2.5], out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_sweep_varies_the_policy_knob(self, small_suite):
        base = SessionConfig(policy="edatt", alpha=0.5, chunk_ms=500.0)
        _, evaluations = sweep(small_suite, base, [0.2, 0.8])
        assert [e.config.alpha for e in evaluations] == [0.2, 0.8]


class TestCurveCsv:
    def test_format(self, tmp_path):
        rows = [
            CurveRow(param=2.0, bleu=77.25, laal_s=0.6857, laal_ca_s=0.7123, al_s=0.5),
            CurveRow(param=14.0, bleu=91.4, laal_s=2.17, laal_ca_s=2.21, al_s=2.0),
        ]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CURVE_HEADER == "param,bleu,laal_s,laal_ca_s,al_s"
        assert lines[1] == "2,77.2500,0.6857,0.7123,0.5000"
        assert lines[2] == "14,91.4000,2.1700,2.2100,2.0000"

    def test_empty_rows_write_header_only(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [])
        assert path.read_text(encoding="utf-8") == CURVE_HEADER + "\n"
