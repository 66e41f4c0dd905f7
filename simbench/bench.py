"""Measurement loop, output checks and the result record of one benchmark run.

A run is a closed loop on one process: the workload's operations run one
after another (each a ``run_eval`` or ``sweep`` call), round-robin, until the
time budget is spent and every operation has run at least once. Throughput
is the audio of one round divided by the sum of each operation's median
time, so a round cut short by the budget does not bias the mix.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from simulst import build_default_vocabulary, corpus_bleu
from simulst.metrics import word_delays
from tracer import Tracer, installed, layer_metrics, root_seconds

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIGESTS = BENCH_DIR / "expected_digests.json"
# Seeds whose output digests are recorded in ``expected_digests.json``.
RECORDED_SEEDS = range(32)
SETUP_PROBES = 21
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = ("audio_s_per_s", "setup_s", "peak_rss_mb", "bleu", "delay_s", "delay_ca_s")
# Reported by the traced run besides the layer metrics of ``tracer``.
TRACE_METRICS = (
    "runner.failed",
    "trace.passes",
    "trace.coverage",
    "trace.audio_s_per_s",
    "trace.untraced_audio_s_per_s",
    "trace.overhead_pct",
)


class Checker:
    """Counts sessions attempted and failed, and compares output digests.

    An operation's digest must repeat on every run of it, match the recorded
    digest on the seeds in ``RECORDED_SEEDS``, and match between traced and
    untraced runs.
    A mismatch fails every session of that operation.
    """

    def __init__(self, workload: str, seed: int):
        self.vocab = build_default_vocabulary()
        self.digests: dict[str, str] = {}
        if seed in RECORDED_SEEDS:
            recorded = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))
            self.digests.update(recorded[workload][str(seed)])
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, op, evaluations, out_dir: Path) -> None:
        self.attempted += op.sessions
        digest = workloads.output_digest(out_dir)
        expected = self.digests.setdefault(op.name, digest)
        if digest != expected:
            self.failed += op.sessions
            self.mismatches.append(op.name)
            return
        self.failed += sum(
            e.num_failed + workloads.invariant_violations(e, self.vocab) for e in evaluations
        )


def run_op(op, logs: Path, checker: Checker, times: dict, first: dict) -> None:
    """Time one operation into ``times``, then check what it wrote."""
    out_dir = workloads.fresh_dir(logs / op.name)
    t0 = time.perf_counter()
    evaluations = op.call(out_dir)
    times.setdefault(op.name, []).append(time.perf_counter() - t0)
    checker.check(op, evaluations, out_dir)
    first.setdefault(op.name, evaluations)


def timed_loop(ops, seconds: float, logs: Path, checker: Checker):
    """Round-robin until ``seconds`` are spent and every operation ran once."""
    times: dict[str, list[float]] = {}
    first: dict[str, list] = {}
    start = time.perf_counter()
    for i in itertools.count():
        run_op(ops[i % len(ops)], logs, checker, times, first)
        if i + 1 >= len(ops) and time.perf_counter() - start >= seconds:
            return times, first


def traced_loop(ops, seconds: float, logs: Path, checker: Checker, tracer: Tracer):
    """Alternate untraced and traced rounds, so drift in machine speed hits both alike.

    A further pair of rounds starts only if it is expected to be at least
    half done when ``seconds`` have passed, so the run lasts about
    ``seconds``; the first pair always runs.
    """
    plain: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    first: dict[str, list] = {}
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            run_op(op, logs, checker, plain, first)
        with installed(tracer):
            for op in ops:
                run_op(op, logs, checker, traced, first)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            return plain, traced, passes, first


def throughput(ops, times) -> float:
    return sum(op.audio_s for op in ops) / sum(statistics.median(times[op.name]) for op in ops)


def quality_metrics(first, entries_by_id) -> dict[str, float]:
    """Deterministic quality and latency over one round of sessions."""
    hyps, refs, ideal, wall, laal, laal_ca = [], [], [], [], [], []
    for evaluations in first.values():
        for evaluation in evaluations:
            for result in evaluation.results:
                if result.log is None:
                    continue
                hyps.append(result.log.final_text)
                refs.append(entries_by_id[result.id].reference)
                i, w = word_delays(result.log)
                ideal.extend(i)
                wall.extend(w)
                laal.append(result.latency.laal_s)
                laal_ca.append(result.latency.laal_ca_s)
    return {
        "bleu": corpus_bleu(hyps, refs).bleu,
        "delay_s": statistics.fmean(ideal),
        "delay_ca_s": statistics.fmean(wall),
        "laal_s": statistics.fmean(laal),
        "laal_ca_s": statistics.fmean(laal_ca),
    }


def measure_setup(workload: str, seed: int, inputs: Path) -> list[float]:
    """Time import, manifest load and one warm-up session in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(inputs)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def setup_probe(workload: str, inputs: Path, t0: float) -> float:
    """Body of one setup probe; ``t0`` was read before simulst was imported."""
    from simulst import load_manifest

    load_manifest(inputs / "utt.jsonl")
    workloads.warm_up(workload, inputs / "warmup.jsonl", inputs.parent / f"probe-{os.getpid()}")
    return time.perf_counter() - t0


def record_digests(root: Path, workload: str) -> dict[str, dict[str, str]]:
    """Run each operation once on every seed in ``RECORDED_SEEDS`` and store its output digest."""
    work = workloads.fresh_dir(root / ".simbench_out" / f"record-{workload}-{os.getpid()}")
    digests: dict[str, dict[str, str]] = {}
    try:
        for seed in RECORDED_SEEDS:
            manifest, _ = workloads.generate_inputs(workload, seed, workloads.fresh_dir(work / "inputs"))
            digests[str(seed)] = {}
            for op in workloads.operations(workload, manifest):
                out_dir = workloads.fresh_dir(work / "logs" / op.name)
                op.call(out_dir)
                digests[str(seed)][op.name] = workloads.output_digest(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    recorded = json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8")) if EXPECTED_DIGESTS.is_file() else {}
    recorded[workload] = digests
    EXPECTED_DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return digests


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: Path, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "simulst_workers": os.environ.get("SIMULST_WORKERS", "unset (runner default)"),
        "workload": workload,
        "seed": seed,
    }


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns the result printed as the last line and the environment."""
    from simulst import load_manifest

    out_root = root / ".simbench_out"
    work = workloads.fresh_dir(out_root / f"{workload}-{seed}-{os.getpid()}")
    try:
        manifest, warmup = workloads.generate_inputs(workload, seed, work / "inputs")
        record = {"environment": environment(root, workload, seed)}
        setup = [] if trace else measure_setup(workload, seed, work / "inputs")
        workloads.warm_up(workload, warmup, work / "warmup")
        ops = workloads.operations(workload, manifest)
        entries_by_id = {e.id: e for e in load_manifest(manifest)}
        checker = Checker(workload, seed)
        logs = work / "logs"

        if trace:
            tracer = Tracer()
            times, traced_times, passes, first = traced_loop(ops, seconds, logs, checker, tracer)
            untraced, traced = throughput(ops, times), throughput(ops, traced_times)
            metrics = layer_metrics(tracer, passes)
            metrics["runner.failed"] = (float(checker.failed), "count")
            metrics["trace.passes"] = (float(passes), "count")
            # Share of the benchmark's own timing of the traced calls that spans cover.
            op_wall_s = sum(sum(v) for v in traced_times.values())
            metrics["trace.coverage"] = (root_seconds(tracer.spans) / op_wall_s, "ratio")
            metrics["trace.audio_s_per_s"] = (traced, "s/s")
            metrics["trace.untraced_audio_s_per_s"] = (untraced, "s/s")
            metrics["trace.overhead_pct"] = (100.0 * (untraced - traced) / untraced, "%")
            record["traced_op_times_s"] = traced_times
            tracer.write(out_root / f"spans-{workload}-seed{seed}.jsonl")
        else:
            times, first = timed_loop(ops, seconds, logs, checker)
        quality = quality_metrics(first, entries_by_id)
        if not trace:
            metrics = {
                "audio_s_per_s": (throughput(ops, times), "s/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "bleu": (quality["bleu"], "BLEU"),
                "delay_s": (quality["delay_s"], "s"),
                "delay_ca_s": (quality["delay_ca_s"], "s"),
            }
            record["setup_samples_s"] = setup
        record["op_times_s"] = times
        record["quality"] = quality
        record["digests"] = checker.digests
        record["digest_mismatches"] = checker.mismatches
        result = {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        record["result"] = result
        (out_root / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return result, record["environment"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
