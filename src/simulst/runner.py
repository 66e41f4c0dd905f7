"""Batch evaluation: run sessions over a manifest, aggregate, sweep grids.

Each utterance runs as an independent session with its own clock. One
adapter, immutable by the ``ModelAdapter`` contract, is built per run or
sweep and shared by every session; a sweep's grid values differ only in the
policy's knob, which the adapter does not read. On Linux, when the adapter
is ``forkable``, more than one CPU is in this process's affinity set, the
clock is simulated and this process runs no other thread, every session of
the call (every grid value's, in a sweep) runs in one pool of forked worker
processes, one per available CPU and never more than there are sessions;
otherwise they run one after another in this process, so a real clock times
each session's compute on its own. The task that runs a session also scores
it (``score_one``). Either way the outcomes come back in manifest order,
and this process pools the scores into corpus BLEU and a mean
``LatencyReport`` and writes every file, only once every session has
returned, so the output bytes do not depend on the worker count: each
session's outcome, log or error, through ``write_emission_log``, and the
run's ``aggregate.json`` as ``EvalResult.to_json``, the text ``simulst
score`` reproduces from the logs.
Per-utterance failures (unreadable source file, adapter fault) are recorded
and skipped; corpus BLEU pools n-gram counts over the successful sessions
and each latency metric is macro-averaged over them (sessions with empty
output contribute no latency).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
from dataclasses import dataclass, fields
from pathlib import Path

from .config import ConfigError, SessionConfig
from .features import load_source_features
from .manifest import ManifestEntry, write_bytes_atomic
from .metrics import LatencyReport, bleu, corpus_bleu, latency_report
from .model import ModelAdapter, ToyModel, ToyModelConfig
from .simulator import (
    EmissionLog,
    RealClock,
    SessionError,
    SimulatedClock,
    run_session,
    write_emission_log,
)
from .vocab import build_default_vocabulary

__all__ = [
    "UtteranceResult",
    "EvalResult",
    "CurveRow",
    "CURVE_HEADER",
    "aggregate",
    "make_adapter",
    "run_eval",
    "sweep",
    "write_curve_csv",
]

CURVE_HEADER = "param,bleu,laal_s,laal_ca_s,al_s"
_LATENCY_FIELDS = tuple(field.name for field in fields(LatencyReport))


def make_adapter(config: SessionConfig) -> ModelAdapter:
    """Build the adapter that every session of one run shares."""
    if config.adapter == "toy":
        return ToyModel(ToyModelConfig(seed=config.seed), build_default_vocabulary())
    raise ConfigError(f"unknown adapter {config.adapter!r}; available: 'toy'")


@dataclass(frozen=True)
class UtteranceResult:
    """Outcome of one manifest entry: a log and metrics, or an error."""

    id: str
    log: EmissionLog | None = None
    latency: LatencyReport | None = None
    bleu: float | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class EvalResult:
    """One run over a manifest: per-utterance outcomes plus corpus aggregates.

    ``config`` is None when the outcomes were read back from logs.
    ``mean_latency`` holds each ``LatencyReport`` metric averaged over the
    sessions where it is defined (NaN when none is).
    """

    config: SessionConfig | None
    results: tuple[UtteranceResult, ...]
    corpus_bleu: float
    mean_latency: LatencyReport

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.results if r.failed)

    def to_record(self) -> dict:
        """JSON-able aggregate record written next to the per-session logs.

        Each ``LatencyReport`` field is a key per utterance and, as ``mean_<field>``, of the
        run. ``run_id`` and ``config`` are present only when the config is known.
        """
        record = {
            "num_utterances": len(self.results),
            "num_failed": self.num_failed,
            "failed_ids": [r.id for r in self.results if r.failed],
            "corpus_bleu": _json_number(self.corpus_bleu),
            **_latency_record(self.mean_latency, "mean_"),
            "utterances": [
                {
                    "id": r.id,
                    "error": r.error,
                    "bleu": _json_number(r.bleu),
                    **_latency_record(r.latency),
                    "final_text": r.log.final_text if r.log else None,
                }
                for r in self.results
            ],
        }
        if self.config is not None:
            record["run_id"] = self.config.run_id
            record["config"] = self.config.to_dict()
        return record

    def to_json(self) -> str:
        """``to_record`` as the text of ``aggregate.json``, which ``simulst score`` reproduces."""
        return json.dumps(self.to_record(), indent=2, sort_keys=True)


def _json_number(value: float | None) -> float | None:
    """NaN (undefined metric) serializes as null to keep the JSON strict."""
    if value is None or math.isnan(value):
        return None
    return value


def _latency_record(report: LatencyReport | None, prefix: str = "") -> dict:
    """Each ``LatencyReport`` field of ``report`` under ``prefix + name``; all null without one."""
    return {
        prefix + name: None if report is None else _json_number(getattr(report, name))
        for name in _LATENCY_FIELDS
    }


def _run_one(
    entry: ManifestEntry, config: SessionConfig, adapter: ModelAdapter
) -> EmissionLog | SessionError:
    """One session's emission log, or the error that stopped it."""
    try:
        source = load_source_features(entry.source)
    except (OSError, ValueError) as exc:
        return SessionError(f"source unreadable: {exc}", None)
    clock = RealClock() if config.clock == "real" else SimulatedClock()
    try:
        return run_session(
            source,
            adapter,
            config.make_policy(),
            chunk_ms=config.effective_chunk_ms,
            clock=clock,
            attention_layer=config.attention_layer,
            step_cost_s=config.step_cost_s,
            max_new=config.max_new,
        )
    except SessionError as exc:
        return exc
    except ValueError as exc:
        return SessionError(str(exc), None)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set."""
    return len(os.sched_getaffinity(0))


# The (entry, config) tasks and the adapter of the run this worker process serves.
_worker_run: tuple[list[tuple[ManifestEntry, SessionConfig]], ModelAdapter] | None = None

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _start_worker(
    tasks: list[tuple[ManifestEntry, SessionConfig]], adapter: ModelAdapter, parent_pid: int
) -> None:
    """Keep the run for this worker, which ends as soon as the process that forked it dies.

    An idle worker waits on a queue whose write end it holds itself, so it
    would never see end-of-file: without the death signal, a run killed by
    SIGTERM or SIGKILL would leave its workers waiting forever.
    """
    global _worker_run
    import ctypes

    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent_pid:  # the parent died before the request
        os._exit(1)
    _worker_run = (tasks, adapter)


def _run_and_score(
    entry: ManifestEntry, config: SessionConfig, adapter: ModelAdapter
) -> tuple[EmissionLog | SessionError, UtteranceResult]:
    outcome = _run_one(entry, config, adapter)
    return outcome, score_one(entry, outcome)


def _run_in_worker(task: int) -> tuple[EmissionLog | SessionError, UtteranceResult]:
    tasks, adapter = _worker_run
    return _run_and_score(*tasks[task], adapter)


def _run_all(
    entries: list[ManifestEntry], configs: list[SessionConfig], adapter: ModelAdapter
) -> list[list[tuple[EmissionLog | SessionError, UtteranceResult]]]:
    """Per config, each entry's ``_run_one`` outcome and its ``score_one`` result, in manifest order.

    Every ``(entry, config)`` task of the call runs in one pool: a sweep's
    grid values share it, so no worker waits for a grid value's last session
    while another could start the next one's. Forked workers inherit the
    tasks and the adapter rather than receiving pickled copies, and each runs
    and scores a session exactly as this process would. There are never more
    workers than tasks. A worker that dies mid-session (killed, out of
    memory) raises ``BrokenProcessPool`` here instead of leaving the run
    waiting for it. Sessions run serially on platforms other than Linux,
    where a forked child may crash; under a real clock, whose step times
    would grow with the sessions sharing cores; and when this process runs
    other threads, since a fork copies only the calling one.
    """
    tasks = [(entry, config) for config in configs for entry in entries]
    workers = min(_available_cpus(), len(tasks)) if sys.platform == "linux" else 1
    if (
        workers < 2
        or not getattr(adapter, "forkable", False)
        or any(config.clock == "real" for config in configs)
        or threading.active_count() > 1
    ):
        done = [_run_and_score(entry, config, adapter) for entry, config in tasks]
    else:
        # Imported here: the import would add about 5% to the start-up of a one-utterance run.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(tasks, adapter, os.getpid()),
        ) as executor:
            done = list(executor.map(_run_in_worker, range(len(tasks))))
    n = len(entries)
    return [done[i : i + n] for i in range(0, len(done), n)]


def _mean(values: list[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else math.nan


def score_one(entry: ManifestEntry, outcome: EmissionLog | Exception | str) -> UtteranceResult:
    """One utterance's metrics, from its emission log or the error that left it without one."""
    if not isinstance(outcome, EmissionLog):
        return UtteranceResult(id=entry.id, error=str(outcome))
    return UtteranceResult(
        id=entry.id,
        log=outcome,
        latency=latency_report(outcome, entry.reference),
        bleu=bleu(outcome.final_text, entry.reference).bleu,
    )


def _pool_scores(
    entries: list[ManifestEntry], results: list[UtteranceResult], config: SessionConfig | None
) -> EvalResult:
    """Corpus BLEU over the successful sessions and their mean latencies."""
    succeeded = [(r, entry) for r, entry in zip(results, entries) if not r.failed]
    if succeeded:
        pooled = corpus_bleu(
            [r.log.final_text for r, _ in succeeded],
            [entry.reference for _, entry in succeeded],
        ).bleu
    else:
        pooled = math.nan
    reports = [r.latency for r in results if r.latency]
    mean_latency = LatencyReport(
        **{name: _mean([getattr(report, name) for report in reports]) for name in _LATENCY_FIELDS}
    )
    return EvalResult(config=config, results=tuple(results), corpus_bleu=pooled, mean_latency=mean_latency)


def aggregate(entries: list[ManifestEntry], outcomes: list[EmissionLog | str]) -> EvalResult:
    """Score per-utterance outcomes against their manifest entries; the config is unknown.

    ``outcomes[i]`` is the emission log of ``entries[i]``, or the message of
    the error that left it without one. Runs score each session with
    ``score_one`` and pool the results as this does, so a run's logs
    re-score to the same record.
    """
    results = [score_one(entry, outcome) for entry, outcome in zip(entries, outcomes, strict=True)]
    return _pool_scores(entries, results, None)


def _evaluate(
    entries: list[ManifestEntry], configs: list[SessionConfig], out_dir: Path | None
) -> list[EvalResult]:
    """One EvalResult per config, from one adapter and one pass over every session.

    The configs differ at most in the policy's knob, which the adapter does
    not read. Files are written only once every session has returned, and
    each config's replace its run directory whole.
    """
    if not entries:
        raise ConfigError("manifest is empty")
    adapter = make_adapter(configs[0])
    runs = _run_all(entries, configs, adapter)
    evaluations = [
        _pool_scores(entries, [result for _, result in run], config) for config, run in zip(configs, runs)
    ]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for config, run, evaluation in zip(configs, runs, evaluations):
            for debris in out.glob(f".{config.run_id}.*"):  # staging left by a killed run
                shutil.rmtree(debris)
            # ``staged``, inside a fresh directory beside the run's (and so with the usual
            # permissions, not mkdtemp's 0700), replaces the run's directory whole
            work = Path(tempfile.mkdtemp(dir=out, prefix=f".{config.run_id}."))
            try:
                staged = work / "run"
                staged.mkdir()
                for entry, (outcome, _) in zip(entries, run):
                    write_emission_log(staged / f"{entry.id}.jsonl", outcome)
                write_bytes_atomic(staged / "aggregate.json", (evaluation.to_json() + "\n").encode("utf-8"))
                run_dir = out / config.run_id
                if run_dir.exists():
                    run_dir.rename(work / "earlier")
                staged.rename(run_dir)
            finally:
                shutil.rmtree(work)
    return evaluations


def run_eval(
    entries: list[ManifestEntry],
    config: SessionConfig,
    out_dir: Path | None = None,
) -> EvalResult:
    """Evaluate every manifest entry under one config.

    Writes, when ``out_dir`` is given, ``<out_dir>/<run_id>/<utterance>.jsonl``
    per session plus an ``aggregate.json`` record, into a temporary directory
    beside ``<run_id>/`` that then replaces it: no earlier run's file is left
    there, and a failed write leaves the earlier run whole (the next run of
    the config removes what a killed one staged). Per-utterance errors are
    recorded in the result rather than raised; a failed session's log holds
    its commits so far and ends with a record carrying the error.
    """
    return _evaluate(entries, [config], out_dir)[0]


@dataclass(frozen=True)
class CurveRow:
    """One latency-quality point of a sweep."""

    param: float
    bleu: float
    laal_s: float
    laal_ca_s: float
    al_s: float


def sweep(
    entries: list[ManifestEntry],
    base_config: SessionConfig,
    grid,
    out_dir: Path | None = None,
) -> tuple[list[CurveRow], list[EvalResult]]:
    """Run one evaluation per grid value of the policy's sweep knob.

    Every grid value is checked before the first run. The grid values share
    one adapter and one pass over their sessions, pooled as one
    ``run_eval``'s are; each value's EvalResult equals the ``run_eval`` of its
    config, and no file is written until every session has returned. Rows
    come back sorted by parameter. When the config sets ``laal_cap_s``, rows
    whose mean computational-aware LAAL exceeds the cap are dropped from the
    curve (the underlying EvalResults are all returned).
    """
    values = sorted(set(grid))
    if not values:
        raise ConfigError("sweep grid is empty")
    configs = [base_config.with_sweep_value(value) for value in values]
    evaluations = _evaluate(entries, configs, out_dir)
    rows = [
        CurveRow(float(value), e.corpus_bleu, e.mean_latency.laal_s, e.mean_latency.laal_ca_s, e.mean_latency.al_s)
        for value, e in zip(values, evaluations)
    ]
    cap = base_config.laal_cap_s
    return [row for row in rows if cap is None or not row.laal_ca_s > cap], evaluations


def param_text(value: float) -> str:
    """``value`` as ``:g`` writes it when that reads back as the same float, else its repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def write_curve_csv(path, rows: list[CurveRow]) -> None:
    lines = [CURVE_HEADER]
    for row in rows:
        lines.append(f"{param_text(row.param)},{row.bleu:.4f},{row.laal_s:.4f},{row.laal_ca_s:.4f},{row.al_s:.4f}")
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
