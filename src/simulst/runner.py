"""Batch evaluation: run sessions over a manifest, aggregate, sweep grids.

Each utterance runs as an independent session with its own clock. One
adapter, immutable by the ``ModelAdapter`` contract, is built per run and
shared by every session. On Linux, when the adapter is ``forkable``, more
than one CPU is in this process's affinity set, the clock is simulated and
this process runs no other thread, the sessions run in a pool of forked
worker processes, one per available CPU (at most one per utterance);
otherwise they run one after another in this process, so a real clock times
each session's compute on its own. Either way the outcomes come back in
manifest order and this process scores them and writes every file, so the
output bytes do not depend on the worker count. Per-utterance failures
(unreadable source file, adapter fault) are recorded and skipped; corpus
BLEU pools n-gram counts over the successful sessions and latency is
macro-averaged over them (sessions with empty output contribute no latency).
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import threading
from dataclasses import dataclass
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
    write_failed_log,
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
    """

    config: SessionConfig | None
    results: tuple[UtteranceResult, ...]
    corpus_bleu: float
    mean_al_s: float
    mean_laal_s: float
    mean_al_ca_s: float
    mean_laal_ca_s: float

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.results if r.failed)

    def to_record(self) -> dict:
        """JSON-able aggregate record written next to the per-session logs.

        ``run_id`` and ``config`` are present only when the config is known.
        """
        record = {
            "num_utterances": len(self.results),
            "num_failed": self.num_failed,
            "failed_ids": [r.id for r in self.results if r.failed],
            "corpus_bleu": _json_number(self.corpus_bleu),
            "mean_al_s": _json_number(self.mean_al_s),
            "mean_laal_s": _json_number(self.mean_laal_s),
            "mean_al_ca_s": _json_number(self.mean_al_ca_s),
            "mean_laal_ca_s": _json_number(self.mean_laal_ca_s),
            "utterances": [
                {
                    "id": r.id,
                    "error": r.error,
                    "bleu": _json_number(r.bleu),
                    "al_s": _json_number(r.latency.al_s) if r.latency else None,
                    "laal_s": _json_number(r.latency.laal_s) if r.latency else None,
                    "al_ca_s": _json_number(r.latency.al_ca_s) if r.latency else None,
                    "laal_ca_s": _json_number(r.latency.laal_ca_s) if r.latency else None,
                    "final_text": r.log.final_text if r.log else None,
                }
                for r in self.results
            ],
        }
        if self.config is not None:
            record["run_id"] = self.config.run_id
            record["config"] = self.config.to_dict()
        return record


def _json_number(value: float | None) -> float | None:
    """NaN (undefined metric) serializes as null to keep the JSON strict."""
    if value is None or math.isnan(value):
        return None
    return value


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


# The config and adapter of the run whose sessions this worker process runs.
_worker_run: tuple[SessionConfig, ModelAdapter] | None = None

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _start_worker(config: SessionConfig, adapter: ModelAdapter, parent_pid: int) -> None:
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
    _worker_run = (config, adapter)


def _run_in_worker(entry: ManifestEntry) -> EmissionLog | SessionError:
    return _run_one(entry, *_worker_run)


def _run_all(
    entries: list[ManifestEntry], config: SessionConfig, adapter: ModelAdapter
) -> list[EmissionLog | SessionError]:
    """Each entry's ``_run_one`` outcome, in manifest order.

    Forked workers inherit the adapter rather than receiving a pickled copy,
    and each runs a session's NumPy calls exactly as this process would. A
    worker that dies mid-session (killed, out of memory) raises
    ``BrokenProcessPool`` here instead of leaving the run waiting for it.
    Sessions run serially on platforms other than Linux, where a forked
    child may crash; under a real clock, whose step times would grow with
    the sessions sharing cores; and when this process runs other threads,
    since a fork copies only the calling one.
    """
    workers = min(_available_cpus(), len(entries)) if sys.platform == "linux" else 1
    if (
        workers < 2
        or not getattr(adapter, "forkable", False)
        or config.clock == "real"
        or threading.active_count() > 1
    ):
        return [_run_one(entry, config, adapter) for entry in entries]
    # Imported here: the import would add about 5% to the start-up of a one-utterance run.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(config, adapter, os.getpid()),
    ) as executor:
        return list(executor.map(_run_in_worker, entries))


def _mean(values: list[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else math.nan


def aggregate(
    entries: list[ManifestEntry],
    outcomes: list[EmissionLog | str],
    config: SessionConfig | None = None,
) -> EvalResult:
    """Score per-utterance outcomes against their manifest entries.

    ``outcomes[i]`` is the emission log of ``entries[i]``, or the message of
    the error that left it without one. Both ``run`` and ``score`` build
    their reports here, so a run's logs re-score to the same record.
    """
    results = [
        UtteranceResult(id=entry.id, error=outcome)
        if isinstance(outcome, str)
        else UtteranceResult(
            id=entry.id,
            log=outcome,
            latency=latency_report(outcome, entry.reference),
            bleu=bleu(outcome.final_text, entry.reference).bleu,
        )
        for entry, outcome in zip(entries, outcomes, strict=True)
    ]
    succeeded = [(r, entry) for r, entry in zip(results, entries) if not r.failed]
    if succeeded:
        pooled = corpus_bleu(
            [r.log.final_text for r, _ in succeeded],
            [entry.reference for _, entry in succeeded],
        ).bleu
    else:
        pooled = math.nan
    return EvalResult(
        config=config,
        results=tuple(results),
        corpus_bleu=pooled,
        mean_al_s=_mean([r.latency.al_s for r in results if r.latency]),
        mean_laal_s=_mean([r.latency.laal_s for r in results if r.latency]),
        mean_al_ca_s=_mean([r.latency.al_ca_s for r in results if r.latency]),
        mean_laal_ca_s=_mean([r.latency.laal_ca_s for r in results if r.latency]),
    )


def run_eval(
    entries: list[ManifestEntry],
    config: SessionConfig,
    out_dir: Path | None = None,
) -> EvalResult:
    """Evaluate every manifest entry under one config.

    Writes, when ``out_dir`` is given, ``<out_dir>/<run_id>/<utterance>.jsonl``
    per session plus an ``aggregate.json`` record. Per-utterance errors are
    recorded in the result rather than raised; a failed session's log holds
    its commits so far and ends with a record carrying the error.
    """
    if not entries:
        raise ConfigError("manifest is empty")

    adapter = make_adapter(config)
    outcomes = _run_all(entries, config, adapter)
    evaluation = aggregate(
        entries, [str(o) if isinstance(o, SessionError) else o for o in outcomes], config
    )

    if out_dir is not None:
        run_dir = Path(out_dir) / config.run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        for entry, outcome in zip(entries, outcomes):
            path = run_dir / f"{entry.id}.jsonl"
            if isinstance(outcome, SessionError):
                write_failed_log(path, str(outcome), outcome.partial_log)
            else:
                write_emission_log(path, outcome)
        write_bytes_atomic(
            run_dir / "aggregate.json",
            (json.dumps(evaluation.to_record(), indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
    return evaluation


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

    Every grid value is checked before the first run. Rows come back sorted
    by parameter. When the config sets ``laal_cap_s``, rows whose mean
    computational-aware LAAL exceeds the cap are dropped from the curve (the
    underlying EvalResults are all returned).
    """
    values = sorted(set(grid))
    if not values:
        raise ConfigError("sweep grid is empty")
    configs = [base_config.with_sweep_value(value) for value in values]
    rows: list[CurveRow] = []
    evaluations: list[EvalResult] = []
    for value, config in zip(values, configs):
        evaluation = run_eval(entries, config, out_dir=out_dir)
        evaluations.append(evaluation)
        row = CurveRow(
            param=float(value),
            bleu=evaluation.corpus_bleu,
            laal_s=evaluation.mean_laal_s,
            laal_ca_s=evaluation.mean_laal_ca_s,
            al_s=evaluation.mean_al_s,
        )
        if base_config.laal_cap_s is not None and row.laal_ca_s > base_config.laal_cap_s:
            continue
        rows.append(row)
    return rows, evaluations


def param_text(value: float) -> str:
    """``value`` as ``:g`` writes it when that reads back as the same float, else its repr."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def write_curve_csv(path, rows: list[CurveRow]) -> None:
    lines = [CURVE_HEADER]
    for row in rows:
        lines.append(f"{param_text(row.param)},{row.bleu:.4f},{row.laal_s:.4f},{row.laal_ca_s:.4f},{row.al_s:.4f}")
    write_bytes_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
