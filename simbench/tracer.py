"""Per-layer timing from outside the program, for the traced run.

Two mechanisms record spans around the calls into each layer:

* ``ProxyAdapter`` and ``ProxyPolicy`` wrap the adapter and the policy that
  ``run_session`` receives and time every call made on them;
* ``installed`` swaps timing wrappers in for the module attributes that
  ``simulst.runner`` and ``simulst.simulator`` look up at call time, and
  restores the originals on exit.

Spans are kept in memory as (name, start, end, parent, session) and written
out when the run ends. The layer of a span is the first dotted part of its
name, named after the module it times.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Sequence

import numpy as np

from simulst import runner, simulator
from simulst.config import POLICY_NAMES
from simulst.model import DEFAULT_MAX_NEW, DecodeResult, EncoderStates, ModelAdapter
from simulst.policies import Policy, PolicyDecision, StepContext


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        # [name, start, end, parent index or -1, session id or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.session_audio_s: dict[int, float] = {}
        self.session: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.session])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for name, start, end, parent, session in self.spans:
                record = {
                    "name": name,
                    "start_s": start - self.t0,
                    "end_s": end - self.t0,
                    "parent": parent,
                    "session": session,
                }
                handle.write(json.dumps(record) + "\n")


class ProxyAdapter:
    """Forwards the ``ModelAdapter`` contract to another adapter, timing each call."""

    def __init__(self, inner: ModelAdapter, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.num_decoder_layers = inner.num_decoder_layers
        self.num_heads = inner.num_heads
        self.vocab = inner.vocab

    def encode(self, raw_features: np.ndarray) -> EncoderStates:
        with self._tracer.span("model.encode"):
            states = self._inner.encode(raw_features)
        self._tracer.counts["model.encode.frames"] += len(raw_features)
        return states

    def decode_greedy(
        self, enc: EncoderStates, forced_prefix: Sequence[int], max_new: int = DEFAULT_MAX_NEW
    ) -> DecodeResult:
        with self._tracer.span("model.decode"):
            result = self._inner.decode_greedy(enc, forced_prefix, max_new=max_new)
        self._tracer.counts["model.decode.prefix_tokens"] += len(forced_prefix)
        self._tracer.counts["model.decode.new_tokens"] += len(result.tokens) - len(forced_prefix)
        return result

    def count_source_words(self, raw_features: np.ndarray) -> int:
        with self._tracer.span("model.count_words"):
            return self._inner.count_source_words(raw_features)


class ProxyPolicy(Policy):
    """Forwards to another policy, timing each decision."""

    def __init__(self, inner: Policy, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name
        self.uses_word_counts = inner.uses_word_counts

    def reset(self) -> None:
        self._inner.reset()

    def decide(self, ctx: StepContext) -> PolicyDecision:
        with self._tracer.span("policies.decide"):
            return self._inner.decide(ctx)


@contextmanager
def installed(tracer: Tracer):
    """Put timing wrappers in place of the layer functions runner and simulator call."""
    originals: list[tuple[object, str, object]] = []

    def patch(module, attr: str, replacement) -> None:
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wraps(getattr(module, attr))(replacement))

    def timed(module, attr: str, name: str) -> None:
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return inner(*args, **kwargs)

        patch(module, attr, wrapper)

    run_eval, make_adapter = runner.run_eval, runner.make_adapter
    run_session, write_log = runner.run_session, runner.write_emission_log

    def traced_run_eval(entries, config, *args, **kwargs):
        with tracer.span(f"runner.run_eval.{config.policy}"):
            return run_eval(entries, config, *args, **kwargs)

    def traced_make_adapter(config):
        with tracer.span("runner.make_adapter"):
            adapter = make_adapter(config)
        return ProxyAdapter(adapter, tracer)

    def traced_run_session(source, adapter, policy, **kwargs):
        session = len(tracer.session_audio_s)
        tracer.session_audio_s[session] = source.duration_s
        tracer.session = session
        try:
            with tracer.span("simulator.session"):
                log = run_session(source, adapter, ProxyPolicy(policy, tracer), **kwargs)
        finally:
            tracer.session = None
        tracer.counts["policies.committed_tokens"] += len(log.events)
        return log

    def traced_write_log(path, log):
        with tracer.span("simulator.write_log"):
            write_log(path, log)
        tracer.counts["simulator.write_log.bytes"] += Path(path).stat().st_size

    try:
        patch(runner, "run_eval", traced_run_eval)
        patch(runner, "make_adapter", traced_make_adapter)
        patch(runner, "run_session", traced_run_session)
        patch(runner, "write_emission_log", traced_write_log)
        timed(runner, "sweep", "runner.sweep")
        timed(runner, "write_curve_csv", "runner.write_curve_csv")
        timed(runner, "load_source_features", "features.load")
        for attr in ("latency_report", "bleu", "corpus_bleu"):
            timed(runner, attr, f"metrics.{attr}")
        timed(simulator, "aggregate_attention", "attention.aggregate")
        timed(simulator, "compute_alignment", "attention.alignment")
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


# ------------------------------------------------------------------ metrics

def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def root_seconds(spans: list[list]) -> float:
    """Time covered by spans without a parent; their self times partition it."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as totals per pass over the workload's operations.

    Percentiles are taken over every step or session of the traced passes.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    total_ms: defaultdict = defaultdict(float)
    self_ms: defaultdict = defaultdict(float)
    encode_starts: defaultdict = defaultdict(list)
    session_end: dict[int, float] = {}
    session_ms: dict[int, float] = {}
    for (name, start, end, parent, session), own_s in zip(spans, own):
        calls[name] += 1
        total_ms[name] += (end - start) * 1e3
        self_ms[name] += own_s * 1e3
        if name == "model.encode":
            encode_starts[session].append(start)
        elif name == "simulator.session":
            session_end[session] = end
            session_ms[session] = (end - start) * 1e3

    step_ms = []
    for session, starts in encode_starts.items():
        bounds = starts + [session_end[session]]
        step_ms.extend((b - a) * 1e3 for a, b in zip(bounds, bounds[1:]))
    session_rtf = [ms / 1e3 / tracer.session_audio_s[s] for s, ms in session_ms.items()]

    def group(prefix: str, table) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    runner_spans = [k for k in calls if k.startswith("runner.") and k != "runner.make_adapter"]
    new_tokens = tracer.counts["model.decode.new_tokens"]
    per = 1.0 / passes
    out: dict[str, tuple[float, str]] = {
        "model.decode.calls": (calls["model.decode"] * per, "count"),
        "model.decode.ms": (total_ms["model.decode"] * per, "ms"),
        "model.decode.prefix_tokens": (tracer.counts["model.decode.prefix_tokens"] * per, "count"),
        "model.decode.new_tokens": (new_tokens * per, "count"),
        "model.encode.calls": (calls["model.encode"] * per, "count"),
        "model.encode.ms": (total_ms["model.encode"] * per, "ms"),
        "model.encode.frames": (tracer.counts["model.encode.frames"] * per, "count"),
        "model.count_words.calls": (calls["model.count_words"] * per, "count"),
        "model.count_words.ms": (total_ms["model.count_words"] * per, "ms"),
        "policies.decide.calls": (calls["policies.decide"] * per, "count"),
        "policies.decide.ms": (total_ms["policies.decide"] * per, "ms"),
        "policies.committed_tokens": (tracer.counts["policies.committed_tokens"] * per, "count"),
        "policies.useful_ratio": (
            tracer.counts["policies.committed_tokens"] / new_tokens if new_tokens else 0.0,
            "ratio",
        ),
        "attention.calls": (group("attention.", calls) * per, "count"),
        "attention.ms": (group("attention.", total_ms) * per, "ms"),
        "simulator.sessions": (calls["simulator.session"] * per, "count"),
        "simulator.steps": (len(step_ms) * per, "count"),
        "simulator.step_ms.p50": (_percentile(step_ms, 50), "ms"),
        "simulator.step_ms.p90": (_percentile(step_ms, 90), "ms"),
        "simulator.session_rtf.p50": (_percentile(session_rtf, 50), "ratio"),
        "simulator.session_rtf.p90": (_percentile(session_rtf, 90), "ratio"),
        "simulator.self_ms": (self_ms["simulator.session"] * per, "ms"),
        "simulator.write_log.ms": (total_ms["simulator.write_log"] * per, "ms"),
        "simulator.write_log.bytes": (tracer.counts["simulator.write_log.bytes"] * per, "bytes"),
        "features.load.calls": (calls["features.load"] * per, "count"),
        "features.load.ms": (total_ms["features.load"] * per, "ms"),
        "metrics.calls": (group("metrics.", calls) * per, "count"),
        "metrics.ms": (group("metrics.", total_ms) * per, "ms"),
        "runner.make_adapter.calls": (calls["runner.make_adapter"] * per, "count"),
        "runner.make_adapter.ms": (total_ms["runner.make_adapter"] * per, "ms"),
        "runner.self_ms": (sum(self_ms[k] for k in runner_spans) * per, "ms"),
    }
    for policy in POLICY_NAMES:
        out[f"runner.run_eval.ms.{policy}"] = (total_ms[f"runner.run_eval.{policy}"] * per, "ms")
    return out
