"""Latency and quality metrics over emission logs.

Latency follows the average-lagging family, measured over output words of the
detokenized text: AL subtracts an oracle that finishes in reference length,
LAAL divides by max(hypothesis, reference) length so over-generation cannot
be rewarded. Both use the cutoff tau = first word whose delay reaches the
source duration. There is one delay per whitespace-separated word of
``final_text``, the text the committed pieces write (special tokens write
nothing): the delay of the event that wrote the word's last character.

BLEU is a compatible reimplementation of the common corpus metric:
case-sensitive, 13a-style tokenization, up to 4-grams, exponential smoothing
of zero precisions, standard brevity penalty. N-gram orders longer than both
the hypothesis and the reference are dropped from the geometric mean rather
than smoothed, so a hypothesis identical to its reference always scores 100.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass

from .simulator import EmissionLog
from .vocab import piece_text

__all__ = [
    "LatencyReport",
    "QualityReport",
    "word_delays",
    "average_lagging",
    "length_adaptive_average_lagging",
    "latency_report",
    "tokenize_13a",
    "bleu",
    "corpus_bleu",
]

MAX_NGRAM_ORDER = 4


# ------------------------------------------------------------------ latency

def word_delays(log: EmissionLog) -> tuple[list[float], list[float]]:
    """Per-word (ideal, wallclock) delays from an emission log.

    One delay per whitespace-separated word of the text the events' pieces
    write (``piece_text``), which is ``final_text``: the delay of the event
    that wrote the word's last character.
    """
    texts = [piece_text(event.text) for event in log.events]
    ends = list(itertools.accumulate(map(len, texts)))  # characters written up to each event
    words = re.finditer(r"\S+", "".join(texts))
    writers = [log.events[bisect.bisect_left(ends, word.end())] for word in words]
    return [e.ideal_s for e in writers], [e.wall_s for e in writers]


def _cutoff(delays_s, source_duration_s: float) -> int:
    """tau: 1-based index of the first delay reaching the source end, else all."""
    for i, d in enumerate(delays_s, start=1):
        if d >= source_duration_s:
            return i
    return len(delays_s)


def _lagging(delays_s, source_duration_s: float, denominator_len: int) -> float:
    if not len(delays_s):
        return math.nan
    if source_duration_s <= 0:
        raise ValueError(f"source duration must be positive, got {source_duration_s}")
    if denominator_len < 1:
        raise ValueError(f"length denominator must be >= 1, got {denominator_len}")
    tau = _cutoff(delays_s, source_duration_s)
    rate = source_duration_s / denominator_len
    total = sum(delays_s[i] - i * rate for i in range(tau))
    return total / tau


def average_lagging(delays_s, source_duration_s: float, ref_len: int) -> float:
    """AL in seconds; NaN for an empty hypothesis. May be negative."""
    return _lagging(delays_s, source_duration_s, ref_len)


def length_adaptive_average_lagging(delays_s, source_duration_s: float, ref_len: int) -> float:
    """LAAL in seconds: AL with max(len(delays_s), ref_len) in the oracle rate."""
    return _lagging(delays_s, source_duration_s, max(ref_len, len(delays_s)))


@dataclass(frozen=True)
class LatencyReport:
    """AL/LAAL in ideal and computational-aware (wallclock) variants."""

    al_s: float
    laal_s: float
    al_ca_s: float
    laal_ca_s: float


def latency_report(log: EmissionLog, reference: str) -> LatencyReport:
    """Latency metrics of one session against its reference translation."""
    ideal, wall = word_delays(log)
    ref_len = max(len(reference.split()), 1)
    duration = log.source_duration_s
    return LatencyReport(
        al_s=average_lagging(ideal, duration, ref_len),
        laal_s=length_adaptive_average_lagging(ideal, duration, ref_len),
        al_ca_s=average_lagging(wall, duration, ref_len),
        laal_ca_s=length_adaptive_average_lagging(wall, duration, ref_len),
    )


# ------------------------------------------------------------------ BLEU

_13A_ESCAPES = (
    ("<skipped>", ""),
    ("-\n", ""),
    ("\n", " "),
    ("&quot;", '"'),
    ("&amp;", "&"),
    ("&lt;", "<"),
    ("&gt;", ">"),
)
_13A_RULES = (
    (re.compile(r"([{-~\[-` -&(-+:-@/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(-)"), r"\1 - "),
)


def tokenize_13a(text: str) -> list[str]:
    """Language-independent tokenization: split out punctuation, keep case."""
    out = text
    for old, new in _13A_ESCAPES:
        out = out.replace(old, new)
    out = f" {out} "
    for pattern, repl in _13A_RULES:
        out = pattern.sub(repl, out)
    return out.split()


@dataclass(frozen=True)
class QualityReport:
    """BLEU score with its per-order precisions and brevity penalty.

    ``precisions`` holds percentages; orders dropped as vacuous (no n-grams
    of that order on either side) are None.
    """

    bleu: float
    precisions: tuple[float | None, ...]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _ngram_counts(tokens: list[str], order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def _score(matched: list[int], totals: list[int], ref_attested: list[bool], ref_len: int) -> QualityReport:
    hyp_len = totals[0]  # the hypothesis unigrams are its tokens
    if hyp_len == 0:
        return QualityReport(
            bleu=0.0,
            precisions=tuple(0.0 for _ in range(MAX_NGRAM_ORDER)),
            brevity_penalty=0.0,
            hyp_len=0,
            ref_len=ref_len,
        )
    precisions: list[float | None] = []
    smooth = 1.0
    for n in range(MAX_NGRAM_ORDER):
        if matched[n] > 0:
            precisions.append(100.0 * matched[n] / totals[n])
        elif totals[n] == 0 and not ref_attested[n]:
            precisions.append(None)
        else:
            smooth *= 2.0
            precisions.append(100.0 / (smooth * max(totals[n], 1)))
    used = [p for p in precisions if p is not None]
    log_mean = sum(math.log(p) for p in used) / len(used)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return QualityReport(
        bleu=min(bp * math.exp(log_mean), 100.0),
        precisions=tuple(precisions),
        brevity_penalty=bp,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


def bleu(hypothesis: str, reference: str) -> QualityReport:
    """Sentence-level BLEU of one hypothesis against one reference."""
    return corpus_bleu([hypothesis], [reference])


def corpus_bleu(hypotheses, references) -> QualityReport:
    """Corpus BLEU: n-gram counts and lengths pooled over all pairs."""
    hyps = list(hypotheses)
    refs = list(references)
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not refs or any(not r.strip() for r in refs):
        raise ValueError("references must be non-empty")

    matched = [0] * MAX_NGRAM_ORDER
    totals = [0] * MAX_NGRAM_ORDER
    ref_attested = [False] * MAX_NGRAM_ORDER
    ref_len = 0
    for hyp_text, ref_text in zip(hyps, refs):
        hyp = tokenize_13a(hyp_text)
        ref = tokenize_13a(ref_text)
        ref_len += len(ref)
        for n in range(1, MAX_NGRAM_ORDER + 1):
            if len(ref) >= n:
                ref_attested[n - 1] = True
            hyp_counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matched[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
    return _score(matched, totals, ref_attested, ref_len)
