"""Acceptance gate: ten numbered end-to-end checks, one pass/fail line each.

Each test prints ``criterion NN [PASS|FAIL] <summary>`` so the gate can be
read off a verbose run directly. The checks cover rule-level oracle
equivalence, golden decision scenarios, metric hand-oracles, schedule and
safety laws, byte-level determinism, the desk-scale latency trend, BLEU
spot values, and the attention-layer consumption convention.
"""

import math
import sys
import time
from functools import partial

import numpy as np

from simulst import (
    BOUNDARY_MARKER,
    AlignAttPolicy,
    FeatureMatrix,
    SessionConfig,
    ToyModel,
    ToyModelConfig,
    Vocabulary,
    WaitKPolicy,
    alignatt_decide,
    average_lagging,
    bleu,
    build_default_vocabulary,
    edatt_decide,
    length_adaptive_average_lagging,
    load_manifest,
    local_agreement_prefix,
    longest_common_prefix,
    run_session,
    sweep,
)
from simulst.cli import main as cli_main

from conftest import alignatt_bruteforce, build_suite, random_attention
from support import ScriptStep, ScriptedAdapter, piece_id


def _report(num: int, summary: str, passed: bool) -> None:
    # bypass capture so the gate reads off any pytest invocation
    print(f"criterion {num:02d} [{'PASS' if passed else 'FAIL'}] {summary}", file=sys.__stdout__)
    assert passed, f"criterion {num} failed: {summary}"


def test_01_stopping_rule_matches_bruteforce_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        f = int(rng.integers(1, n + 4))
        num = int(rng.integers(0, 16))
        alignment = rng.integers(0, n, size=num)
        got = alignatt_decide(alignment, n, f).commit_count
        want = alignatt_bruteforce(alignment, n, f, num)
        mismatches += got != want
    elapsed = time.monotonic() - start
    _report(
        1,
        f"1000 randomized decisions vs loop oracle: {mismatches} mismatches in {elapsed:.2f}s",
        mismatches == 0 and elapsed < 5.0,
    )


def test_02_two_timestep_golden_scenario():
    # stream a sentence through a scripted decoder: at t1 the fifth token
    # aligns inside the last-2-frame band, so exactly three words commit;
    # at t2 the band has moved on and the revised continuation flows freely
    vocab = Vocabulary(
        ["▁Ich", "▁werde", "▁heu", "te", "▁darüber", "▁über", "▁Klima", "▁sprechen"]
    )
    pid = partial(piece_id, vocab)
    t1_tokens = (pid("▁Ich"), pid("▁werde"), pid("▁heu"), pid("te"), pid("▁darüber"))
    t2_tokens = (
        pid("▁Ich"), pid("▁werde"), pid("▁heu"), pid("te"),
        pid("▁über"), pid("▁Klima"), pid("▁sprechen"),
    )
    script = {
        10: ScriptStep(tokens=t1_tokens, alignment=(0, 2, 4, 5, 8)),
        20: ScriptStep(tokens=t2_tokens, alignment=(0, 2, 4, 5, 11, 13, 15), eos=True),
        30: ScriptStep(tokens=t2_tokens, alignment=(0, 2, 4, 5, 11, 13, 15), eos=True),
    }
    adapter = ScriptedAdapter(vocab, script)
    source = FeatureMatrix(frames=np.zeros((120, 80), dtype=np.float32))
    log = run_session(source, adapter, AlignAttPolicy(f=2), chunk_ms=400.0)

    t1_text = vocab.detokenize([e.token for e in log.events if e.ideal_s <= 0.4 + 1e-9])
    t2_new = [e.token for e in log.events if 0.4 + 1e-9 < e.ideal_s <= 0.8 + 1e-9]
    passed = (
        t1_text == "Ich werde heute"
        and tuple(t2_new) == t2_tokens[4:]
        and log.final_text == "Ich werde heute über Klima sprechen"
        and len(log.events) == 7
    )
    _report(
        2,
        f'two-timestep fixture commits "{t1_text}" at t1, full continuation at t2 (f=2)',
        passed,
    )


def test_03_monotonicity_suites():
    rng = np.random.default_rng(103)
    f_violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        num = int(rng.integers(0, 12))
        alignment = rng.integers(0, n, size=num)
        counts = [
            alignatt_decide(alignment, n, f).commit_count for f in range(1, n + 2)
        ]
        f_violations += any(a < b for a, b in zip(counts, counts[1:]))

    alpha_grid = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0]
    a_violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 16))
        lam = int(rng.integers(1, n + 3))
        attn = random_attention(rng, m, n)
        counts = [edatt_decide(attn, a, lam).commit_count for a in alpha_grid]
        a_violations += any(a > b for a, b in zip(counts, counts[1:]))
    _report(
        3,
        "commit counts monotone over 1000 matrices each "
        f"(non-increasing in f: {f_violations} violations; "
        f"non-decreasing in alpha: {a_violations} violations)",
        f_violations == 0 and a_violations == 0,
    )


def test_04_lagging_oracles_and_ordering():
    tol = 1e-9
    ok = abs(length_adaptive_average_lagging([2.0], 2.0, ref_len=1) - 2.0) < tol
    ok &= abs(average_lagging([2.0], 2.0, ref_len=1) - 2.0) < tol
    ok &= abs(average_lagging([1.0, 2.0], 2.0, ref_len=2) - 1.0) < tol
    ok &= (
        abs(length_adaptive_average_lagging([1.0, 2.0], 2.0, ref_len=2) - 1.0) < tol
    )
    delays = [0.5, 1.0, 1.5, 2.0]
    ok &= abs(average_lagging(delays, 2.0, ref_len=2) - (-0.25)) < tol
    ok &= (
        abs(length_adaptive_average_lagging(delays, 2.0, ref_len=2) - 0.5)
        < tol
    )

    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(10_000):
        hyp_len = int(rng.integers(1, 14))
        ref_len = int(rng.integers(1, 14))
        duration = float(rng.uniform(0.5, 20.0))
        d = np.sort(rng.uniform(0.0, duration * 1.2, size=hyp_len)).tolist()
        al = average_lagging(d, duration, ref_len)
        laal = length_adaptive_average_lagging(d, duration, ref_len)
        violations += laal < al - 1e-12
    _report(
        4,
        f"three worked AL/LAAL examples at 1e-9; LAAL >= AL on 10000 tuples ({violations} violations)",
        ok and violations == 0,
    )


def test_05_waitk_schedule_law():
    rng = np.random.default_rng(105)
    vocab = build_default_vocabulary()
    ordinary = range(vocab.unk_id + 1, vocab.size)
    starts = [t for t in ordinary if vocab.piece(t).startswith(BOUNDARY_MARKER)]
    pieces = [t for t in ordinary if not vocab.piece(t).startswith(BOUNDARY_MARKER)]
    violations = 0
    checked = 0
    for trial in range(30):
        num_steps = int(rng.integers(3, 8))
        # one scripted master hypothesis, revealed as a growing prefix
        master: list[int] = []
        for _ in range(int(rng.integers(4, 18))):
            master.append(int(rng.choice(starts)) if rng.random() < 0.6 or not master else int(rng.choice(pieces)))
        lengths = np.sort(rng.integers(0, len(master) + 1, size=num_steps)).tolist()
        lengths[-1] = len(master)
        detected = np.sort(rng.integers(0, 12, size=num_steps)).tolist()
        script = {}
        for s in range(num_steps):
            n = 10 * (s + 1)
            count = lengths[s]
            script[n] = ScriptStep(
                tokens=tuple(master[:count]),
                alignment=tuple(0 for _ in range(count)),
                eos=s == num_steps - 1,
                source_words=int(detected[s]),
            )
        adapter = ScriptedAdapter(vocab, script)
        source = FeatureMatrix(frames=np.zeros((40 * num_steps, 80), dtype=np.float32))
        for k in range(2, 8):
            log = run_session(source, adapter, WaitKPolicy(k=k), chunk_ms=400.0)
            final_ideal = max((e.ideal_s for e in log.events), default=0.0)
            for s in range(num_steps - 1):  # flush step exempt by design
                instant = 0.4 * (s + 1) + 1e-9
                committed = [e.token for e in log.events if e.ideal_s <= instant]
                emitted = len(vocab.detokenize(committed).split())
                budget = max(0, int(detected[s]) - k + 1)
                checked += 1
                violations += emitted > budget
    _report(
        5,
        f"wait-k sessions, k in 2..7, scripted detectors: emitted <= max(0, detected-k+1) "
        f"at {checked} instants ({violations} violations)",
        violations == 0 and checked >= 300,
    )


def test_06_agreement_safety():
    rng = np.random.default_rng(106)
    violations = 0
    for _ in range(10_000):
        len_a = int(rng.integers(0, 12))
        len_b = int(rng.integers(0, 12))
        previous = rng.integers(0, 5, size=len_a).tolist()
        current = rng.integers(0, 5, size=len_b).tolist()
        committed = min(int(rng.integers(0, 6)), longest_common_prefix(previous, current))
        decision = local_agreement_prefix(previous, current, committed)
        for i in range(committed, committed + decision.commit_count):
            if i >= len(previous) or i >= len(current) or previous[i] != current[i]:
                violations += 1
                break
    _report(
        6,
        f"local agreement: 10000 hypothesis pairs, committed tokens match in both ({violations} violations)",
        violations == 0,
    )


def test_07_end_to_end_determinism(tmp_path, capsys):
    manifest = build_suite(tmp_path / "suite3", num_utterances=3, min_frames=100, max_frames=220)
    config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
    argv = [
        "run", "--manifest", str(manifest),
        "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
    ]
    code_a = cli_main(argv + ["--out", str(tmp_path / "a")])
    code_b = cli_main(argv + ["--out", str(tmp_path / "b")])
    capsys.readouterr()
    identical = code_a == 0 and code_b == 0
    names = [f"utt{i:03d}.jsonl" for i in range(3)] + ["aggregate.json"]
    for name in names:
        a = (tmp_path / "a" / config.run_id / name).read_bytes()
        b = (tmp_path / "b" / config.run_id / name).read_bytes()
        identical &= a == b
    _report(
        7,
        "two CLI runs over the 3-utterance manifest: emission logs and aggregates byte-identical",
        identical,
    )


def test_08_latency_trend_on_synthetic_suite(tmp_path):
    start = time.monotonic()
    manifest = build_suite(tmp_path / "suite20", num_utterances=20)
    entries = load_manifest(manifest)
    base = SessionConfig(policy="alignatt", f=2, chunk_ms=500.0, step_cost_s=0.01)
    rows, evaluations = sweep(entries, base, [2, 14])
    elapsed = time.monotonic() - start

    trend = rows[0].laal_s < rows[1].laal_s
    ca_bound = True
    for evaluation in evaluations:
        for result in evaluation.results:
            ca_bound &= not result.failed
            ca_bound &= not math.isnan(result.latency.laal_s)
            ca_bound &= result.latency.laal_ca_s >= result.latency.laal_s - 1e-12
    _report(
        8,
        f"20-utterance sweep f in {{2,14}}: mean LAAL {rows[0].laal_s:.3f} < {rows[1].laal_s:.3f}, "
        f"CA-LAAL >= ideal on all 40 sessions, {elapsed:.1f}s",
        trend and ca_bound and elapsed < 60.0,
    )


def test_09_bleu_spot_checks():
    fixture = bleu("the cat sat", "the cat sat down")
    hand_value = math.exp(1.0 - 4.0 / 3.0) * math.exp(
        (3.0 * math.log(100.0) + math.log(50.0)) / 4.0
    )
    ok = abs(fixture.bleu - hand_value) <= 0.1
    ok &= abs(fixture.bleu - 60.25286104785454) <= 0.1
    identity = bleu(
        "Ich werde heute über Klima sprechen", "Ich werde heute über Klima sprechen"
    )
    ok &= abs(identity.bleu - 100.0) <= 0.1
    hyp = " ".join(f"h{i}" for i in range(12))
    ref = " ".join(f"r{i}" for i in range(12))
    disjoint = bleu(hyp, ref)
    # zero raw overlap: score is pure smoothing, bounded well below 3
    smoothed = math.exp(
        sum(math.log(100.0 / (2.0 ** (n + 1) * (12 - n))) for n in range(4)) / 4.0
    )
    ok &= abs(disjoint.bleu - smoothed) <= 0.1 and disjoint.bleu < 3.0
    _report(
        9,
        f"spot values: fixture {fixture.bleu:.4f}~60.2529, identity {identity.bleu:.1f}, "
        f"disjoint {disjoint.bleu:.4f}<3",
        ok,
    )


class _MarkedAttention:
    """Wraps an adapter; repaints one decoder layer's attention as one-hot
    on the newest frame, for every head and every row."""

    def __init__(self, inner, layer: int):
        self._inner = inner
        self._layer = layer
        self.vocab = inner.vocab
        self.num_decoder_layers = inner.num_decoder_layers
        self.num_heads = inner.num_heads

    def encode(self, feats):
        return self._inner.encode(feats)

    def decode_greedy(self, enc, forced_prefix, max_new=128):
        result = self._inner.decode_greedy(enc, forced_prefix, max_new)
        marked = result.attention.copy()
        marked[self._layer, :, :, :] = 0.0
        marked[self._layer, :, :, -1] = 1.0
        return type(result)(tokens=result.tokens, attention=marked, eos_reached=result.eos_reached)

    def count_source_words(self, feats):
        return self._inner.count_source_words(feats)


def test_10_policy_reads_layer_three_head_mean():
    config = ToyModelConfig(num_decoder_layers=6, num_heads=8, seed=0)
    vocab = build_default_vocabulary()
    rng = np.random.default_rng(7)
    source = FeatureMatrix(frames=rng.normal(size=(200, 80)).astype(np.float32))

    def schedule(adapter):
        log = run_session(source, adapter, AlignAttPolicy(f=4), chunk_ms=500.0)
        return [(e.token, round(e.ideal_s, 6)) for e in log.events]

    base = schedule(ToyModel(config, vocab))
    marked_3 = schedule(_MarkedAttention(ToyModel(config, vocab), layer=3))
    marked_2 = schedule(_MarkedAttention(ToyModel(config, vocab), layer=2))

    base_has_early = any(t < 2.0 for _, t in base)
    flip = marked_3 != base and all(t == 2.0 for _, t in marked_3)
    untouched = marked_2 == base
    _report(
        10,
        "6-layer/8-head decoder: marker in layer 3 flips every pre-flush decision, "
        "marker in layer 2 changes nothing",
        base_has_early and flip and untouched,
    )
