"""Latency (AL/LAAL, ideal and computational-aware) and BLEU."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import (
    Emission,
    EmissionLog,
    Vocabulary,
    average_lagging,
    bleu,
    corpus_bleu,
    latency_report,
    length_adaptive_average_lagging,
    tokenize_13a,
    word_delays,
)

from support import piece_id


def make_log(pieces_with_delays, duration=2.0):
    """pieces_with_delays: list of (piece_text, ideal_s, wall_s)."""
    events = tuple(
        Emission(token=i, text=p, ideal_s=d, wall_s=w)
        for i, (p, d, w) in enumerate(pieces_with_delays)
    )
    text = "".join(p for p, _, _ in pieces_with_delays).replace("▁", " ").strip()
    return EmissionLog(events=events, source_duration_s=duration, final_text=text)


class TestWordDelays:
    def test_word_delay_is_its_last_piece(self):
        log = make_log([("▁heu", 0.5, 0.6), ("te", 1.0, 1.1), ("▁da", 1.5, 1.6)])
        ideal, wall = word_delays(log)
        assert ideal == [1.0, 1.5]
        assert wall == [1.1, 1.6]

    def test_single_word(self):
        ideal, wall = word_delays(make_log([("▁a", 0.3, 0.3)]))
        assert ideal == [0.3]

    def test_leading_continuation_piece_counts_as_first_word(self):
        ideal, _ = word_delays(make_log([("te", 0.4, 0.4), ("▁b", 0.9, 0.9)]))
        assert ideal == [0.4, 0.9]

    def test_empty_log(self):
        assert word_delays(make_log([])) == ([], [])

    def test_marker_only_piece_yields_no_word(self):
        ideal, _ = word_delays(make_log([("▁", 0.5, 0.5)]))
        assert ideal == []


def vocab_log(vocab, tokens, delays, duration):
    """The log of ``tokens`` committed at ``delays`` (ideal and wall alike), as a session writes it."""
    events = tuple(
        Emission(token=t, text=vocab.piece(t), ideal_s=d, wall_s=d) for t, d in zip(tokens, delays)
    )
    return EmissionLog(events=events, source_duration_s=duration, final_text=vocab.detokenize(tokens))


@st.composite
def vocab_logs(draw):
    """A log over a random vocabulary whose pieces may hold inner markers or whitespace."""
    piece = st.text(st.sampled_from("ab▁ \t\n\u3000\u2028"), min_size=1, max_size=4)
    vocab = Vocabulary(draw(st.lists(piece, unique=True, max_size=8)))
    tokens = draw(st.lists(st.integers(0, vocab.size - 1), max_size=12))
    delays = sorted(draw(st.lists(st.floats(0.0, 5.0), min_size=len(tokens), max_size=len(tokens))))
    return vocab_log(vocab, tokens, delays, duration=5.0)


class TestFinalTextWords:
    """AL/LAAL count the words of ``final_text``, whatever pieces wrote them."""

    @settings(max_examples=500, deadline=None)
    @given(log=vocab_logs())
    def test_one_delay_per_word_of_final_text(self, log):
        ideal, wall = word_delays(log)
        assert len(ideal) == len(wall) == len(log.final_text.split())

    def test_special_tokens_write_no_word(self):
        vocab = Vocabulary(["▁a", "▁b"])
        tokens = [vocab.unk_id, piece_id(vocab, "▁a"), piece_id(vocab, "▁b")]
        log = vocab_log(vocab, tokens, [1.0, 2.0, 3.0], duration=3.0)
        assert log.final_text == "a b"
        assert word_delays(log) == ([2.0, 3.0], [2.0, 3.0])
        # two words at 2 and 3 s, oracle rate 1.5 s per word: ((2 - 0) + (3 - 1.5)) / 2
        report = latency_report(log, "a b")
        assert report.al_s == pytest.approx(1.75)
        assert report.laal_s == pytest.approx(1.75)

    def test_inner_marker_ends_a_word(self):
        vocab = Vocabulary(["▁a▁", "b"])
        log = vocab_log(vocab, [piece_id(vocab, "▁a▁"), piece_id(vocab, "b")], [1.0, 2.0], duration=3.0)
        assert log.final_text == "a b"
        assert word_delays(log) == ([1.0, 2.0], [1.0, 2.0])


class TestLaggingWorkedExamples:
    def test_single_word_finishing_with_source(self):
        # one word at 2.0 over a 2 s source, ref_len 1: lag is the full delay
        assert average_lagging([2.0], 2.0, ref_len=1) == pytest.approx(2.0, abs=1e-9)
        assert length_adaptive_average_lagging([2.0], 2.0, ref_len=1) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_two_words_even_schedule(self):
        # delays [1, 2], T=2, ref 2: oracle rate 1 word/s;
        # tau=2 (second delay reaches T): ((1-0) + (2-1)) / 2 = 1
        assert average_lagging([1.0, 2.0], 2.0, ref_len=2) == pytest.approx(1.0, abs=1e-9)

    def test_overgeneration_splits_al_and_laal(self):
        delays = [0.5, 1.0, 1.5, 2.0]
        # ref 2, hyp 4. AL rate T/ref = 1: tau=4,
        # (0.5-0) + (1.0-1) + (1.5-2) + (2.0-3) = -1 -> /4 = -0.25
        assert average_lagging(delays, 2.0, ref_len=2) == pytest.approx(-0.25, abs=1e-9)
        # LAAL rate T/max(2,4) = 0.5: (0.5) + (0.5) + (0.5) + (0.5) = 2 -> 0.5
        assert length_adaptive_average_lagging(delays, 2.0, ref_len=2) == pytest.approx(0.5, abs=1e-9)

    def test_cutoff_excludes_words_after_source_end(self):
        # third word already reaches T=2; later words are excluded
        delays = [1.0, 2.0, 2.0, 2.0]
        # tau=2: ((1-0) + (2-1))/2 = 1.0
        assert average_lagging(delays, 2.0, ref_len=4) == pytest.approx(
            (1.0 - 0.0 + 2.0 - 0.5) / 2, abs=1e-9
        )

    def test_empty_hypothesis_is_nan(self):
        assert math.isnan(average_lagging([], 2.0, ref_len=3))
        assert math.isnan(length_adaptive_average_lagging([], 2.0, ref_len=3))

    def test_validation(self):
        with pytest.raises(ValueError, match="source duration"):
            average_lagging([1.0], 0.0, ref_len=1)
        with pytest.raises(ValueError, match="length denominator"):
            average_lagging([1.0], 2.0, ref_len=0)


class TestLaggingProperties:
    @settings(max_examples=500, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        hyp_len=st.integers(1, 12),
        ref_len=st.integers(1, 12),
        duration=st.floats(0.5, 30.0),
    )
    def test_laal_never_below_al(self, seed, hyp_len, ref_len, duration):
        rng = np.random.default_rng(seed)
        delays = sorted(rng.uniform(0.0, duration, size=hyp_len).tolist())
        al = average_lagging(delays, duration, ref_len)
        laal = length_adaptive_average_lagging(delays, duration, ref_len)
        assert laal >= al - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 10))
    def test_shifting_delays_later_never_decreases_lag(self, seed, n):
        rng = np.random.default_rng(seed)
        duration = 10.0
        delays = sorted(rng.uniform(0.0, 5.0, size=n).tolist())
        shifted = [d + 1.0 for d in delays]
        base = average_lagging(delays, duration, ref_len=n)
        later = average_lagging(shifted, duration, ref_len=n)
        assert later >= base - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 10))
    def test_laal_equals_al_without_overgeneration(self, seed, n):
        rng = np.random.default_rng(seed)
        duration = 8.0
        delays = sorted(rng.uniform(0.0, duration, size=n).tolist())
        ref_len = n + int(rng.integers(0, 4))  # ref at least as long as hyp
        al = average_lagging(delays, duration, ref_len)
        laal = length_adaptive_average_lagging(delays, duration, ref_len)
        assert laal == pytest.approx(al, abs=1e-12)


class TestLatencyReport:
    def test_computational_aware_uses_wall_delays(self):
        log = make_log(
            [("▁a", 0.5, 0.7), ("▁b", 1.0, 1.3), ("▁c", 2.0, 2.4)], duration=2.0
        )
        report = latency_report(log, "x y z")
        assert report.al_s == pytest.approx(
            average_lagging([0.5, 1.0, 2.0], 2.0, ref_len=3)
        )
        assert report.al_ca_s == pytest.approx(
            average_lagging([0.7, 1.3, 2.4], 2.0, ref_len=3)
        )
        assert report.al_ca_s >= report.al_s
        assert report.laal_ca_s >= report.laal_s
        assert word_delays(log) == ([0.5, 1.0, 2.0], [0.7, 1.3, 2.4])
        # tau = 3: every word counts, at the oracle rate 2/3 s per word
        assert report.al_s == pytest.approx((0.5 + (1.0 - 2 / 3) + (2.0 - 4 / 3)) / 3)

    def test_tau_counts_first_delay_reaching_duration(self):
        log = make_log(
            [("▁a", 1.0, 1.0), ("▁b", 2.0, 2.0), ("▁c", 2.0, 2.0)], duration=2.0
        )
        report = latency_report(log, "x y z")
        # tau = 2: the third word, also at 2 s, is cut off
        assert report.al_s == pytest.approx(((1.0 - 0) + (2.0 - 2 / 3)) / 2)
        assert report.laal_s == pytest.approx(report.al_s)

    def test_empty_log_gives_nan(self):
        log = make_log([])
        report = latency_report(log, "x y")
        assert word_delays(log) == ([], [])
        assert all(math.isnan(v) for v in (report.al_s, report.laal_s, report.al_ca_s, report.laal_ca_s))

    def test_empty_reference_clamped_to_one_word(self):
        log = make_log([("▁a", 1.0, 1.0)], duration=2.0)
        report = latency_report(log, "")
        assert report.al_s == pytest.approx(average_lagging([1.0], 2.0, ref_len=1))


class TestTokenize13a:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Hello world", ["Hello", "world"]),
            ("Hello, world!", ["Hello", ",", "world", "!"]),
            ("3,500 people", ["3,500", "people"]),
            ("pages 5-6", ["pages", "5", "-", "6"]),
            ("It was 5.", ["It", "was", "5", "."]),
            ("a&quot;b", ["a", '"', "b"]),
            ("x&amp;y", ["x", "&", "y"]),
            ("", []),
            ("  spaced   out  ", ["spaced", "out"]),
            ("don't", ["don't"]),  # apostrophes are not split

            ("3.5 liters", ["3.5", "liters"]),
        ],
    )
    def test_cases(self, text, expected):
        assert tokenize_13a(text) == expected

    def test_case_is_preserved(self):
        assert tokenize_13a("McDonald") == ["McDonald"]


class TestBleu:
    def test_missing_fourgram_fixture(self):
        # hyp 3 tokens, ref 4: p1=p2=p3=100, the single 4-gram misses,
        # smoothing gives p4=50, bp=exp(1 - 4/3)
        report = bleu("the cat sat", "the cat sat down")
        assert report.precisions == pytest.approx((100.0, 100.0, 100.0, 50.0))
        assert report.brevity_penalty == pytest.approx(math.exp(1.0 - 4.0 / 3.0))
        expected = math.exp(1.0 - 4.0 / 3.0) * math.exp(
            (3 * math.log(100.0) + math.log(50.0)) / 4.0
        )
        assert report.bleu == pytest.approx(expected, abs=1e-9)
        assert report.bleu == pytest.approx(60.25286104785454, abs=1e-6)

    def test_identity_scores_100(self):
        report = bleu("Ich werde heute darüber sprechen", "Ich werde heute darüber sprechen")
        assert report.bleu == pytest.approx(100.0)
        assert report.brevity_penalty == 1.0

    def test_short_identity_drops_vacuous_orders(self):
        # two tokens: no trigrams or 4-grams exist on either side
        report = bleu("hello there", "hello there")
        assert report.bleu == pytest.approx(100.0)
        assert report.precisions[:2] == (100.0, 100.0)
        assert report.precisions[2] is None and report.precisions[3] is None

    def test_disjoint_smoothing_arithmetic(self):
        # no overlap at all: each order smooths to 100 / (2^k * total)
        report = bleu("aa bb cc dd", "ww xx yy zz")
        assert report.precisions == pytest.approx(
            (100.0 / (2 * 4), 100.0 / (4 * 3), 100.0 / (8 * 2), 100.0 / (16 * 1))
        )
        expected = math.exp(sum(math.log(p) for p in report.precisions) / 4.0)
        assert report.bleu == pytest.approx(expected, abs=1e-9)

    def test_long_disjoint_scores_near_zero(self):
        hyp = " ".join(f"h{i}" for i in range(12))
        ref = " ".join(f"r{i}" for i in range(12))
        report = bleu(hyp, ref)
        assert 0.0 < report.bleu < 3.0

    def test_empty_hypothesis_scores_zero(self):
        report = bleu("", "some reference here")
        assert report.bleu == 0.0
        assert report.brevity_penalty == 0.0
        assert report.hyp_len == 0

    def test_long_hypothesis_has_no_brevity_penalty(self):
        report = bleu("a b c d e f", "a b c")
        assert report.brevity_penalty == 1.0

    def test_clipping_counts(self):
        # "the the the" vs "the cat": unigram matches clip at ref count 1
        report = bleu("the the the", "the cat")
        assert report.precisions[0] == pytest.approx(100.0 / 3.0)

    def test_score_never_exceeds_100(self):
        for text in ("a", "a b", "x y z w", "Ich werde heute darüber sprechen ."):
            assert bleu(text, text).bleu <= 100.0

    def test_validation(self):
        with pytest.raises(ValueError, match="hypotheses vs"):
            corpus_bleu(["a", "b"], ["a"])
        with pytest.raises(ValueError, match="references must be non-empty"):
            corpus_bleu(["a"], [" "])
        with pytest.raises(ValueError, match="references must be non-empty"):
            corpus_bleu([], [])

    def test_corpus_pools_counts_not_scores(self):
        hyps = ["the cat sat", "a big dog ran fast"]
        refs = ["the cat sat down", "a big dog ran fast"]
        report = corpus_bleu(hyps, refs)
        # pooled unigrams: 3/3 + 5/5; pooled 4-grams: 0/0 + 2/2 with the
        # first pair contributing a miss -> matched 2 of 2 totals... the
        # miss means matched=2, totals=2 only if the first pair has zero
        # 4-gram totals; hyp "the cat sat" has none, so p4 = 2/2
        assert report.precisions[3] == pytest.approx(100.0)
        assert report.hyp_len == 8
        assert report.ref_len == 9
        # distinct from averaging the two sentence scores
        s1, s2 = bleu(hyps[0], refs[0]).bleu, bleu(hyps[1], refs[1]).bleu
        assert report.bleu != pytest.approx((s1 + s2) / 2.0)

    def test_reconstruction_from_parts(self):
        report = bleu("the quick brown fox jumps", "the quick brown dog jumps high")
        used = [p for p in report.precisions if p is not None]
        reconstructed = report.brevity_penalty * math.exp(
            sum(math.log(p) for p in used) / len(used)
        )
        assert report.bleu == pytest.approx(reconstructed, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 12))
    def test_identity_property(self, seed, n):
        rng = np.random.default_rng(seed)
        words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        text = " ".join(words[i] for i in rng.integers(0, len(words), size=n))
        assert bleu(text, text).bleu == pytest.approx(100.0)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_score_bounds(self, seed):
        rng = np.random.default_rng(seed)
        words = ["aa", "bb", "cc", "dd"]
        hyp = " ".join(words[i] for i in rng.integers(0, 4, size=rng.integers(0, 8)))
        ref = " ".join(words[i] for i in rng.integers(0, 4, size=rng.integers(1, 8)))
        report = bleu(hyp, ref)
        assert 0.0 <= report.bleu <= 100.0
