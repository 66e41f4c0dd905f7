"""Audio front end: framing, log-Mel, CMVN, WAV and feature-file round trips."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import (
    FRAME_SHIFT_MS,
    LOG_FLOOR,
    NUM_MEL_BINS,
    CmvnStats,
    FeatureFileError,
    FeatureMatrix,
    compute_cmvn_stats,
    frame_count,
    global_cmvn,
    hz_to_mel,
    load_cmvn_stats,
    load_source_features,
    logmel,
    mel_to_hz,
    read_features,
    read_wav,
    save_cmvn_stats,
    write_features,
)

from support import mel_center_frequencies, write_wav


class TestFraming:
    def test_one_second_at_16khz_gives_98_frames(self):
        assert frame_count(16000, 16000) == 98

    def test_exact_window_is_one_frame(self):
        assert frame_count(400, 16000) == 1

    def test_rejects_sub_window_audio(self):
        with pytest.raises(ValueError, match="shorter than one"):
            frame_count(399, 16000)

    @settings(max_examples=200, deadline=None)
    @given(num_samples=st.integers(400, 48000))
    def test_matches_hop_arithmetic(self, num_samples):
        # 16 kHz: 400-sample window, 160-sample hop
        expected = 1 + (num_samples - 400) // 160
        assert frame_count(num_samples, 16000) == expected

    def test_count_agrees_with_logmel_output(self):
        rng = np.random.default_rng(0)
        for num_samples in (400, 401, 560, 7003, 16000):
            wav = rng.normal(scale=0.1, size=num_samples)
            feats = logmel(wav, 16000)
            assert feats.num_frames == frame_count(num_samples, 16000)


class TestLogMel:
    def test_output_shape_and_metadata(self):
        feats = logmel(np.random.default_rng(1).normal(size=8000), 16000)
        assert feats.feature_dim == NUM_MEL_BINS
        assert feats.frame_shift_ms == FRAME_SHIFT_MS
        assert feats.duration_s == pytest.approx(feats.num_frames * 0.01)

    def test_silence_hits_log_floor(self):
        feats = logmel(np.zeros(1600), 16000)
        assert np.allclose(feats.frames, math.log(LOG_FLOOR))

    def test_pure_tone_peaks_at_matching_mel_bin(self):
        rate = 16000
        t = np.arange(rate) / rate
        tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        feats = logmel(tone, rate)
        centers = mel_center_frequencies(rate)
        expected_bin = int(np.argmin(np.abs(centers - 440.0)))
        # every frame of a steady tone should peak at (or next to) the bin
        # whose center is nearest 440 Hz
        peak_bins = np.argmax(feats.frames, axis=1)
        assert np.all(np.abs(peak_bins - expected_bin) <= 1)

    def test_louder_signal_has_larger_features(self):
        rng = np.random.default_rng(2)
        wav = rng.normal(scale=0.05, size=4000)
        quiet = logmel(wav, 16000)
        loud = logmel(10.0 * wav, 16000)
        assert loud.frames.mean() > quiet.frames.mean()

    def test_rejects_unsupported_rate(self):
        with pytest.raises(ValueError, match="unsupported sample rate"):
            logmel(np.zeros(4000), 12345)

    def test_mel_scale_round_trip(self):
        for hz in (0.0, 125.0, 440.0, 4000.0, 7999.0):
            assert mel_to_hz(hz_to_mel(hz)) == pytest.approx(hz, abs=1e-6)

    def test_mel_centers_monotone_below_nyquist(self):
        centers = mel_center_frequencies(16000)
        assert centers.shape == (NUM_MEL_BINS,)
        assert np.all(np.diff(centers) > 0)
        assert centers[-1] < 8000.0


class TestFeatureMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            FeatureMatrix(frames=np.zeros(8, dtype=np.float32))
        bad = np.zeros((2, 2), dtype=np.float32)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            FeatureMatrix(frames=bad)

    @pytest.mark.parametrize("shift_ms", [0.0, -10.0, math.nan, math.inf])
    def test_rejects_frame_shift_not_finite_and_positive(self, shift_ms):
        with pytest.raises(ValueError, match="frame shift must be finite and positive"):
            FeatureMatrix(frames=np.zeros((2, 2), dtype=np.float32), frame_shift_ms=shift_ms)

    def test_duration_uses_frame_shift(self):
        feats = FeatureMatrix(frames=np.zeros((30, 4), dtype=np.float32), frame_shift_ms=20.0)
        assert feats.duration_s == pytest.approx(0.6)


def write_half_then_fail(monkeypatch):
    """From here on, ``Path.write_bytes`` and ``Path.write_text`` write half their data, then raise."""

    def half(path, data, encoding=None, **_):
        if isinstance(data, str):
            data = data.encode(encoding or "utf-8")
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half)
    monkeypatch.setattr(Path, "write_text", half)


class TestCmvn:
    def test_hand_oracle_3x2(self):
        feats = FeatureMatrix(frames=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 8.0]], dtype=np.float32))
        stats = compute_cmvn_stats(feats)
        assert stats.mean == pytest.approx([2.0, 4.0])
        # population variance: mean of squared deviations
        assert stats.var == pytest.approx([8.0 / 3.0, (9.0 + 1.0 + 16.0) / 3.0])
        normalized = global_cmvn(feats, stats)
        for i in range(3):
            for j in range(2):
                expected = (feats.frames[i, j] - stats.mean[j]) / math.sqrt(stats.var[j])
                assert normalized.frames[i, j] == pytest.approx(expected, abs=1e-6)

    def test_self_stats_standardize(self):
        rng = np.random.default_rng(3)
        feats = FeatureMatrix(frames=rng.normal(2.0, 3.0, size=(200, 5)).astype(np.float32))
        out = global_cmvn(feats, compute_cmvn_stats(feats))
        assert np.allclose(out.frames.mean(axis=0), 0.0, atol=1e-5)
        assert np.allclose(out.frames.var(axis=0), 1.0, atol=1e-4)

    def test_idempotent_once_standardized(self):
        rng = np.random.default_rng(4)
        feats = FeatureMatrix(frames=rng.normal(size=(50, 3)).astype(np.float32))
        once = global_cmvn(feats, compute_cmvn_stats(feats))
        twice = global_cmvn(once, compute_cmvn_stats(once))
        assert np.allclose(once.frames, twice.frames, atol=1e-5)

    def test_preserves_frame_metadata(self):
        feats = FeatureMatrix(frames=np.ones((4, 2), dtype=np.float32) * 3, frame_shift_ms=12.5)
        stats = CmvnStats(mean=np.zeros(2), var=np.ones(2))
        assert global_cmvn(feats, stats).frame_shift_ms == 12.5

    def test_dimension_mismatch(self):
        feats = FeatureMatrix(frames=np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="does not match"):
            global_cmvn(feats, CmvnStats(mean=np.zeros(2), var=np.ones(2)))

    def test_rejects_non_positive_variance(self):
        with pytest.raises(ValueError, match="strictly positive"):
            CmvnStats(mean=np.zeros(2), var=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="same dimension"):
            CmvnStats(mean=np.zeros(2), var=np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mean", "var"])
    def test_rejects_non_finite_stats(self, field, bad):
        values = {"mean": np.zeros(2), "var": np.ones(2)}
        values[field][1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            CmvnStats(**values)

    @pytest.mark.parametrize(
        "frames,message",
        [(np.ones((0, 3)), "no frames"), (np.ones((1, 3)), "strictly positive"),
         (np.full((40, 3), LOG_FLOOR), "strictly positive")],
        ids=["zero_frames", "one_frame", "constant"],
    )
    def test_stats_of_input_that_cannot_be_normalized(self, frames, message):
        with pytest.raises(ValueError, match=message):
            compute_cmvn_stats(FeatureMatrix(frames=frames.astype(np.float32)))

    def test_json_round_trip(self, tmp_path):
        stats = CmvnStats(mean=np.array([1.5, -2.0]), var=np.array([0.25, 9.0]))
        path = tmp_path / "cmvn.json"
        save_cmvn_stats(path, stats)
        loaded = load_cmvn_stats(path)
        assert np.array_equal(loaded.mean, stats.mean)
        assert np.array_equal(loaded.var, stats.var)

    def test_failed_write_keeps_earlier_stats(self, tmp_path, monkeypatch):
        path = tmp_path / "cmvn.json"
        save_cmvn_stats(path, CmvnStats(mean=np.zeros(2), var=np.ones(2)))
        before = path.read_bytes()
        write_half_then_fail(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            save_cmvn_stats(path, CmvnStats(mean=np.full(2, 7.0), var=np.full(2, 3.0)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cmvn.json"]

    @pytest.mark.parametrize("payload", ['[0.0, 1.0]', '{"mean": [0.0]}'])
    def test_load_rejects_payload_without_both_keys(self, tmp_path, payload):
        path = tmp_path / "cmvn.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object with 'mean' and 'var'") as info:
            load_cmvn_stats(path)
        assert str(path) in str(info.value)


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        # every metadata field away from its default, so one the file drops shows
        metadata = {
            field.name: 2 * field.default
            for field in dataclasses.fields(FeatureMatrix)
            if field.name != "frames"
        }
        feats = FeatureMatrix(frames=rng.normal(size=(37, 80)).astype(np.float32), **metadata)
        path = tmp_path / "utt.sgfb"
        write_features(path, feats)
        loaded = read_features(path)
        assert np.array_equal(loaded.frames, feats.frames)
        assert loaded.frames.dtype == np.float32
        for name, value in metadata.items():
            assert getattr(loaded, name) == value, name

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "utt.sgfb"
        write_features(path, FeatureMatrix(frames=np.zeros((2, 2), dtype=np.float32)))
        before = path.read_bytes()
        write_half_then_fail(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            write_features(path, FeatureMatrix(frames=np.ones((40, 80), dtype=np.float32)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["utt.sgfb"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sgfb"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(FeatureFileError, match="bad magic"):
            read_features(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.sgfb"
        path.write_bytes(b"SG")
        with pytest.raises(FeatureFileError, match="truncated header"):
            read_features(path)

    def test_wrong_version(self, tmp_path):
        feats = FeatureMatrix(frames=np.zeros((2, 2), dtype=np.float32))
        path = tmp_path / "v.sgfb"
        write_features(path, feats)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError, match="unsupported version"):
            read_features(path)

    def test_byte_count_mismatch(self, tmp_path):
        feats = FeatureMatrix(frames=np.zeros((2, 2), dtype=np.float32))
        path = tmp_path / "short.sgfb"
        write_features(path, feats)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FeatureFileError, match="expected .* bytes"):
            read_features(path)

    def test_non_finite_frames_name_the_file(self, tmp_path):
        path = tmp_path / "nan.sgfb"
        write_features(path, FeatureMatrix(frames=np.zeros((2, 2), dtype=np.float32)))
        path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).astype("<f4").tobytes())
        with pytest.raises(FeatureFileError) as caught:
            read_features(path)
        assert str(caught.value) == f"{path}: feature matrix contains non-finite values"


class TestWav:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        samples = np.clip(rng.normal(scale=0.2, size=1600), -1.0, 1.0)
        path = tmp_path / "a.wav"
        write_wav(path, samples, 16000)
        loaded, rate = read_wav(path)
        assert rate == 16000
        assert loaded.shape == samples.shape
        # write scales by 32767 and truncates, read divides by 32768: the
        # combined error stays under two quantization steps
        assert np.max(np.abs(loaded - samples)) <= 2.0 / 32768 + 1e-9

    def test_rejects_stereo(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(2)
            wav.setsampwidth(2)
            wav.setframerate(16000)
            wav.writeframes(b"\0\0" * 800)
        with pytest.raises(ValueError, match="mono"):
            read_wav(path)

    def test_rejects_8_bit(self, tmp_path):
        import wave

        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(1)
            wav.setframerate(16000)
            wav.writeframes(b"\0" * 800)
        with pytest.raises(ValueError, match="16-bit"):
            read_wav(path)

    @pytest.mark.parametrize("blob", [b"RIFF", b"RIFF\x08\x00\x00\x00WAVEJUNK"])
    def test_rejects_malformed_riff(self, tmp_path, blob):
        path = tmp_path / "bad.wav"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"{path}: malformed WAV file"):
            read_wav(path)


class TestSourceDispatch:
    def test_wav_goes_through_front_end(self, tmp_path):
        rng = np.random.default_rng(7)
        samples = np.clip(rng.normal(scale=0.2, size=8000), -1.0, 1.0)
        path = tmp_path / "utt.wav"
        write_wav(path, samples, 16000)
        feats = load_source_features(path)
        assert feats.feature_dim == NUM_MEL_BINS
        assert feats.num_frames == frame_count(8000, 16000)

    def test_feature_file_loads_directly(self, tmp_path):
        original = FeatureMatrix(frames=np.random.default_rng(8).normal(size=(11, 80)).astype(np.float32))
        path = tmp_path / "utt.sgfb"
        write_features(path, original)
        feats = load_source_features(path)
        assert np.array_equal(feats.frames, original.frames)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(FeatureFileError):
            load_source_features(path)
