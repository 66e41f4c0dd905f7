"""Audio feature ingestion: log-Mel filterbanks, global CMVN, feature files.

Framing follows the common speech front-end: 25 ms window, 10 ms shift,
80 Mel bins spanning 0..Nyquist on the HTK Mel scale, Hann window, power
spectrum, natural log floored at 1e-10.

Feature files are little-endian binary: magic ``SGFB``, u32 version, u32 T,
u32 F, f32 frame_shift_ms, then T*F float32 values row-major.
"""

from __future__ import annotations

import json
import math
import struct
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .manifest import write_bytes_atomic

__all__ = [
    "FRAME_SHIFT_MS",
    "FRAME_WINDOW_MS",
    "NUM_MEL_BINS",
    "LOG_FLOOR",
    "SUPPORTED_RATES",
    "FeatureFileError",
    "FeatureMatrix",
    "hz_to_mel",
    "mel_to_hz",
    "frame_count",
    "logmel",
    "read_wav",
    "CmvnStats",
    "compute_cmvn_stats",
    "global_cmvn",
    "save_cmvn_stats",
    "load_cmvn_stats",
    "write_features",
    "read_features",
    "load_source_features",
]

FRAME_SHIFT_MS = 10.0
FRAME_WINDOW_MS = 25.0
NUM_MEL_BINS = 80
LOG_FLOOR = 1e-10
SUPPORTED_RATES = (8000, 16000, 22050, 44100, 48000)

FEATURE_MAGIC = b"SGFB"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIIIf")


class FeatureFileError(ValueError):
    """Raised for malformed feature files."""


@dataclass(frozen=True)
class FeatureMatrix:
    """T x F frame matrix with its framing metadata (float32 frames)."""

    frames: np.ndarray
    frame_shift_ms: float = FRAME_SHIFT_MS

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise ValueError("feature matrix contains non-finite values")
        if not 0.0 < self.frame_shift_ms < math.inf:
            raise ValueError(f"frame shift must be finite and positive, got {self.frame_shift_ms} ms")
        object.__setattr__(self, "frames", frames)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.frames.shape[1]

    @property
    def duration_s(self) -> float:
        return self.num_frames * self.frame_shift_ms / 1000.0


def hz_to_mel(hz):
    """HTK Mel scale: 2595 * log10(1 + hz / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=float) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (np.power(10.0, np.asarray(mel, dtype=float) / 2595.0) - 1.0)


def _mel_filterbank(n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters, their edges evenly spaced in Mel from 0 Hz to Nyquist."""
    points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), NUM_MEL_BINS + 2))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    bank = np.zeros((NUM_MEL_BINS, freqs.shape[0]))
    for b in range(NUM_MEL_BINS):
        left, center, right = points[b], points[b + 1], points[b + 2]
        rising = (freqs - left) / max(center - left, 1e-12)
        falling = (right - freqs) / max(right - center, 1e-12)
        bank[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def _window_and_hop(sample_rate: int) -> tuple[int, int]:
    """Samples in one analysis window and in one frame shift at ``sample_rate``."""
    return tuple(int(round(sample_rate * ms / 1000.0)) for ms in (FRAME_WINDOW_MS, FRAME_SHIFT_MS))


def frame_count(num_samples: int, sample_rate: int) -> int:
    """Frames produced by the 25 ms / 10 ms framing: 1 + floor((N - win) / hop)."""
    win, hop = _window_and_hop(sample_rate)
    if num_samples < win:
        raise ValueError(f"audio of {num_samples} samples is shorter than one {win}-sample window")
    return 1 + (num_samples - win) // hop


def logmel(samples: np.ndarray, sample_rate: int) -> FeatureMatrix:
    """Log-Mel filterbank features from mono PCM samples.

    Args:
        samples: 1-D waveform, float or integer PCM.
        sample_rate: one of SUPPORTED_RATES.

    Returns:
        FeatureMatrix of shape (T, NUM_MEL_BINS) with T per ``frame_count``.
    """
    if sample_rate not in SUPPORTED_RATES:
        raise ValueError(f"unsupported sample rate {sample_rate}; expected one of {SUPPORTED_RATES}")
    wav = np.asarray(samples, dtype=float).ravel()
    win, hop = _window_and_hop(sample_rate)
    num_frames = frame_count(wav.shape[0], sample_rate)

    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    window = np.hanning(win)
    bank = _mel_filterbank(n_fft, sample_rate)

    idx = np.arange(win)[None, :] + hop * np.arange(num_frames)[:, None]
    spectrum = np.fft.rfft(wav[idx] * window, n=n_fft, axis=1)
    power = np.abs(spectrum) ** 2
    mel = np.maximum(power @ bank.T, LOG_FLOOR)
    return FeatureMatrix(frames=np.log(mel))


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a RIFF/WAVE file; must be mono 16-bit PCM. Returns (samples in [-1, 1], rate)."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getnchannels() != 1:
                raise ValueError(f"{path}: expected mono audio, got {wav.getnchannels()} channels")
            if wav.getsampwidth() != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, got {8 * wav.getsampwidth()}-bit")
            rate = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError) as exc:
        reason = str(exc) or "unexpected end of file"
        raise ValueError(f"{path}: malformed WAV file: {reason}") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0
    return samples, rate


# ------------------------------------------------------------------ CMVN

@dataclass(frozen=True)
class CmvnStats:
    """Per-dimension mean and variance for global normalization."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).ravel()
        var = np.asarray(self.var, dtype=float).ravel()
        if mean.shape != var.shape:
            raise ValueError("mean and variance must have the same dimension")
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise ValueError("mean and variance must be finite")
        if (var <= 0).any():
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)


def compute_cmvn_stats(features: FeatureMatrix) -> CmvnStats:
    if features.num_frames == 0:
        raise ValueError("no frames to compute CMVN stats from")
    frames = features.frames.astype(float)
    return CmvnStats(mean=frames.mean(axis=0), var=frames.var(axis=0))


def global_cmvn(features: FeatureMatrix, stats: CmvnStats) -> FeatureMatrix:
    """Standardize each dimension: (x - mean) / sqrt(var). Shape preserved."""
    if stats.mean.shape[0] != features.feature_dim:
        raise ValueError(
            f"stats dimension {stats.mean.shape[0]} does not match features ({features.feature_dim})"
        )
    normalized = (features.frames.astype(float) - stats.mean) / np.sqrt(stats.var)
    return FeatureMatrix(frames=normalized, frame_shift_ms=features.frame_shift_ms)


def save_cmvn_stats(path, stats: CmvnStats) -> None:
    payload = {"mean": stats.mean.tolist(), "var": stats.var.tolist()}
    write_bytes_atomic(path, json.dumps(payload).encode("utf-8"))


def load_cmvn_stats(path) -> CmvnStats:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: CMVN stats must be UTF-8 JSON ({exc})") from exc
    if not isinstance(payload, dict) or not {"mean", "var"} <= payload.keys():
        raise ValueError(f"{path}: CMVN stats must be a JSON object with 'mean' and 'var'")
    try:
        return CmvnStats(mean=np.asarray(payload["mean"]), var=np.asarray(payload["var"]))
    except TypeError as exc:
        raise ValueError(f"{path}: CMVN stats must be numbers: {exc}") from exc


# ------------------------------------------------------------------ feature files

def write_features(path, features: FeatureMatrix) -> None:
    header = _HEADER.pack(
        FEATURE_MAGIC,
        FEATURE_VERSION,
        features.num_frames,
        features.feature_dim,
        features.frame_shift_ms,
    )
    body = np.ascontiguousarray(features.frames, dtype="<f4").tobytes()
    write_bytes_atomic(path, header + body)


def read_features(path) -> FeatureMatrix:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise FeatureFileError(f"{path}: truncated header")
    magic, version, t, f, shift_ms = _HEADER.unpack_from(blob)
    if magic != FEATURE_MAGIC:
        raise FeatureFileError(f"{path}: bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise FeatureFileError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 4 * t * f
    if len(blob) != expected:
        raise FeatureFileError(f"{path}: expected {expected} bytes, found {len(blob)}")
    frames = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(t, f)
    try:
        return FeatureMatrix(frames=frames.copy(), frame_shift_ms=float(shift_ms))
    except ValueError as exc:
        raise FeatureFileError(f"{path}: {exc}") from exc


def load_source_features(path) -> FeatureMatrix:
    """Load an utterance source: WAV files run the log-Mel front end, anything else is a feature file."""
    with Path(path).open("rb") as handle:
        head = handle.read(4)
    if head == b"RIFF":
        samples, rate = read_wav(path)
        return logmel(samples, rate)
    return read_features(path)
