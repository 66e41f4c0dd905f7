"""The package's public names: each declared once, in its module's ``__all__``."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simulst

# The library modules, in the order the package root re-exports them; ``cli``
# is the command-line entry point and stays out of the root.
LIBRARY_MODULES = (
    "attention",
    "config",
    "features",
    "manifest",
    "metrics",
    "model",
    "policies",
    "runner",
    "simulator",
    "vocab",
)

# Every name the root exported before the module lists were its only source,
# keyed by the module that defines it. None may go.
PINNED = {
    "attention": [
        "aggregate_attention", "compute_alignment", "softmax", "validate_attention_matrix",
    ],
    "config": ["ConfigError", "SessionConfig"],
    "features": [
        "FRAME_SHIFT_MS", "FRAME_WINDOW_MS", "LOG_FLOOR", "NUM_MEL_BINS", "SUPPORTED_RATES",
        "CmvnStats", "FeatureFileError", "FeatureMatrix", "compute_cmvn_stats", "frame_count",
        "global_cmvn", "hz_to_mel", "load_cmvn_stats", "load_source_features", "logmel",
        "mel_center_frequencies", "mel_to_hz", "read_features", "read_wav", "save_cmvn_stats",
        "write_features", "write_wav",
    ],
    "manifest": ["ManifestEntry", "ManifestError", "load_manifest"],
    "metrics": [
        "LatencyReport", "QualityReport", "average_lagging", "bleu", "corpus_bleu",
        "latency_report", "length_adaptive_average_lagging", "tokenize_13a", "word_delays",
    ],
    "model": [
        "DecodeResult", "EncoderStates", "ModelAdapter", "ScriptStep", "ScriptedAdapter",
        "ToyModel", "ToyModelConfig", "count_words_in_labels",
    ],
    "policies": [
        "AlignAttPolicy", "EDAttPolicy", "LocalAgreementPolicy", "Policy", "PolicyDecision",
        "StepContext", "StopReason", "WaitKPolicy", "alignatt_decide", "edatt_decide",
        "local_agreement_prefix", "longest_common_prefix", "waitk_allowed",
    ],
    "runner": ["EvalResult", "UtteranceResult", "make_adapter", "run_eval", "sweep"],
    "simulator": [
        "Emission", "EmissionLog", "RealClock", "SessionError", "SimulatedClock", "StreamCursor",
        "read_emission_log", "run_session", "write_emission_log", "write_failed_log",
    ],
    "vocab": ["BOUNDARY_MARKER", "Vocabulary", "build_default_vocabulary"],
}


def _module(name: str):
    return importlib.import_module(f"simulst.{name}")


class TestPinnedNames:
    def test_seventy_nine_names(self):
        names = [name for names in PINNED.values() for name in names]
        assert len(names) == len(set(names)) == 79

    @pytest.mark.parametrize("module", sorted(PINNED))
    def test_exported_as_the_defining_modules_object(self, module):
        for name in PINNED[module]:
            assert name in simulst.__all__
            assert getattr(simulst, name) is getattr(_module(module), name)

    def test_import_loads_the_library_and_not_the_cli(self):
        src = str(Path(simulst.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, simulst; print(*sorted(sys.modules))"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
        ours = {name for name in loaded if name.split(".")[0] == "simulst"}
        assert ours == {"simulst"} | {f"simulst.{name}" for name in LIBRARY_MODULES}


class TestDeclaredOnce:
    def test_each_library_module_declares_existing_names(self):
        for module in map(_module, LIBRARY_MODULES):
            assert module.__all__, module.__name__
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_module_lists_are_disjoint(self):
        names = [name for module in LIBRARY_MODULES for name in _module(module).__all__]
        assert len(names) == len(set(names))

    def test_root_exports_the_concatenation(self):
        expected = [name for module in LIBRARY_MODULES for name in _module(module).__all__]
        assert simulst.__all__ == expected
        for module in LIBRARY_MODULES:
            for name in _module(module).__all__:
                assert getattr(simulst, name) is getattr(_module(module), name)
