"""The package's public names: each declared once, in its module's ``__all__``."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import simulst
import support

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
# keyed by the module that defines it, less the five that only tests used
# (``MOVED_TO_TESTS``). No other may go.
PINNED = {
    "attention": ["aggregate_attention", "compute_alignment", "softmax"],
    "config": ["ConfigError", "SessionConfig"],
    "features": [
        "FRAME_SHIFT_MS", "FRAME_WINDOW_MS", "LOG_FLOOR", "NUM_MEL_BINS", "SUPPORTED_RATES",
        "CmvnStats", "FeatureFileError", "FeatureMatrix", "compute_cmvn_stats", "frame_count",
        "global_cmvn", "hz_to_mel", "load_cmvn_stats", "load_source_features", "logmel",
        "mel_to_hz", "read_features", "read_wav", "save_cmvn_stats", "write_features",
    ],
    "manifest": ["ManifestEntry", "ManifestError", "load_manifest"],
    "metrics": [
        "LatencyReport", "QualityReport", "average_lagging", "bleu", "corpus_bleu",
        "latency_report", "length_adaptive_average_lagging", "tokenize_13a", "word_delays",
    ],
    "model": [
        "DecodeResult", "EncoderStates", "ModelAdapter", "ToyModel", "ToyModelConfig",
        "count_words_in_labels",
    ],
    "policies": [
        "AlignAttPolicy", "EDAttPolicy", "LocalAgreementPolicy", "Policy", "PolicyDecision",
        "StepContext", "StopReason", "WaitKPolicy", "alignatt_decide", "edatt_decide",
        "local_agreement_prefix", "longest_common_prefix", "waitk_allowed",
    ],
    "runner": ["EvalResult", "UtteranceResult", "make_adapter", "run_eval", "sweep"],
    "simulator": [
        "Emission", "EmissionLog", "RealClock", "SessionError", "SimulatedClock", "StreamCursor",
        "read_emission_log", "run_session", "write_emission_log",
    ],
    "vocab": ["BOUNDARY_MARKER", "Vocabulary", "build_default_vocabulary"],
}

# Public names that no library path ran; they live in ``tests/support.py``.
MOVED_TO_TESTS = (
    "ScriptStep", "ScriptedAdapter", "mel_center_frequencies", "validate_attention_matrix", "write_wav",
)


def _module(name: str):
    return importlib.import_module(f"simulst.{name}")


class TestPinnedNames:
    def test_seventy_three_names(self):
        names = [name for names in PINNED.values() for name in names]
        assert len(names) == len(set(names)) == 73

    def test_test_only_names_left_the_library(self):
        for name in MOVED_TO_TESTS:
            assert name not in simulst.__all__ and name not in dir(simulst)
            assert hasattr(support, name)

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


def _src_trees() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(simulst.__file__).parent.glob("*.py"))
    ]


class TestUsedInLibrary:
    """A public name or method must serve the library: one that only tests use belongs in ``tests/support.py``."""

    @staticmethod
    def uses() -> set[str]:
        """Names read anywhere in ``src/simulst``: loaded names and attributes, not definitions."""
        used = set()
        for tree in _src_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        return used

    def test_every_public_name_is_used_in_src(self):
        assert set(simulst.__all__) - self.uses() == set()

    def test_every_public_method_is_read_in_src(self):
        methods = {
            (cls.name, node.name)
            for tree in _src_trees()
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
        }
        uses = self.uses()
        assert {f"{cls}.{name}" for cls, name in methods if name not in uses} == set()


class TestPrivateNamesRead:
    """A private function, method or module constant must be read in ``src/simulst``, not only by tests."""

    @staticmethod
    def defined() -> set[str]:
        """Private (single-underscore) functions, methods and module constants of ``src/simulst``."""
        names = set()
        for tree in _src_trees():
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
        return {name for name in names if name.startswith("_") and not name.startswith("__")}

    def test_every_private_definition_is_read_in_src(self):
        assert self.defined() - TestUsedInLibrary.uses() == set()


class TestReadmeExample:
    """The README's library example runs as written, so an API change cannot silently break it."""

    def test_the_python_block_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
        assert len(blocks) == 1
        namespace = {}
        exec(compile(blocks[0], "README.md", "exec"), namespace)
        log, printed = namespace["log"], capsys.readouterr().out.splitlines()
        # a line per event, the final text, then the two LAAL figures
        assert log.events and len(printed) == len(log.events) + 2
        assert printed[-2] == log.final_text
