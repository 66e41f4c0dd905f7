"""The summary that tools/bench_pairs.py writes of benchmark runs, from canned run output, and the
trees it runs them from."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "audio_s_per_s", "unit": "s/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def run_output(audio_s_per_s, setup_s, correct=True, failed=0):
    """What ``simbench/run.py`` prints: a line, the environment, and the result as the last line."""
    environment = {"nproc": 2, "python": "3.11.7", "seed": 0}
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "audio_s_per_s": {"value": audio_s_per_s, "unit": "s/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }
    return f"warming up\nenvironment: {json.dumps(environment)}\n{json.dumps(result)}\n"


CRASHED = "Traceback (most recent call last):\nRuntimeError: boom\n"


class TestParseRun:
    def test_environment_and_last_line(self):
        environment, result = bench_pairs.parse_run(run_output(100.0, 0.2))
        assert environment["nproc"] == 2
        assert result["metrics"]["audio_s_per_s"]["value"] == 100.0

    @pytest.mark.parametrize("stdout", ["", CRASHED, "environment: {}\n[1, 2]\n"])
    def test_no_result(self, stdout):
        assert bench_pairs.parse_run(stdout)[1] is None


class TestSummarize:
    def test_medians_quartiles_ratios_and_wins(self):
        pairs = [
            (run_output(100.0, 0.20), run_output(110.0, 0.20)),
            (run_output(200.0, 0.30), run_output(190.0, 0.25)),
            (run_output(300.0, 0.10), run_output(330.0, 0.15)),
            (run_output(400.0, 0.40), run_output(440.0, 0.30)),
        ]
        summary = bench_pairs.summarize(pairs, END_TO_END)
        audio = summary["metrics"]["audio_s_per_s"]
        assert audio["parent"] == {"median": 250.0, "q1": 175.0, "q3": 325.0}
        assert audio["change"] == {"median": 260.0, "q1": 170.0, "q3": 357.5}
        assert audio["ratio"] == {"median": pytest.approx(1.1), "min": 0.95, "max": pytest.approx(1.1)}
        assert audio["pairs"] == 4
        assert audio["wins"] == {"change": 3, "parent": 1}
        # lower is better; the tied first pair counts for neither side
        assert summary["metrics"]["setup_s"]["wins"] == {"change": 2, "parent": 1}
        assert summary["metrics"]["setup_s"]["bound"] == 0.25
        for side in ("parent", "change"):
            assert summary[side] == {"runs": 4, "runs_failed": 0, "correct": True, "failed": 0}

    def test_incorrect_run_and_failed_run(self):
        pairs = [
            (run_output(100.0, 0.2), run_output(120.0, 0.2, correct=False, failed=3)),
            (run_output(200.0, 0.2), CRASHED),
            (run_output(300.0, 0.2), run_output(310.0, 0.2)),
        ]
        summary = bench_pairs.summarize(pairs, END_TO_END)
        assert summary["parent"] == {"runs": 3, "runs_failed": 0, "correct": True, "failed": 0}
        assert summary["change"] == {"runs": 3, "runs_failed": 1, "correct": False, "failed": 3}
        audio = summary["metrics"]["audio_s_per_s"]
        # the crashed run enters no metric, and its pair gives no ratio and no win
        assert audio["parent"]["median"] == 200.0
        assert audio["change"]["median"] == 215.0
        assert audio["pairs"] == 2
        assert audio["wins"] == {"change": 2, "parent": 0}

    def test_one_pair(self):
        summary = bench_pairs.summarize([(run_output(100.0, 0.2), run_output(100.0, 0.2))], END_TO_END)
        audio = summary["metrics"]["audio_s_per_s"]
        assert audio["parent"] == audio["change"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
        assert audio["ratio"] == {"median": 1.0, "min": 1.0, "max": 1.0}
        assert audio["wins"] == {"change": 0, "parent": 0}


class TestExtractTrees:
    def test_parent_is_the_commit_and_change_the_working_tree(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "sub").mkdir(parents=True)
        (repo / ".gitignore").write_text("ignored.txt\n")
        (repo / "edited.txt").write_text("committed\n")
        (repo / "sub" / "deleted.txt").write_text("committed\n")

        def git(*args):
            return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True, text=True).stdout

        git("init", "-q")
        git("add", "-A")
        git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "parent")
        (repo / "edited.txt").write_text("uncommitted\n")
        (repo / "sub" / "deleted.txt").unlink()
        (repo / "sub" / "untracked.txt").write_text("untracked\n")
        (repo / "ignored.txt").write_text("ignored\n")
        git_files = {path: path.read_bytes() for path in (repo / ".git").rglob("*") if path.is_file()}

        scratch = tmp_path / "scratch"
        scratch.mkdir()
        trees = bench_pairs.extract_trees(repo, git("rev-parse", "HEAD").strip(), scratch)

        def files(tree):
            return {str(path.relative_to(tree)): path.read_text() for path in tree.rglob("*") if path.is_file()}

        assert files(trees["parent"]) == {
            ".gitignore": "ignored.txt\n", "edited.txt": "committed\n", "sub/deleted.txt": "committed\n"
        }
        assert files(trees["change"]) == {
            ".gitignore": "ignored.txt\n", "edited.txt": "uncommitted\n", "sub/untracked.txt": "untracked\n"
        }
        assert {path: path.read_bytes() for path in (repo / ".git").rglob("*") if path.is_file()} == git_files
