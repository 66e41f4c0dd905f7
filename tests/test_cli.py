"""Command-line surface: verbs, exit codes, artifacts."""

import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from simulst import FeatureMatrix, SessionConfig, read_features, runner, write_features
from simulst.cli import main
from simulst.runner import CURVE_HEADER

from conftest import build_suite
from support import write_wav


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_suite")
    build_suite(directory, num_utterances=3, min_frames=80, max_frames=160)
    return directory


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRun:
    def test_success_prints_summary_and_writes_logs(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "utt000\tbleu=" in captured
        assert "corpus_bleu=" in captured
        assert "failed=0/3" in captured
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        assert f"run_id={config.run_id}" in captured
        run_dir = out / config.run_id
        assert (run_dir / "aggregate.json").exists()
        assert (run_dir / "utt000.jsonl").exists()

    def test_byte_identical_reruns(self, suite_dir, tmp_path, capsys):
        args = (
            "run", "--manifest", suite_dir / "manifest.jsonl",
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        )
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--out", tmp_path / "b") == 0
        capsys.readouterr()
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        for name in ("aggregate.json", "utt000.jsonl", "utt001.jsonl", "utt002.jsonl"):
            a = (tmp_path / "a" / config.run_id / name).read_bytes()
            b = (tmp_path / "b" / config.run_id / name).read_bytes()
            assert a == b, name

    def test_unknown_policy_is_usage_error(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path,
            "--policy", "wishful",
        )
        capsys.readouterr()
        assert code == 2

    def test_missing_hyperparameter_is_usage_error(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path,
            "--policy", "alignatt",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "requires 'f'" in err

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", tmp_path / "nope.jsonl", "--out", tmp_path,
            "--policy", "alignatt", "--f", "2",
        )
        capsys.readouterr()
        assert code == 2

    def test_empty_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("", encoding="utf-8")
        code = run_cli(
            "run", "--manifest", manifest, "--out", tmp_path,
            "--policy", "alignatt", "--f", "2",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "manifest is empty" in err

    def test_unreadable_source_is_partial_failure(self, suite_dir, tmp_path, capsys):
        manifest = tmp_path / "mixed.jsonl"
        lines = (suite_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["id"] = "ghost"
        record["source"] = str(tmp_path / "missing.sgfb")
        manifest.write_text(
            "\n".join([json.dumps(record)] + [
                json.dumps({**json.loads(l), "source": str(suite_dir / json.loads(l)["source"])})
                for l in lines
            ]) + "\n",
            encoding="utf-8",
        )
        code = run_cli(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--policy", "alignatt", "--f", "4",
        )
        captured = capsys.readouterr().out
        assert code == 1
        assert "ghost\tFAILED" in captured
        assert "failed=1/4" in captured

    def test_config_file_value_of_wrong_type_is_usage_error(self, suite_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"policy": "alignatt", "f": 2.5}), encoding="utf-8")
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "out",
            "--config", config_path,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "f takes whole numbers, got 2.5" in err
        assert not (tmp_path / "out").exists()

    def test_infinite_chunk_is_usage_error(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "out",
            "--policy", "alignatt", "--f", "2", "--chunk-ms", "inf",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "chunk_ms takes finite numbers, got inf" in err
        assert not (tmp_path / "out").exists()

    def test_config_file_that_is_not_utf8_is_usage_error(self, suite_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"policy": "alignatt", "f": 2, "adapter": "caf\xe9"}')
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "out",
            "--config", config_path,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and f"{config_path} is not UTF-8 text" in err
        assert not (tmp_path / "out").exists()

    def test_config_file_that_is_not_json_is_usage_error(self, suite_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"policy": "alignatt", "f": 2,}', encoding="utf-8")
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "out",
            "--config", config_path,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: config file {config_path} is not valid JSON (Expecting property name")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content,message",
        [
            ('{"policy": null, "f": 2}', "error: config requires a 'policy' key\n"),
            ('[{"policy": "alignatt", "f": 2}]', "error: config file must hold a JSON object\n"),
        ],
        ids=["null_policy", "array"],
    )
    def test_config_file_without_a_policy_object_is_usage_error(self, suite_dir, tmp_path, capsys, content, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(content, encoding="utf-8")
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "out",
            "--config", config_path,
        )
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    def test_config_path_that_is_a_directory_is_usage_error(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "out",
            "--config", tmp_path,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read config file: ") and str(tmp_path) in err
        assert not (tmp_path / "out").exists()

    def test_manifest_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "latin1.jsonl"
        manifest.write_bytes(b'{"id": "u1", "source": "a.sgfb", "reference": "caf\xe9"}\n')
        code = run_cli(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--policy", "alignatt", "--f", "2",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and f"{manifest}: not UTF-8 text" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "score"])
    @pytest.mark.parametrize("utt_id", ["../../escaped", "sub/x"])
    def test_id_that_is_a_path_is_usage_error_before_any_file(
        self, suite_dir, tmp_path, capsys, verb, utt_id
    ):
        lines = (suite_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        records = [
            {**json.loads(line), "source": str(suite_dir / json.loads(line)["source"])} for line in lines
        ]
        records[1]["id"] = utt_id
        work = tmp_path / "work"
        manifest = work / "manifest.jsonl"
        work.mkdir()
        manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        out = work / "deep" / "er" / "out"
        if verb == "run":
            code = run_cli("run", "--manifest", manifest, "--out", out, "--policy", "alignatt", "--f", "4")
        else:
            code = run_cli("score", "--manifest", manifest, "--logs", out)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{manifest}:2: id {utt_id!r} must be a file name" in err
        # no session ran, so nothing was written inside or outside the output directory
        assert [p.name for p in work.rglob("*")] == ["manifest.jsonl"]

    def test_config_file_with_flag_override(self, suite_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"policy": "alignatt", "f": 4, "chunk_ms": 500.0}), encoding="utf-8"
        )
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "out",
            "--config", config_path, "--f", "6",
        )
        captured = capsys.readouterr().out
        assert code == 0
        overridden = SessionConfig(policy="alignatt", f=6, chunk_ms=500.0)
        assert f"run_id={overridden.run_id}" in captured


class TestSweep:
    def test_writes_curve_csv(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--chunk-ms", "500", "--grid", "2,6",
        )
        captured = capsys.readouterr().out
        assert code == 0
        curves = list(out.glob("curve_*.csv"))
        assert len(curves) == 1
        lines = curves[0].read_text(encoding="utf-8").splitlines()
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("2,")
        assert lines[2].startswith("6,")
        assert "param=2" in captured and "param=6" in captured

    def test_grid_values_need_no_base_value(self, suite_dir, tmp_path, capsys):
        # the swept knob may be omitted from the base config; each grid value
        # fills it in
        code = run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "o",
            "--policy", "waitk", "--grid", "3",
        )
        capsys.readouterr()
        assert code == 0

    def test_fractional_grid_value_of_integer_knob_is_usage_error(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--chunk-ms", "500", "--grid", "2,2.5",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "f takes whole numbers, got 2.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_grid_value_of_integer_knob_is_usage_error(self, suite_dir, tmp_path, capsys, grid):
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", f"--grid={grid}",  # "=": argparse takes "-inf" for a flag
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "f takes whole numbers, got" in err
        assert not out.exists()

    def test_config_file_policy_of_wrong_type_is_usage_error(self, suite_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"policy": ["alignatt"]}), encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--config", config_path, "--grid", "2",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "policy takes strings" in err
        assert not out.exists()

    def test_empty_grid_is_usage_error(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path,
            "--policy", "alignatt", "--grid", ",",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "grid is empty" in err

    def test_malformed_grid_is_usage_error(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path,
            "--policy", "alignatt", "--grid", "2,six",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "comma-separated numbers" in err

    def test_laal_cap_flag_bare_uses_default(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "o",
            "--policy", "alignatt", "--chunk-ms", "500", "--grid", "2,6", "--laal-cap-s",
        )
        capsys.readouterr()
        assert code == 0
        # cap of 3.5 s keeps these short-suite rows; the flag parses bare
        curves = list((tmp_path / "o").glob("curve_*.csv"))
        assert len(curves) == 1

    def test_distinct_grids_write_distinct_curves(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        base = (
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--chunk-ms", "500",
        )
        assert run_cli(*base, "--grid", "2") == 0
        assert run_cli(*base, "--grid", "6") == 0
        capsys.readouterr()
        assert len(list(out.glob("curve_*.csv"))) == 2

    def test_spellings_of_one_grid_write_one_curve(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        base = (
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--chunk-ms", "500",
        )
        for grid in ("2,6", "6,2", "2, 6.0", "6,2,6"):
            assert run_cli(*base, "--grid", grid) == 0
        capsys.readouterr()
        # the canonical spelling keeps the name it had when the raw text was hashed
        run_id = SessionConfig(policy="alignatt", f=2, chunk_ms=500.0).run_id
        digest = hashlib.sha256((run_id + "2,6").encode("utf-8")).hexdigest()[:12]
        assert [p.name for p in out.glob("curve_*.csv")] == [f"curve_{digest}.csv"]

    def test_grids_differing_past_six_digits_write_distinct_curves(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        base = (
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "edatt", "--lambda", "2", "--chunk-ms", "500",
        )
        printed = []
        for grid in ("0.3,0.5000001", "0.3,0.5000002"):
            assert run_cli(*base, "--grid", grid) == 0
            printed.append(capsys.readouterr().out)
        assert "param=0.5000001 " in printed[0] and "param=0.5000002 " in printed[1]
        assert all("param=0.3 " in text for text in printed)
        curves = sorted(out.glob("curve_*.csv"))
        assert len(curves) == 2
        params = {line.split(",")[0] for c in curves for line in c.read_text("utf-8").splitlines()[1:]}
        assert params == {"0.3", "0.5000001", "0.5000002"}

    def test_knob_flag_leaves_the_curve_name_alone(self, suite_dir, tmp_path, capsys):
        # the grid sets the knob, so a --k that it overrides cannot rename the curve
        out = tmp_path / "out"
        base = (
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "waitk", "--chunk-ms", "500", "--grid", "2,4",
        )
        for flags in ((), ("--k", "3"), ("--k", "5")):
            assert run_cli(*base, *flags) == 0
        capsys.readouterr()
        assert len(list(out.glob("curve_*.csv"))) == 1
        assert len([p for p in out.iterdir() if p.is_dir()]) == 2


class TestScore:
    def test_recomputes_metrics_from_logs(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        assert run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        ) == 0
        run_record = json.loads((out / config.run_id / "aggregate.json").read_text("utf-8"))
        capsys.readouterr()

        code = run_cli(
            "score", "--manifest", suite_dir / "manifest.jsonl",
            "--logs", out / config.run_id,
        )
        captured = capsys.readouterr().out
        assert code == 0
        record = json.loads(captured)
        assert record["num_failed"] == 0
        del run_record["run_id"], run_record["config"]
        assert record == run_record

    def test_a_log_whose_text_disagrees_with_its_events_fails_its_utterance(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        assert run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        ) == 0
        capsys.readouterr()
        path = out / config.run_id / "utt001.jsonl"
        *events, summary = path.read_text("utf-8").splitlines()
        record = json.loads(summary)
        record["final_text"] += " extra"
        path.write_text("\n".join([*events, json.dumps(record, ensure_ascii=False)]) + "\n", encoding="utf-8")

        assert run_cli("score", "--manifest", suite_dir / "manifest.jsonl", "--logs", out / config.run_id) == 1
        utterances = json.loads(capsys.readouterr().out)["utterances"]
        assert [u["error"] is None for u in utterances] == [True, False, True]
        assert utterances[1]["error"].startswith(f"{path}: final_text ")
        assert utterances[1]["error"].endswith(", the text its events write")

    def test_failed_run_utterance_rescores_to_the_run_record(self, suite_dir, tmp_path, capsys):
        # run writes a failed session's log with its error, and score reads
        # that error back, so the reports are equal; a session that never
        # started logs its error alone
        manifest = tmp_path / "mixed.jsonl"
        records = [
            {**record, "source": str(suite_dir / record["source"])}
            for record in map(json.loads, (suite_dir / "manifest.jsonl").read_text("utf-8").splitlines())
        ]
        records[1]["source"] = str(tmp_path / "missing.sgfb")
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "out"
        unreadable = "source unreadable:"
        layer = "attention_layer=2 out of range for 2 decoder layers"  # the toy decoder has two
        chunk = "chunk_ms=5.0 is not a positive multiple of the frame shift (10.0 ms)"
        cases = [
            ([], [None, unreadable, None]),
            (["--attention-layer", "2"], [layer, unreadable, layer]),
            (["--chunk-ms", "5"], [chunk, unreadable, chunk]),
        ]
        for flags, errors in cases:
            argv = ["--policy", "alignatt", "--f", "4", "--chunk-ms", "500", *flags]
            assert run_cli("run", "--manifest", manifest, "--out", out, *argv) == 1
            run_dir = Path(capsys.readouterr().out.rsplit(" -> ", 1)[1].strip())
            run_record = json.loads((run_dir / "aggregate.json").read_text("utf-8"))
            for utt, error in zip(run_record["utterances"], errors, strict=True):
                if error is None:
                    assert utt["error"] is None
                    continue
                assert utt["error"].startswith(error)
                log = (run_dir / f"{utt['id']}.jsonl").read_text("utf-8")
                assert log == json.dumps({"error": utt["error"]}, ensure_ascii=False) + "\n"

            assert run_cli("score", "--manifest", manifest, "--logs", run_dir) == 1
            record = json.loads(capsys.readouterr().out)
            del run_record["run_id"], run_record["config"]
            assert record == run_record

    def test_pooled_sweep_rescores_to_its_run_records(self, suite_dir, tmp_path, capsys, monkeypatch):
        started = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: started.append(method) or get_context(method)
        )
        monkeypatch.setattr(runner, "_available_cpus", lambda: 2)
        out = tmp_path / "out"
        assert run_cli(
            "sweep", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--chunk-ms", "500", "--grid", "2,4,8",
        ) == 0
        assert started == ["fork"]
        run_dirs = sorted(path.parent for path in out.glob("*/aggregate.json"))
        assert len(run_dirs) == 3
        for run_dir in run_dirs:
            capsys.readouterr()
            assert run_cli("score", "--manifest", suite_dir / "manifest.jsonl", "--logs", run_dir) == 0
            record = json.loads(capsys.readouterr().out)
            run_record = json.loads((run_dir / "aggregate.json").read_text("utf-8"))
            del run_record["run_id"], run_record["config"]
            assert record == run_record

    def test_out_file_written(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        )
        capsys.readouterr()
        report = tmp_path / "report.json"
        code = run_cli(
            "score", "--manifest", suite_dir / "manifest.jsonl",
            "--logs", out / config.run_id, "--out", report,
        )
        capsys.readouterr()
        assert code == 0
        assert json.loads(report.read_text("utf-8"))["num_utterances"] == 3

    def test_failed_out_write_keeps_earlier_report(self, suite_dir, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        )
        capsys.readouterr()
        report = tmp_path / "report.json"
        report.write_text("earlier\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        code = run_cli(
            "score", "--manifest", suite_dir / "manifest.jsonl",
            "--logs", out / config.run_id, "--out", report,
        )
        assert code == 1 and "disk full" in capsys.readouterr().err
        assert report.read_text("utf-8") == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "report.json"]

    def test_missing_log_is_partial_failure(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        )
        capsys.readouterr()
        (out / config.run_id / "utt001.jsonl").unlink()
        code = run_cli(
            "score", "--manifest", suite_dir / "manifest.jsonl",
            "--logs", out / config.run_id,
        )
        captured = capsys.readouterr().out
        assert code == 1
        record = json.loads(captured)
        assert record["num_failed"] == 1
        errors = {u["id"]: u.get("error") for u in record["utterances"]}
        assert errors["utt001"] is not None

    def test_malformed_log_fails_only_its_utterance(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        )
        capsys.readouterr()
        logs = out / config.run_id
        event = {"token": 5, "text": "a", "ideal_s": 0.5, "wall_s": 0.5}
        no_token = {key: value for key, value in event.items() if key != "token"}
        (logs / "utt000.jsonl").write_text(
            json.dumps(no_token) + "\n" + json.dumps({"source_duration_s": 1.0, "final_text": "a"}) + "\n",
            encoding="utf-8",
        )
        (logs / "utt001.jsonl").write_text(
            json.dumps(event) + "\n" + json.dumps({"source_duration_s": 0, "final_text": "a"}) + "\n",
            encoding="utf-8",
        )
        code = run_cli("score", "--manifest", suite_dir / "manifest.jsonl", "--logs", logs)
        record = json.loads(capsys.readouterr().out)
        assert code == 1
        assert record["failed_ids"] == ["utt000", "utt001"]
        errors = {u["id"]: u["error"] for u in record["utterances"]}
        assert "utt000.jsonl" in errors["utt000"] and "'token'" in errors["utt000"]
        assert "utt001.jsonl" in errors["utt001"] and "positive" in errors["utt001"]
        assert errors["utt002"] is None

    def test_log_that_is_not_utf8_names_the_path(self, suite_dir, tmp_path, capsys):
        out = tmp_path / "out"
        config = SessionConfig(policy="alignatt", f=4, chunk_ms=500.0)
        run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", out,
            "--policy", "alignatt", "--f", "4", "--chunk-ms", "500",
        )
        capsys.readouterr()
        log = out / config.run_id / "utt001.jsonl"
        log.write_bytes(b'{"source_duration_s": 1.0, "final_text": "caf\xe9"}\n')
        code = run_cli("score", "--manifest", suite_dir / "manifest.jsonl", "--logs", out / config.run_id)
        record = json.loads(capsys.readouterr().out)
        assert code == 1 and record["failed_ids"] == ["utt001"]
        assert record["utterances"][1]["error"].startswith(f"{log}: not UTF-8 text ('utf-8' codec can't decode")


class TestExtractFeatures:
    def make_wav(self, path, seconds=0.5, rate=16000, seed=11):
        rng = np.random.default_rng(seed)
        samples = np.clip(rng.normal(scale=0.2, size=int(rate * seconds)), -1, 1)
        write_wav(path, samples, rate)
        return path

    def test_wav_to_feature_file(self, tmp_path, capsys):
        wav = self.make_wav(tmp_path / "a.wav")
        out = tmp_path / "a.sgfb"
        code = run_cli("extract-features", wav, out)
        captured = capsys.readouterr().out
        assert code == 0
        feats = read_features(out)
        assert feats.feature_dim == 80
        assert f"{feats.num_frames} frames" in captured

    def test_save_and_apply_cmvn(self, tmp_path, capsys):
        wav = self.make_wav(tmp_path / "a.wav")
        stats_path = tmp_path / "cmvn.json"
        raw_path = tmp_path / "raw.sgfb"
        assert run_cli("extract-features", wav, raw_path, "--save-cmvn", stats_path) == 0
        assert stats_path.exists()
        norm_path = tmp_path / "norm.sgfb"
        assert run_cli("extract-features", wav, norm_path, "--cmvn", stats_path) == 0
        capsys.readouterr()
        normalized = read_features(norm_path)
        assert abs(float(normalized.frames.mean())) < 1e-3
        assert float(normalized.frames.std()) == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize(
        "stats",
        [
            {"mean": [0.0, 0.0], "var": [1.0, 1.0]},
            {"mean": [0.0]},
            [0.0, 1.0],
            {"mean": {"a": 0.0}, "var": [1.0]},
            {"mean": [float("nan")] * 80, "var": [1.0] * 80},
        ],
        ids=["wrong_dimension", "missing_var", "json_list", "non_numeric", "non_finite"],
    )
    def test_malformed_cmvn_is_usage_error(self, tmp_path, capsys, stats):
        wav = self.make_wav(tmp_path / "a.wav")
        stats_path = tmp_path / "cmvn.json"
        stats_path.write_text(json.dumps(stats), encoding="utf-8")
        code = run_cli("extract-features", wav, tmp_path / "o.sgfb", "--cmvn", stats_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "o.sgfb").exists()

    @pytest.mark.parametrize(
        "content",
        [b"", b'{"mean": [0.0], "var": [1.0]', b'{"mean": [0.0], "var": [1.0], "note": "caf\xe9"}'],
        ids=["empty", "truncated", "latin1"],
    )
    def test_cmvn_that_is_not_utf8_json_names_the_path(self, tmp_path, capsys, content):
        wav = self.make_wav(tmp_path / "a.wav")
        stats_path = tmp_path / "cmvn.json"
        stats_path.write_bytes(content)
        code = run_cli("extract-features", wav, tmp_path / "o.sgfb", "--cmvn", stats_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {stats_path}: CMVN stats must be UTF-8 JSON (")
        assert not (tmp_path / "o.sgfb").exists()

    @pytest.mark.parametrize("kind", ["silent_wav", "one_frame", "zero_frames"])
    def test_stats_of_input_that_cannot_be_normalized_are_an_error(self, tmp_path, capsys, kind):
        if kind == "silent_wav":
            source = tmp_path / "silent.wav"
            write_wav(source, np.zeros(16000), 16000)
        else:
            source = tmp_path / f"{kind}.sgfb"
            frames = np.ones((1 if kind == "one_frame" else 0, 80), dtype=np.float32)
            write_features(source, FeatureMatrix(frames=frames))
        stats_path, out = tmp_path / "s.json", tmp_path / "o.sgfb"
        code = run_cli("extract-features", source, out, "--save-cmvn", stats_path)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not stats_path.exists() and not out.exists()

    def test_feature_file_passthrough(self, tmp_path, capsys):
        wav = self.make_wav(tmp_path / "a.wav")
        first = tmp_path / "one.sgfb"
        second = tmp_path / "two.sgfb"
        assert run_cli("extract-features", wav, first) == 0
        assert run_cli("extract-features", first, second) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_missing_input(self, tmp_path, capsys):
        code = run_cli("extract-features", tmp_path / "ghost.wav", tmp_path / "o.sgfb")
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli() == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli("transmogrify") == 2
        capsys.readouterr()

    def test_clock_choices_enforced(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path,
            "--policy", "alignatt", "--f", "2", "--clock", "sundial",
        )
        capsys.readouterr()
        assert code == 2

    def test_workers_flag_is_unknown(self, suite_dir, tmp_path, capsys):
        code = run_cli(
            "run", "--manifest", suite_dir / "manifest.jsonl", "--out", tmp_path / "out",
            "--policy", "alignatt", "--f", "4", "--workers", "2",
        )
        assert code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
