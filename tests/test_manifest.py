"""JSON-lines manifest parsing and validation."""

import json
from pathlib import Path

import pytest

from simulst import ManifestEntry, ManifestError, load_manifest


def write_lines(path: Path, *lines: str) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadManifest:
    def test_parses_entries_in_order(self, tmp_path):
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "u1", "source": "a.sgfb", "reference": "hello there", "transcript": "hallo"}),
            json.dumps(
                {
                    "id": "u2",
                    "source": "/abs/b.wav",
                    "reference": "general",
                    "transcript": 7,
                }
            ),
        )
        entries = load_manifest(path)
        assert [e.id for e in entries] == ["u1", "u2"]
        # a transcript, of any type, is ignored like any other extra key
        assert entries[0] == ManifestEntry(id="u1", source=tmp_path / "a.sgfb", reference="hello there")
        assert entries[1] == ManifestEntry(id="u2", source=Path("/abs/b.wav"), reference="general")

    def test_relative_source_resolved_against_manifest_dir(self, tmp_path):
        sub = tmp_path / "data"
        sub.mkdir()
        path = write_lines(
            sub / "eval.jsonl",
            json.dumps({"id": "u1", "source": "audio/a.sgfb", "reference": "r"}),
        )
        entries = load_manifest(path)
        assert entries[0].source == sub / "audio" / "a.sgfb"

    def test_absolute_source_kept(self, tmp_path):
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "u1", "source": "/data/a.sgfb", "reference": "r"}),
        )
        assert load_manifest(path)[0].source == Path("/data/a.sgfb")

    def test_blank_lines_skipped(self, tmp_path):
        path = write_lines(
            tmp_path / "eval.jsonl",
            "",
            json.dumps({"id": "u1", "source": "a", "reference": "r"}),
            "   ",
            json.dumps({"id": "u2", "source": "b", "reference": "r"}),
            "",
        )
        assert len(load_manifest(path)) == 2

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_manifest(path) == []

    def test_invalid_json_reports_line(self, tmp_path):
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "u1", "source": "a", "reference": "r"}),
            "{not json",
        )
        with pytest.raises(ManifestError, match=r"eval\.jsonl:2: invalid JSON"):
            load_manifest(path)

    def test_non_object_line(self, tmp_path):
        path = write_lines(tmp_path / "eval.jsonl", "[1, 2]")
        with pytest.raises(ManifestError, match=":1: expected a JSON object"):
            load_manifest(path)

    @pytest.mark.parametrize("missing", ["id", "source", "reference"])
    def test_missing_required_field(self, tmp_path, missing):
        record = {"id": "u1", "source": "a", "reference": "r"}
        del record[missing]
        path = write_lines(tmp_path / "eval.jsonl", json.dumps(record))
        with pytest.raises(ManifestError, match=f"missing required field '{missing}'"):
            load_manifest(path)

    def test_empty_required_field(self, tmp_path):
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "", "source": "a", "reference": "r"}),
        )
        with pytest.raises(ManifestError, match="must be a non-empty string"):
            load_manifest(path)

    @pytest.mark.parametrize("key", ["id", "source", "reference"])
    def test_blank_required_field_names_the_line(self, tmp_path, key):
        record = {"id": "u2", "source": "b", "reference": "r"}
        record[key] = "   "
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "u1", "source": "a", "reference": "r"}),
            json.dumps(record),
        )
        with pytest.raises(ManifestError, match=f":2: field '{key}' must be a non-empty string"):
            load_manifest(path)

    def test_non_string_required_field(self, tmp_path):
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "u1", "source": 3, "reference": "r"}),
        )
        with pytest.raises(ManifestError, match="'source' must be a non-empty string"):
            load_manifest(path)

    def test_duplicate_id_reports_both_lines(self, tmp_path):
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "u1", "source": "a", "reference": "r"}),
            json.dumps({"id": "u2", "source": "b", "reference": "r"}),
            json.dumps({"id": "u1", "source": "c", "reference": "r"}),
        )
        with pytest.raises(
            ManifestError, match=r":3: duplicate id 'u1' \(first seen on line 1\)"
        ):
            load_manifest(path)

    @pytest.mark.parametrize(
        "utt_id", ["../../escaped", "sub/x", "/abs", "a/", ".", "..", "./u1"]
    )
    def test_id_that_is_not_a_file_name_names_the_line(self, tmp_path, utt_id):
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "u1", "source": "a", "reference": "r"}),
            json.dumps({"id": utt_id, "source": "b", "reference": "r"}),
        )
        with pytest.raises(ManifestError, match=r"eval\.jsonl:2: id .* must be a file name"):
            load_manifest(path)

    @pytest.mark.parametrize("utt_id", ["short_suite000", "utt.1", "a b", "..x", "über"])
    def test_file_name_ids_accepted(self, tmp_path, utt_id):
        path = write_lines(
            tmp_path / "eval.jsonl", json.dumps({"id": utt_id, "source": "a", "reference": "r"})
        )
        assert load_manifest(path)[0].id == utt_id

    def test_file_that_is_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"id": "u1", "source": "a", "reference": "caf\xe9"}\n')
        with pytest.raises(ManifestError, match=r"latin1\.jsonl: not UTF-8 text"):
            load_manifest(path)

    def test_missing_source_file_is_not_checked_at_load(self, tmp_path):
        path = write_lines(
            tmp_path / "eval.jsonl",
            json.dumps({"id": "u1", "source": "nowhere.sgfb", "reference": "r"}),
        )
        entries = load_manifest(path)
        assert not entries[0].source.exists()

    def test_manifest_error_is_value_error(self):
        assert issubclass(ManifestError, ValueError)
