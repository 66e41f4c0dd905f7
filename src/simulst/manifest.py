"""Evaluation manifests: one JSON object per line describing an utterance.

Each line carries an ``id``, a ``source`` audio or feature path, and a
``reference`` translation; other keys are ignored. An id names the
utterance's log file, so it must be a plain file name. Relative source paths
are resolved against the manifest's own directory. Whether a source file
exists is checked when a run touches it, not at load time.

This module imports nothing from the package, so it also holds the two file
helpers every other module shares: the JSON-lines reader and the atomic
writer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

__all__ = ["ManifestEntry", "ManifestError", "load_manifest"]


class ManifestError(ValueError):
    """Raised for malformed manifest lines; message includes the line number."""


@dataclass(frozen=True)
class ManifestEntry:
    """A single utterance to evaluate."""

    id: str
    source: Path
    reference: str


_REQUIRED = ("id", "source", "reference")


def read_json_lines(path, error: type[Exception]) -> list[tuple[int, dict]]:
    """The line number and JSON object of each non-blank line of a UTF-8 file.

    Lines end at ``"\\n"`` only, so a JSON string may hold U+2028, U+2029 or
    U+0085 raw. Raises ``error`` naming the path, and the line where there is
    one, for text that is not UTF-8, a line that is not JSON, or a value that
    is not an object.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise error(f"{path}:{lineno}: expected a JSON object")
        records.append((lineno, record))
    return records


def write_bytes_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` all at once.

    The bytes go to a temporary file in the same directory, which is then
    renamed over ``path``; a write that fails midway leaves any earlier file
    intact and removes its temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_manifest(path) -> list[ManifestEntry]:
    """Parse a JSON-lines manifest into entries, in file order.

    Blank lines are skipped. Raises ManifestError on a file that is not
    UTF-8, unparseable lines, missing, non-string or blank required fields,
    an id that is not a single path component, or duplicate ids.
    """
    manifest_path = Path(path)
    base = manifest_path.parent
    entries: list[ManifestEntry] = []
    seen: dict[str, int] = {}
    for lineno, record in read_json_lines(manifest_path, ManifestError):
        for key in _REQUIRED:
            if key not in record:
                raise ManifestError(f"{manifest_path}:{lineno}: missing required field {key!r}")
            if not isinstance(record[key], str) or not record[key].strip():
                raise ManifestError(
                    f"{manifest_path}:{lineno}: field {key!r} must be a non-empty string"
                )
        utt_id = record["id"]
        if Path(utt_id).name != utt_id or utt_id in (".", ".."):
            raise ManifestError(
                f"{manifest_path}:{lineno}: id {utt_id!r} must be a file name, not a path"
            )
        if utt_id in seen:
            raise ManifestError(
                f"{manifest_path}:{lineno}: duplicate id {utt_id!r} (first seen on line {seen[utt_id]})"
            )
        seen[utt_id] = lineno
        source = Path(record["source"])
        if not source.is_absolute():
            source = base / source
        entries.append(ManifestEntry(id=utt_id, source=source, reference=record["reference"]))
    return entries
