"""The one reader and the one appender of line files.

Line files are UTF-8 and end lines at "\\n" only: U+2028 and the like, which
JSON leaves unescaped, stay in their line. Blank lines and lines whose first
non-blank character is `#` are skipped. Text files (lexicon, bundle, QA,
script) read "\\r\\n" and "\\r" as "\\n"; QA files and chat scripts hold one
JSON object per line, which `read_objects` parses. Logs (cache, transcripts)
hold one JSON value per line, appended through `Log`. A torn tail, a last
line with no newline that does not parse, is dropped by the reader and cut
off by the appender, which also ends a whole unterminated last line. Every
append mends the tail, writes and flushes its line under one exclusive
`fcntl.flock` on the log (POSIX only), so processes may append to one log at
once without taking each other's line in progress for a torn tail. Faults
raise the caller's error, naming the file.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from pathlib import Path
from typing import Union

logger = logging.getLogger(__name__)

_SKIP = object()


def _skipped(line: str) -> bool:
    return line.lstrip()[:1] in ("", "#")


def _read(path: Path, read, error: type):
    try:
        return read(path)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc


def read_lines(path: Union[str, Path], error: type) -> list[tuple[int, str]]:
    """(line number, line) for each line of a text file that is not skipped."""
    text = _read(Path(path), lambda p: p.read_text(encoding="utf-8"), error)
    return [(n, line) for n, line in enumerate(text.split("\n"), start=1) if not _skipped(line)]


def parse_object(text: Union[str, bytes], where, error: type) -> dict:
    """The JSON object `text` (bytes are UTF-8) holds; anything else raises
    `error` naming `where`."""
    try:
        value = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:  # also invalid UTF-8 and integers too long for int()
        raise error(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{where}: expected a JSON object")
    return value


def read_objects(path: Union[str, Path], error: type) -> list[tuple[int, dict]]:
    """(line number, JSON object) for each line of a text file that is not
    skipped; a line holding anything else raises `error` naming it."""
    return [(n, parse_object(line, f"{path}:{n}", error)) for n, line in read_lines(path, error)]


def _value(line: bytes):
    """A log line's JSON value, or _SKIP; ValueError if it does not parse."""
    text = line.decode("utf-8")
    return _SKIP if _skipped(text) else json.loads(text)


def read_log(path: Union[str, Path], error: type) -> list[tuple[int, object]]:
    """(line number, JSON value) for each record of a log. A torn tail is
    dropped; any other line that does not parse raises `error`."""
    lines = _read(Path(path), Path.read_bytes, error).split(b"\n")
    records = []
    for line_no, line in enumerate(lines, start=1):
        try:
            if (value := _value(line)) is not _SKIP:
                records.append((line_no, value))
        except ValueError as exc:  # also invalid UTF-8
            if line_no < len(lines):
                raise error(f"{path}:{line_no}: invalid JSON: {exc}") from exc
            logger.warning("dropping truncated last line of %s: %s", path, exc)
    return records


def _line(record) -> bytes:
    return (json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


def _mend(handle) -> None:
    """Mend the tail of a log open for appending, whose `flock` the caller
    holds: end a whole unterminated last line, or cut off a torn one. Only
    when the last byte is not a newline is more of the file read."""
    handle.seek(max(handle.seek(0, os.SEEK_END) - 1, 0))
    if handle.read(1) in (b"", b"\n"):
        return
    handle.seek(0)
    data = handle.read()
    start = data.rfind(b"\n") + 1
    try:
        _value(data[start:])
    except ValueError:
        handle.truncate(start)
    else:
        handle.write(b"\n")


class Log:
    """A log open for appending records, made (with its directory) if need
    be. Each append takes an exclusive `flock` on the file, mends its tail
    (see `_mend`), writes the record as one line of JSON with sorted keys
    and flushes it, so processes may append to one log at once. Hold one
    open for a stream of records, or open one per record; close it, or use
    it as a context manager."""

    def __init__(self, path: Union[str, Path], error: type):
        self.path, self._error = Path(path), error
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a+b")
        except OSError as exc:
            raise error(f"cannot append to {self.path}: {exc.strerror}") from exc

    def append(self, record) -> None:
        line = _line(record)
        handle = self._handle
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                _mend(handle)
                handle.write(line)
                handle.flush()
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        except OSError as exc:
            raise self._error(f"cannot append to {self.path}: {exc.strerror}") from exc

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "Log":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
