"""Mutation oracle over the golden inputs: `eval` on a copy of `data/golden`
with one input mutated either runs, writing transcripts that load, or exits
with the code of its fault. No exception escapes `cli.main`.

A mutation replaces or deletes one JSON leaf of the config, a QA record, a
script entry or a manifest, or cuts, duplicates or corrupts one line of a
`captions` or `embeddings` file. A config or script fault exits 1, a data
fault 2 (README, "Exit codes"); a mutation the program can run with exits 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvqa.cli import main
from graphvqa.store import load_transcripts

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = ["config.json", "qa.jsonl", "bundles", "script.jsonl"]
VIDEOS = ("hall", "kitchen", "short")
JSON_FILES = ["config.json", "qa.jsonl", "script.jsonl", *(f"bundles/{v}/manifest" for v in VIDEOS)]
LINE_FILES = [f"bundles/{v}/{name}" for v in VIDEOS for name in ("captions", "embeddings")]
# Faults in these exit 1; in the other inputs they are data errors, exit 2.
CONFIG_FILES = {"config.json", "script.jsonl"}

JSON_VALUES = [None, True, 0, -1, 7, 0.5, -1e9, float("nan"), float("inf"), "", "x", ".",
               [], {}, ["x"], {"x": 1}]
LINE_BYTES = [b"\t", b" ", b"x", b"-", b"9", b".", b"e", b"\n", b"\xff", b"\xc3"]


def leaves(value, path=()):
    """The path of every leaf of a JSON value: a scalar or an empty container."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    found = [leaf for key, child in children for leaf in leaves(child, (*path, key))]
    return found or [path]


def json_mutation(data, name: str, text: str) -> str:
    """`text`, the JSON file `name`, with one leaf of one record replaced or deleted."""
    lines = text.split("\n")
    if name == "config.json":
        records = {0: json.loads(text)}
    else:
        records = {n: json.loads(line) for n, line in enumerate(lines)
                   if line.strip() and not line.startswith("#")}
    n = data.draw(st.sampled_from(sorted(records)), label="record")
    *parents, last = data.draw(st.sampled_from(leaves(records[n])), label="leaf")
    parent = records[n]
    for key in parents:
        parent = parent[key]
    if data.draw(st.booleans(), label="delete"):
        del parent[last]
    else:
        parent[last] = data.draw(st.sampled_from(JSON_VALUES), label="value")
    if name == "config.json":
        return json.dumps(records[n], indent=2)
    lines[n] = json.dumps(records[n])
    return "\n".join(lines)


def line_mutation(data, content: bytes) -> bytes:
    """`content` with one line cut, duplicated or corrupted."""
    lines = content.splitlines(keepends=True)
    n = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[n]
    kind = data.draw(st.sampled_from(["cut", "duplicate", "replace byte", "truncate"]),
                     label="kind")
    if kind == "cut":
        del lines[n]
    elif kind == "duplicate":
        lines.insert(n, line)
    else:
        at = data.draw(st.integers(0, len(line) - 1), label="at")
        if kind == "truncate":
            lines[n] = line[:at] + b"\n"
        else:
            lines[n] = line[:at] + data.draw(st.sampled_from(LINE_BYTES)) + line[at + 1:]
    return b"".join(lines)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_mutated_golden_input_runs_or_exits_with_its_code(data):
    name = data.draw(st.sampled_from(JSON_FILES + LINE_FILES), label="file")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        for entry in INPUTS:
            source = GOLDEN / entry
            (shutil.copytree if source.is_dir() else shutil.copy)(source, root / entry)
        target = root / name
        if name in JSON_FILES:
            target.write_text(json_mutation(data, name, target.read_text(encoding="utf-8")),
                              encoding="utf-8")
        else:
            target.write_bytes(line_mutation(data, target.read_bytes()))
        mp.chdir(root)  # the config names the script relative to it
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["eval", "--qa", "qa.jsonl", "--bundle", "bundles", "--config",
                         "config.json", "--out", "out", "--parallel", "2"])
        assert code in ((0, 1) if name in CONFIG_FILES else (0, 2)), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            load_transcripts(root / "out" / "transcripts.jsonl")
