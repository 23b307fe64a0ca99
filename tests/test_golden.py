"""Golden outputs: `eval`, `graph` and `extract` on the committed inputs
under `data/golden` write the committed `report.json`, `transcripts.jsonl`,
`graph.json`, `graph.txt` (the `graph` command's printout) and
`extract.jsonl` byte for byte.

The inputs are three bundles with captions and 8-dim embeddings, twelve QA
items, a chat script and a config whose embed lane takes frame vectors from
the bundles. Between them the sessions end in every termination kind, one
reply is unparseable, and the graphs merge lemmas by embedding similarity.
To regenerate the outputs after an intended behaviour change, run from
`data/golden`:

    graphvqa eval --qa qa.jsonl --bundle bundles --config config.json --out OUT
    graphvqa graph --bundle bundles/kitchen --config config.json --out OUT
    graphvqa graph --bundle bundles/kitchen --config config.json > graph.txt
    for v in hall kitchen short; do graphvqa extract --bundle bundles/$v; done > extract.jsonl
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphvqa
from graphvqa.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture
def in_golden(monkeypatch):
    """Run from the golden directory: its config names `script.jsonl` relative to it."""
    monkeypatch.chdir(GOLDEN)


@pytest.mark.parametrize("parallel", [1, 3])
def test_eval_writes_golden_report_and_transcripts(in_golden, tmp_path, parallel, capsys):
    out = tmp_path / "out"
    assert main(["eval", "--qa", "qa.jsonl", "--bundle", "bundles", "--config", "config.json",
                 "--out", str(out), "--parallel", str(parallel)]) == 0
    for name in ("report.json", "transcripts.jsonl"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_eval_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Each run is its own process, because the order in which a set of strings
    # iterates changes with PYTHONHASHSEED: an output that leaks it differs.
    src = str(Path(graphvqa.__file__).resolve().parent.parent)
    for seed in ("0", "1"):
        out = tmp_path / seed
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "graphvqa.cli", "eval", "--qa", "qa.jsonl",
                        "--bundle", "bundles", "--config", "config.json", "--out", str(out),
                        "--parallel", "3"], cwd=GOLDEN, env=env, check=True, capture_output=True,
                       timeout=120)
        for name in ("report.json", "transcripts.jsonl"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), (seed, name)


def test_graph_writes_golden_graph(in_golden, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["graph", "--bundle", "bundles/kitchen", "--config", "config.json",
                 "--out", str(out)]) == 0
    assert (out / "graph.json").read_bytes() == (GOLDEN / "graph.json").read_bytes()


def test_graph_prints_golden_summary(in_golden, capsys):
    # without --out, whose line names the output directory
    assert main(["graph", "--bundle", "bundles/kitchen", "--config", "config.json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "graph.txt").read_text(encoding="utf-8")


def test_extract_writes_golden_parses(in_golden, capsys):
    # the parser's whole output for every caption of the three bundles
    for video in ("hall", "kitchen", "short"):
        assert main(["extract", "--bundle", f"bundles/{video}"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "extract.jsonl").read_text(encoding="utf-8")


def test_golden_outputs_cover_each_termination_and_a_merge():
    lines = (GOLDEN / "transcripts.jsonl").read_text(encoding="utf-8").splitlines()
    endings = {json.loads(line)["terminated_by"] for line in lines}
    assert endings == {"Confident", "RoundLimit", "Exhausted"}
    graph = json.loads((GOLDEN / "graph.json").read_text(encoding="utf-8"))
    assert any(node["aliases"] for node in graph["nodes"])
    assert all(node["feature"] for node in graph["nodes"])
