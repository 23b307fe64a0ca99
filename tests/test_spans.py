"""The traced benchmark run (`bench/spans.py`) still finds every name it
wraps, and a traced golden `eval` still gives it what it records, so a
refactor that renames or drops a name, or changes a signature the tracer
reads, fails here, not only in the traced benchmark job. The benchmark's
files are read, never changed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from graphvqa import cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_graphvqa_wraps_every_name_and_uninstall_restores_them(spans):
    tracer = spans.Tracer()
    try:
        spans.install_graphvqa(tracer)
        patches = list(tracer._patches)
        wrapped = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patches}
        assert all(current(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.uninstall()
    assert all(current(owner, attr) is original for owner, attr, original in patches)
    assert {("graphvqa.harness", "save_transcript"), ("graphvqa.cli", "run_eval"),
            ("ModelGateway", "chat"), ("ModelGateway", "caption"), ("ModelGateway", "embed"),
            ("ResponseCache", "__init__"), ("ResponseCache", "get"),
            ("ResponseCache", "put")} <= wrapped


def test_a_traced_golden_eval_records_each_item_and_session(spans, monkeypatch, tmp_path,
                                                            capsys):
    monkeypatch.chdir(GOLDEN)  # the config names `script.jsonl` relative to it
    tracer = spans.Tracer()
    try:
        spans.install_graphvqa(tracer)
        patches = list(tracer._patches)
        assert cli.main(["eval", "--qa", "qa.jsonl", "--bundle", "bundles", "--config",
                         "config.json", "--out", str(tmp_path), "--parallel", "2"]) == 0
    finally:
        tracer.uninstall()
    assert all(current(owner, attr) is original for owner, attr, original in patches)
    items = tracer.named("harness.item")
    assert len({span.question for span in items}) == 12 and all(span.question for span in items)
    sessions = tracer.named("agent.run")
    assert len(sessions) == 12
    assert all({"rounds", "frames", "nodes", "edges"} <= set(span.attrs) for span in sessions)
    assert all(span.question for span in sessions)
