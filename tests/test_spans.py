"""The traced benchmark run (`bench/spans.py`) still finds every name it
wraps, so a refactor that renames or drops one fails here, not only in the
traced benchmark job. The benchmark's files are read, never changed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_install_graphvqa_wraps_every_name_and_uninstall_restores_them(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

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
