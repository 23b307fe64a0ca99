"""In-memory spans recorded from outside the program.

``Tracer.install`` replaces each traced function at the name its caller
looks up (``graphvqa.agent.parse_caption``, not
``graphvqa.parsing.parse_caption``) with a wrapper that records a span:
name, start, end, parent span and question id. Each thread keeps its own
span stack, so under ``eval --parallel N`` a span is attributed to the
question its worker thread is running. ``uninstall`` puts the originals
back. Spans stay in memory while the program runs; ``write`` saves them
when the benchmark ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional["Span"]
    question: Optional[str]
    end: float = 0.0
    child_s: float = 0.0  # summed duration of direct children on the same thread
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# Recorders add attributes to a finished span from the call's arguments and result.
Recorder = Callable[[Span, tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, owner, attr: str, name: str, record: Optional[Recorder] = None,
                question: Optional[Callable[[tuple], str]] = None) -> None:
        """Wrap ``owner.attr``; `question` names the question a call starts."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack_of = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            qid = question(args) if question else (parent.question if parent else None)
            span = Span(name, 0.0, parent, qid)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                spans.append(span)
            if record is not None:
                record(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent (line number of
        the parent span, or null), question id and recorded attributes."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": index.get(id(span.parent)), "question": span.question,
                    "attrs": span.attrs,
                }) + "\n")

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time_by_layer(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + span.self_s
        return totals


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def install_graphvqa(tracer: Tracer) -> None:
    """Wrap the public functions of every graphvqa module at their call sites."""
    from graphvqa import agent, cli, gateway, graph, harness

    def count(key, of=len, arg=0):
        def record(span, args, kwargs, result):
            span.attrs[key] = of(args[arg])
        return record

    def cache_hit(span, args, kwargs, result):
        span.attrs["hit"] = result is not None

    def session(span, args, kwargs, result):
        session_, graph_ = result
        span.attrs.update(rounds=len(session_.rounds), frames=len(session_.selected_frames),
                          nodes=len(graph_.nodes), edges=len(graph_.edges))

    tracer.install(cli, "main", "cli.main")
    tracer.install(cli, "build_gateway", "cli.build_gateway")
    tracer.install(cli, "run_eval", "harness.run_eval")
    sessions = itertools.count()  # an eval item runs once per pass, so number each run
    tracer.install(harness, "_run_item", "harness.item",
                   question=lambda args: f"{args[1].video_id}#{args[0]}/{next(sessions)}")
    tracer.install(harness, "load_bundle", "store.load_bundle")
    tracer.install(harness, "save_transcript", "store.save_transcript")
    tracer.install(agent.VideoAgent, "run", "agent.run", record=session)
    tracer.install(agent, "parse_caption", "parsing.parse_caption")
    tracer.install(agent, "parse_question", "parsing.parse_question")
    tracer.install(graph.VideoGraph, "update_graph", "graph.update_graph", record=count("frames", arg=1))
    tracer.install(graph.VideoGraph, "summarize", "graph.summarize")
    tracer.install(agent, "select_frames", "selector.select_frames", record=count("candidates"))
    tracer.install(agent, "identify_segments", "selector.identify_segments")
    tracer.install(agent, "candidate_frames", "selector.candidate_frames")
    def embed_input(span, args, kwargs, result):
        span.attrs["input"] = args[1]

    tracer.install(gateway.ModelGateway, "chat", "gateway.chat")
    tracer.install(gateway.ModelGateway, "caption", "gateway.caption")
    tracer.install(gateway.ModelGateway, "embed", "gateway.embed", record=embed_input)
    tracer.install(gateway.ResponseCache, "__init__", "gateway.cache_load")
    tracer.install(gateway.ResponseCache, "get", "gateway.cache_get", record=cache_hit)
    tracer.install(gateway.ResponseCache, "put", "gateway.cache_put")
