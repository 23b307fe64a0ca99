"""Shared fixtures: synthetic bundles, scripted gateways, and a stub server."""

from __future__ import annotations

import base64
import hashlib
import json
import random
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from graphvqa import agent as agent_module
from graphvqa import gateway as gateway_module
from graphvqa import graph as graph_module
from graphvqa.errors import DataFormatError
from graphvqa.gateway import (
    PRECOMPUTED_CAPTION,
    SCRIPTED,
    ModelGateway,
    ProviderConfig,
    ScriptEntry,
)
from graphvqa.graph import VideoGraph
from graphvqa.lines import Log
from graphvqa.parsing import default_lexicon
from graphvqa.store import VideoBundle, save_transcript

NOUNS = ["boy", "girl", "dog", "toy", "ball", "book", "sword", "cup", "table", "person"]
VERBS = ["holds", "takes", "opens", "closes", "carries", "watches", "chases", "throws"]


@pytest.fixture(scope="session")
def lex():
    return default_lexicon()


def synthetic_caption(rng: random.Random) -> str:
    subject, obj = rng.sample(NOUNS, 2)
    verb = rng.choice(VERBS)
    return f"the {subject} {verb} the {obj}"


def make_bundle(video_id="vid", total_frames=60, caption_every=1, dim=None, seed=7) -> VideoBundle:
    """Bundle with generated captions on every `caption_every`-th frame and
    optional random embeddings of dimension `dim`."""
    rng = random.Random(seed)
    captions = {
        frame: synthetic_caption(rng)
        for frame in range(0, total_frames, caption_every)
    }
    embeddings = {}
    if dim:
        embeddings = {
            frame: [rng.uniform(-1.0, 1.0) for _ in range(dim)]
            for frame in range(total_frames)
        }
    return VideoBundle(
        video_id=video_id,
        total_frames=total_frames,
        captions=captions,
        embeddings=embeddings,
        embedding_dim=dim,
    ).validate()


def append_transcript(session, path) -> None:
    """Append `session`'s record to the transcript log at `path`, as `run` does."""
    with Log(path, DataFormatError) as log:
        save_transcript(session, log)


def confident_entry(letter="A", missing="none"):
    return ScriptEntry(reply=f"answer: {letter}, confidence: 3, missing: {missing}")


def unsure_entry(letter="A", confidence=1):
    return ScriptEntry(
        reply=f"answer: {letter}, confidence: {confidence}, missing: need more frames"
    )


def scripted_gateway(entries, embed_dim=16, seed=0, with_captions=True,
                     with_embeddings=True) -> ModelGateway:
    """Gateway with scripted chat, precomputed captions, scripted embeddings."""
    return ModelGateway(
        chat=ProviderConfig(kind=SCRIPTED),
        caption=ProviderConfig(kind=PRECOMPUTED_CAPTION) if with_captions else None,
        embed=(
            ProviderConfig(kind=SCRIPTED, embed_dim=embed_dim, seed=seed)
            if with_embeddings
            else None
        ),
        chat_script=list(entries),
    )


class StubState:
    """Mutable behavior shared between a stub server and the test body."""

    def __init__(self):
        self.responses: list[tuple[int, str]] = []  # queue of (status, body)
        self.echo = False  # reply content derived from the request body
        self.requests: list[str] = []
        self.lock = threading.Lock()

    @property
    def request_count(self) -> int:
        return len(self.requests)


class _StubHandler(BaseHTTPRequestHandler):
    state: StubState = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length).decode("utf-8")
        with self.state.lock:
            self.state.requests.append(body)
            if self.state.echo:
                tag = hashlib.sha256(body.encode()).hexdigest()[:12]
                status, reply = 200, json.dumps(
                    {"choices": [{"message": {"content": f"echo:{tag}"}}]}
                )
            elif self.state.responses:
                status, reply = self.state.responses.pop(0)
            else:
                status, reply = 200, json.dumps(
                    {"choices": [{"message": {"content": "ok"}}]}
                )
        payload = reply.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture
def stub_server():
    state = StubState()
    handler = type("Handler", (_StubHandler,), {"state": state})
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    endpoint = f"http://127.0.0.1:{server.server_address[1]}"
    yield endpoint, state
    server.shutdown()
    server.server_close()


def remote_chat_config(endpoint, **overrides) -> ProviderConfig:
    defaults = dict(
        kind="RemoteChat",
        endpoint=endpoint,
        model_name="stub-model",
        max_retries=3,
        retry_backoff=0.001,
        timeout=5.0,
    )
    defaults.update(overrides)
    return ProviderConfig(**defaults)


class ModelStubState:
    """What a `model_stub` saw, and how it answers."""

    def __init__(self):
        self.delay_s = 0.005
        self.embed_dim = 8
        self.reject: set[str] = set()  # body substrings answered with HTTP 400
        self.requests: list[str] = []
        self.active = 0
        self.peak = 0  # most requests being answered at once
        self.fan_out_threads: set[threading.Thread] = set()  # gateway pool threads seen
        self.lock = threading.Lock()


class _ModelStubHandler(BaseHTTPRequestHandler):
    state: ModelStubState = None

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0))).decode("utf-8")
        state = self.state
        with state.lock:
            state.requests.append(body)
            state.active += 1
            state.peak = max(state.peak, state.active)
            state.fan_out_threads.update(
                t for t in threading.enumerate() if t.name.startswith("graphvqa-gateway")
            )
        try:
            time.sleep(state.delay_s)
            digest = hashlib.sha256(body.encode("utf-8")).digest()
            status = 400 if any(s in body for s in state.reject) else 200
            if self.path.endswith("/v1/embeddings"):
                vector = [(b - 127.5) / 127.5 for b in digest[: state.embed_dim]]
                reply = {"data": [{"embedding": vector}]}
            else:
                reply = {"choices": [{"message": {"content": f"echo:{digest.hex()[:12]}"}}]}
            payload = json.dumps(reply).encode("utf-8")
        finally:
            with state.lock:
                state.active -= 1
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def model_stub():
    """A threaded OpenAI-compatible stub for chat, captions and embeddings:
    each request sleeps `delay_s`, then gets a reply derived from its body."""
    state = ModelStubState()
    handler = type("Handler", (_ModelStubHandler,), {"state": state})
    # A listen backlog that is never the limit being measured.
    server = type("Server", (ThreadingHTTPServer,), {"request_queue_size": 64})(
        ("127.0.0.1", 0), handler
    )
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", state
    server.shutdown()
    server.server_close()


def remote_lanes(endpoint, **overrides) -> dict:
    """Provider config blocks with all three lanes on `endpoint`."""
    remote = dict(endpoint=endpoint, model_name="stub-model", retry_backoff=0.001,
                  timeout=5.0, **overrides)
    return {
        "chat": {"kind": "RemoteChat", **remote},
        "caption": {"kind": "RemoteChat", **remote},
        "embed": {"kind": "RemoteEmbed", **remote},
    }


def count_pool_submits(gateway):
    """Record every task handed to the gateway's fan-out pool."""
    submitted = []
    submit = gateway._pool.submit

    def counting(*args, **kwargs):
        submitted.append(args)
        return submit(*args, **kwargs)

    gateway._pool.submit = counting
    return submitted


def record_update_batches(monkeypatch):
    """The frames of every `update_graph` call, one tuple per call."""
    batches = []
    update = VideoGraph.update_graph

    def recording(graph, frames):
        batches.append(tuple(parse.frame_index for parse, _ in frames))
        return update(graph, frames)

    monkeypatch.setattr(VideoGraph, "update_graph", recording)
    return batches


def record_parses(monkeypatch):
    """The frame of every `parse_caption` call the agent makes, one entry
    per call."""
    parsed = []
    parse = agent_module.parse_caption

    def recording(text, frame, lexicon):
        parsed.append(frame)
        return parse(text, frame, lexicon)

    monkeypatch.setattr(agent_module, "parse_caption", recording)
    return parsed


def record_norms(monkeypatch):
    """Every vector `graph.vector_norm` is called on, one entry per call;
    the entries keep the vectors alive, so their ids stay distinct. Every
    `Embedding` computes its norm there."""
    normed = []
    norm = graph_module.vector_norm

    def recording(vector):
        normed.append(vector)
        return norm(vector)

    monkeypatch.setattr(graph_module, "vector_norm", recording)
    return normed


def as_old_records(path, chosen=lambda index: True) -> int:
    """Rewrite the cache file at `path` as older versions wrote it: each
    record whose index `chosen` picks holds the whole reply its value came
    from, a text as a chat completion and a vector as an embeddings reply.
    Returns how many records were rewritten."""
    lines, rewritten = [], 0
    for index, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        (key, value), = json.loads(line).items()
        if chosen(index):
            rewritten += 1
            if isinstance(value, str):
                value = {"choices": [{"message": {"content": value}}]}
            else:
                raw = base64.b64decode(value["f64"])
                value = {"data": [{"embedding": list(struct.unpack(f"<{len(raw) // 8}d", raw))}]}
        lines.append(json.dumps({key: value}, sort_keys=True, ensure_ascii=False))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rewritten


def count_decodes(monkeypatch):
    """Every reply decode of the gateways built from now on, one payload per entry."""
    decoded = []
    for name in ("_completion_text", "_embedding"):
        decode = getattr(gateway_module, name)
        monkeypatch.setattr(gateway_module, name,
                            lambda *args, decode=decode: decoded.append(args[-1]) or decode(*args))
    return decoded
