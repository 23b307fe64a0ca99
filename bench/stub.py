"""Stub OpenAI-compatible model server for the benchmark, run as a child process.

    python3 bench/stub.py --data-dir src/graphvqa/data

Binds 127.0.0.1 on a free port, prints ``PORT <n>`` on stdout, and serves
until terminated:

- ``POST /v1/chat/completions``: caption requests ("Caption frame N of video
  ID.") get ``inputs.Video.caption``; every other chat gets
  ``inputs.chat_reply``.
- ``POST /v1/embeddings``: a frame number gets ``inputs.frame_embeddings``,
  any other text ``inputs.text_embedding``.
- ``GET /stats`` returns the wire counters; ``POST /reset`` zeroes them.

Every model request sleeps DELAY_S before it is answered. Counters
are per lane (chat, caption, embed): requests, service time, chat prompt
characters, distinct embedding bodies and error replies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import inputs

DELAY_S = 0.002
_CAPTION_RE = re.compile(r"^Caption frame (\d+) of video (.+)\.$")
LANES = ("chat", "caption", "embed")


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.requests = dict.fromkeys(LANES, 0)
        self.service_s = dict.fromkeys(LANES, 0.0)
        self.prompt_chars = 0
        self.embed_bodies: set[str] = set()
        self.errors = 0

    def snapshot(self) -> dict:
        return {
            "requests": dict(self.requests),
            "service_s": dict(self.service_s),
            "prompt_chars": self.prompt_chars,
            "embed_unique": len(self.embed_bodies),
            "errors": self.errors,
        }


class Handler(BaseHTTPRequestHandler):
    counters: Counters
    videos: dict
    replies: dict  # (path, request body) -> (lane, reply body); replies are deterministic

    def log_message(self, *args):
        pass

    def _send(self, status: int, payload) -> None:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/stats":
            with self.counters.lock:
                self._send(200, self.counters.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        started = time.perf_counter()
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            with self.counters.lock:
                self.counters.reset()
            self._send(200, {})
            return
        try:
            lane, reply = self._answer(raw)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            with self.counters.lock:
                self.counters.errors += 1
            self._send(400, {"error": repr(exc)})
            return
        time.sleep(DELAY_S)
        # Count before replying: once the client has its reply, the benchmark
        # may read or reset the counters at once.
        elapsed = time.perf_counter() - started
        with self.counters.lock:
            self.counters.requests[lane] += 1
            self.counters.service_s[lane] += elapsed
            if lane == "chat":
                request = json.loads(raw)
                self.counters.prompt_chars += sum(len(m["content"]) for m in request["messages"])
            elif lane == "embed":
                self.counters.embed_bodies.add(hashlib.sha256(raw).hexdigest())
        self._send(200, reply)

    def _answer(self, raw: bytes) -> tuple[str, bytes]:
        key = (self.path, raw)
        answer = self.replies.get(key)
        if answer is None:
            lane, reply = self._compute(json.loads(raw))
            answer = self.replies.setdefault(key, (lane, json.dumps(reply).encode("utf-8")))
        return answer

    def _compute(self, request: dict) -> tuple[str, dict]:
        if self.path == "/v1/embeddings":
            text = str(request["input"])
            if text.isdigit():
                vector = inputs.frame_embeddings([int(text)])[0]
            else:
                vector = inputs.text_embedding(text)
            return "embed", {"data": [{"embedding": [round(x, 6) for x in vector.tolist()]}]}
        if self.path != "/v1/chat/completions":
            raise KeyError(self.path)
        content = request["messages"][-1]["content"]
        match = _CAPTION_RE.match(content)
        if match and len(request["messages"]) == 1:
            lane, text = "caption", self.videos[match.group(2)].caption(int(match.group(1)))
        else:
            lane, text = "chat", inputs.chat_reply(request["messages"][0]["content"])
        return lane, {"choices": [{"message": {"role": "assistant", "content": text}}]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True, help="the package's lexicon directory")
    args = parser.parse_args()
    vocab = inputs.Vocabulary(Path(args.data_dir))
    handler = type("StubHandler", (Handler,), {
        "counters": Counters(),
        "videos": {v.video_id: v for v in inputs.eval_videos(vocab)},
        "replies": {},
    })
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
