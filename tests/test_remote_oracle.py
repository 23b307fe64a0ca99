"""A byte-level oracle for the remote path: the golden config's `kitchen`
items, run once as committed and once with caption and embed on
`RemoteChat`/`RemoteEmbed` against an in-process stub that serves what the
local lanes would, write the same `report.json` and `transcripts.jsonl`.

The stub answers a caption request with the bundle's caption of the frame,
a frame's embedding request with the bundle's vector, and a text's with
`pseudo_embedding(f"text:{text}", 8, 3)`, as the config's Scripted embed
lane does. Chat stays Scripted: a script entry's `round` counts the calls
of one session, which a server cannot tell apart. Only a bundle that
captions every frame qualifies, because a remote captioner can caption any
frame and so widens the candidate pools; of the golden bundles that is
`kitchen`.

With a cache, a file of the records this version writes (decoded values),
one of the whole replies older versions wrote, and a mix of both give the
same bytes, cold and warm.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import as_old_records
from graphvqa.cli import main
from graphvqa.gateway import pseudo_embedding
from graphvqa.store import load_bundle

GOLDEN = Path(__file__).parent / "data" / "golden"
KITCHEN = load_bundle(GOLDEN / "bundles" / "kitchen")
CAPTION_REQUEST = re.compile(r"Caption frame (\d+) of video kitchen\.")


class BundleStub(ThreadingHTTPServer):
    """Serves the `kitchen` bundle's captions and vectors over HTTP and
    counts the requests it answers."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), BundleHandler)
        self.requests = 0
        self.lock = threading.Lock()


class BundleHandler(BaseHTTPRequestHandler):
    server: BundleStub

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.requests += 1
        if self.path == "/v1/embeddings":
            text = body["input"]
            vector = (KITCHEN.embeddings[int(text)] if text.isdigit()
                      else pseudo_embedding(f"text:{text}", 8, 3))
            reply = {"data": [{"embedding": list(vector)}]}
        else:
            frame = int(CAPTION_REQUEST.fullmatch(body["messages"][0]["content"]).group(1))
            reply = {"choices": [{"message": {"content": KITCHEN.captions[frame]}}]}
        payload = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def bundle_stub():
    server = BundleStub()
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02))
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


def outputs(config, tmp_path, name: str, parallel: int) -> dict[str, bytes]:
    """`eval`'s report and transcripts for the `kitchen` items under `config`."""
    (tmp_path / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / name
    assert main(["eval", "--qa", str(tmp_path / "qa.jsonl"), "--bundle", "bundles",
                 "--config", str(tmp_path / f"{name}.json"), "--out", str(out),
                 "--parallel", str(parallel)]) == 0
    return {file: (out / file).read_bytes() for file in ("report.json", "transcripts.jsonl")}


def local_and_remote(bundle_stub, tmp_path, parallel) -> tuple[dict[str, bytes], dict]:
    """The local path's outputs on the `kitchen` items, and the config that
    moves caption and embed onto the stub. Run from the golden directory."""
    lines = (GOLDEN / "qa.jsonl").read_text(encoding="utf-8").splitlines()
    kitchen = [line for line in lines if json.loads(line)["video_id"] == "kitchen"]
    (tmp_path / "qa.jsonl").write_text("\n".join(kitchen) + "\n", encoding="utf-8")
    local = json.loads((GOLDEN / "config.json").read_text(encoding="utf-8"))
    expected = outputs(local, tmp_path, "local", parallel)

    remote = json.loads(json.dumps(local))
    endpoint = f"http://127.0.0.1:{bundle_stub.server_address[1]}"
    lanes = remote["providers"]["default"]
    lanes["caption"] = {"kind": "RemoteChat", "endpoint": endpoint, "model_name": "captioner"}
    lanes["embed"] = {"kind": "RemoteEmbed", "endpoint": endpoint, "model_name": "embedder"}
    return expected, remote


@pytest.mark.parametrize("parallel", [1, 3])
def test_the_remote_path_writes_the_local_paths_bytes(bundle_stub, tmp_path, monkeypatch,
                                                     parallel, capsys):
    monkeypatch.chdir(GOLDEN)  # the config names `script.jsonl` relative to it
    expected, remote = local_and_remote(bundle_stub, tmp_path, parallel)
    assert outputs(remote, tmp_path, "remote", parallel) == expected
    sent = bundle_stub.requests
    assert sent > 0

    remote["cache_path"] = str(tmp_path / "cache.jsonl")
    assert outputs(remote, tmp_path, "cold", parallel) == expected
    assert bundle_stub.requests == 2 * sent
    assert outputs(remote, tmp_path, "warm", parallel) == expected
    assert bundle_stub.requests == 2 * sent  # the warm run sends nothing


@pytest.mark.parametrize("parallel", [1, 3])
def test_old_new_and_mixed_cache_records_write_the_local_paths_bytes(
        bundle_stub, tmp_path, monkeypatch, parallel, capsys):
    monkeypatch.chdir(GOLDEN)
    expected, remote = local_and_remote(bundle_stub, tmp_path, parallel)
    remote["cache_path"] = str(tmp_path / "new.jsonl")
    assert outputs(remote, tmp_path, "new", parallel) == expected
    new = (tmp_path / "new.jsonl").read_bytes()
    records = [next(iter(json.loads(line).values())) for line in new.splitlines()]
    assert all(isinstance(value, str) or value.keys() == {"f64"} for value in records)
    keys = len(records)
    for kind, chosen in [("new", lambda index: False), ("old", lambda index: True),
                         ("mixed", lambda index: index % 2 == 0)]:
        path = tmp_path / f"{kind}.jsonl"
        path.write_bytes(new)
        as_old_records(path, chosen)
        remote["cache_path"] = str(path)
        sent = bundle_stub.requests
        assert outputs(remote, tmp_path, f"{kind} warm", parallel) == expected
        assert bundle_stub.requests == sent  # a warm run sends nothing
        # Cold: a third of the records are gone, so those requests go out
        # again and append new records after the old ones.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(line for index, line in enumerate(lines) if index % 3))
        assert outputs(remote, tmp_path, f"{kind} cold", parallel) == expected
        assert bundle_stub.requests == sent + (keys + 2) // 3
        assert outputs(remote, tmp_path, f"{kind} rewarmed", parallel) == expected
        assert bundle_stub.requests == sent + (keys + 2) // 3
