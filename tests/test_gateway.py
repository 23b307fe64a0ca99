from __future__ import annotations

import json
import math

import pytest

from conftest import make_bundle, remote_chat_config
from graphvqa.errors import (
    DataFormatError,
    GatewayConfigError,
    GatewayError,
    MissingCaptionError,
    MissingEmbeddingError,
)
from graphvqa.gateway import (
    PRECOMPUTED_CAPTION,
    PRECOMPUTED_EMBED,
    SCRIPTED,
    ModelGateway,
    ProviderConfig,
    ResponseCache,
    ScriptEntry,
    ScriptedChat,
    load_script,
    pseudo_embedding,
)


def chat_ok(content="ok"):
    return json.dumps({"choices": [{"message": {"content": content}}]})


# -- scripted chat ---------------------------------------------------------------

def test_scripted_catch_all_returns_exact_text():
    gateway = ModelGateway(
        chat=ProviderConfig(kind=SCRIPTED),
        chat_script=[ScriptEntry(reply="answer: A, confidence: 3")],
    )
    assert gateway.chat([("user", "anything")]) == "answer: A, confidence: 3"


def test_scripted_round_and_substring_matching():
    script = ScriptedChat([
        ScriptEntry(reply="first", round=1),
        ScriptEntry(reply="mentions dog", contains="dog"),
        ScriptEntry(reply="both", contains_all=("alpha", "beta")),
        ScriptEntry(reply="fallback"),
    ])
    assert script.reply("whatever") == "first"          # call 1: round match
    assert script.reply("a dog appears") == "mentions dog"
    assert script.reply("beta then alpha") == "both"
    assert script.reply("alpha only") == "fallback"


def test_scripted_requires_catch_all():
    with pytest.raises(GatewayConfigError):
        ScriptedChat([ScriptEntry(reply="x", round=1)])
    with pytest.raises(GatewayConfigError):
        ScriptedChat([])


def test_load_script_file(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text(
        '# comment\n'
        '{"round": 1, "reply": "answer: B, confidence: 1, missing: more"}\n'
        '{"contains_all": ["x", "y"], "reply": "answer: C, confidence: 3"}\n'
        '{"reply": "answer: A, confidence: 3"}\n',
        encoding="utf-8",
    )
    entries = load_script(path)
    assert len(entries) == 3
    assert entries[0].round == 1
    assert entries[1].contains_all == ("x", "y")
    assert entries[2].is_catch_all


def test_load_script_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(GatewayConfigError):
        load_script(path)
    path.write_text('{"round": 1}\n', encoding="utf-8")
    with pytest.raises(GatewayConfigError):
        load_script(path)


# -- pseudo embeddings --------------------------------------------------------------

def test_pseudo_embedding_deterministic_unit_norm():
    a = pseudo_embedding("dog", 64)
    b = pseudo_embedding("dog", 64)
    assert a == b
    assert len(a) == 64
    assert abs(math.sqrt(sum(x * x for x in a)) - 1.0) <= 1e-9


def test_pseudo_embedding_varies_with_input_and_seed():
    assert pseudo_embedding("dog", 16) != pseudo_embedding("cat", 16)
    assert pseudo_embedding("dog", 16, seed=0) != pseudo_embedding("dog", 16, seed=1)


def test_scripted_embed_lane():
    gateway = ModelGateway(embed=ProviderConfig(kind=SCRIPTED, embed_dim=32, seed=4))
    first = gateway.embed("dog")
    assert first == gateway.embed("dog")
    assert len(first) == 32


# -- precomputed lanes -----------------------------------------------------------------

def test_precomputed_caption_hit_and_missing():
    bundle = make_bundle(total_frames=10)
    gateway = ModelGateway(caption=ProviderConfig(kind=PRECOMPUTED_CAPTION))
    assert gateway.caption(3, bundle) == bundle.captions[3]
    sparse = make_bundle(total_frames=10, caption_every=9)
    with pytest.raises(MissingCaptionError):
        gateway.caption(5, sparse)


def test_precomputed_embed_exact_vector():
    bundle = make_bundle(total_frames=6, dim=8)
    gateway = ModelGateway(embed=ProviderConfig(kind=PRECOMPUTED_EMBED))
    assert gateway.embed(2, bundle) == bundle.embeddings[2]
    with pytest.raises(MissingEmbeddingError):
        gateway.embed(99, bundle)
    with pytest.raises(MissingEmbeddingError):
        gateway.embed("some text", bundle)


# -- provider config validation ----------------------------------------------------------

def test_remote_requires_endpoint_and_model():
    with pytest.raises(GatewayConfigError):
        ProviderConfig(kind="RemoteChat")
    with pytest.raises(GatewayConfigError):
        ProviderConfig(kind="bogus")


def test_no_lane_configured_errors():
    gateway = ModelGateway()
    with pytest.raises(GatewayConfigError):
        gateway.chat([("user", "hi")])
    with pytest.raises(GatewayConfigError):
        gateway.caption(0, make_bundle(total_frames=4))
    with pytest.raises(GatewayConfigError):
        gateway.embed("x")


def test_empty_messages_rejected():
    gateway = ModelGateway(
        chat=ProviderConfig(kind=SCRIPTED),
        chat_script=[ScriptEntry(reply="r")],
    )
    with pytest.raises(ValueError):
        gateway.chat([])


# -- remote wire behavior -------------------------------------------------------------------

def test_remote_chat_happy_path(stub_server):
    endpoint, state = stub_server
    state.responses.append((200, chat_ok("hello there")))
    gateway = ModelGateway(chat=remote_chat_config(endpoint))
    assert gateway.chat([("user", "hi")]) == "hello there"
    request = json.loads(state.requests[0])
    assert request["model"] == "stub-model"
    assert request["messages"] == [{"role": "user", "content": "hi"}]
    assert request["temperature"] == 0.0


def test_remote_retries_then_succeeds(stub_server):
    endpoint, state = stub_server
    state.responses.extend([(500, "{}"), (500, "{}"), (200, chat_ok("third"))])
    gateway = ModelGateway(chat=remote_chat_config(endpoint, max_retries=3))
    assert gateway.chat([("user", "hi")]) == "third"
    assert state.request_count == 3


def test_remote_retry_bound(stub_server):
    endpoint, state = stub_server
    state.responses.extend([(503, "{}")] * 10)
    gateway = ModelGateway(chat=remote_chat_config(endpoint, max_retries=2))
    with pytest.raises(GatewayError) as info:
        gateway.chat([("user", "hi")])
    assert state.request_count == 3  # max_retries + 1
    assert info.value.attempts == 3
    assert info.value.status == 503


def test_remote_client_error_fails_fast(stub_server):
    endpoint, state = stub_server
    state.responses.append((404, "{}"))
    gateway = ModelGateway(chat=remote_chat_config(endpoint))
    with pytest.raises(GatewayError) as info:
        gateway.chat([("user", "hi")])
    assert state.request_count == 1
    assert info.value.status == 404


def test_remote_malformed_payloads_typed_errors(stub_server):
    endpoint, state = stub_server
    gateway = ModelGateway(chat=remote_chat_config(endpoint))
    state.responses.append((200, "this is not json"))
    with pytest.raises(GatewayError):
        gateway.chat([("user", "a")])
    state.responses.append((200, json.dumps({"choices": []})))
    with pytest.raises(GatewayError):
        gateway.chat([("user", "b")])
    state.responses.append((200, json.dumps({"unexpected": True})))
    with pytest.raises(GatewayError):
        gateway.chat([("user", "c")])


def test_missing_api_key_fails_before_any_request(stub_server, monkeypatch):
    endpoint, state = stub_server
    monkeypatch.delenv("GRAPHVQA_TEST_KEY", raising=False)
    gateway = ModelGateway(
        chat=remote_chat_config(endpoint, api_key_env="GRAPHVQA_TEST_KEY")
    )
    with pytest.raises(GatewayConfigError):
        gateway.chat([("user", "hi")])
    assert state.request_count == 0


def test_api_key_sent_as_bearer(stub_server, monkeypatch):
    endpoint, state = stub_server
    monkeypatch.setenv("GRAPHVQA_TEST_KEY", "sk-test")
    state.responses.append((200, chat_ok()))
    gateway = ModelGateway(
        chat=remote_chat_config(endpoint, api_key_env="GRAPHVQA_TEST_KEY")
    )
    gateway.chat([("user", "hi")])
    assert state.request_count == 1


def test_remote_embeddings(stub_server):
    endpoint, state = stub_server
    state.responses.append((200, json.dumps({"data": [{"embedding": [0.1, 0.2, 0.3]}]})))
    gateway = ModelGateway(
        embed=ProviderConfig(
            kind="RemoteEmbed", endpoint=endpoint, model_name="embedder",
            retry_backoff=0.001,
        )
    )
    assert gateway.embed("hello") == [0.1, 0.2, 0.3]
    state.responses.append((200, json.dumps({"data": []})))
    with pytest.raises(GatewayError):
        gateway.embed("oops")


def test_remote_caption_uses_frame_reference(stub_server):
    endpoint, state = stub_server
    state.responses.append((200, chat_ok("a dog runs")))
    bundle = make_bundle(video_id="vidX", total_frames=10, caption_every=9)
    gateway = ModelGateway(caption=remote_chat_config(endpoint))
    assert gateway.caption(7, bundle) == "a dog runs"
    body = json.loads(state.requests[0])
    assert "frame 7" in body["messages"][0]["content"]
    assert "vidX" in body["messages"][0]["content"]


# -- cache ------------------------------------------------------------------------------------

def test_cache_serves_second_identical_call(stub_server):
    endpoint, state = stub_server
    state.echo = True
    gateway = ModelGateway(chat=remote_chat_config(endpoint), cache=ResponseCache())
    first = gateway.chat([("user", "caption frame 41")])
    second = gateway.chat([("user", "caption frame 41")])
    assert first == second
    assert state.request_count == 1


def test_cache_transparent(stub_server):
    endpoint, state = stub_server
    state.echo = True
    prompts = ["alpha", "beta", "alpha", "gamma", "beta", "alpha"]

    cached_gateway = ModelGateway(chat=remote_chat_config(endpoint), cache=ResponseCache())
    with_cache = [cached_gateway.chat([("user", p)]) for p in prompts]

    plain_gateway = ModelGateway(chat=remote_chat_config(endpoint))
    without_cache = [plain_gateway.chat([("user", p)]) for p in prompts]

    assert with_cache == without_cache


def test_cache_persists_to_disk(stub_server, tmp_path):
    endpoint, state = stub_server
    state.echo = True
    cache_path = tmp_path / "cache.json"
    gateway = ModelGateway(chat=remote_chat_config(endpoint), cache=ResponseCache(cache_path))
    first = gateway.chat([("user", "persist me")])
    assert state.request_count == 1

    reloaded = ModelGateway(chat=remote_chat_config(endpoint), cache=ResponseCache(cache_path))
    assert reloaded.chat([("user", "persist me")]) == first
    assert state.request_count == 1  # served from the reloaded cache


def _cache_lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_cache_put_appends_one_record_per_key(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResponseCache(path)
    cache.put("k1", {"v": 1})
    before = path.read_bytes()
    cache.put("k2", {"v": "ü"})
    cache.put("k1", {"v": "ignored"})  # a concurrent miss on a cached key
    assert path.read_bytes().startswith(before)
    assert _cache_lines(path) == [{"k1": {"v": 1}}, {"k2": {"v": "ü"}}]
    assert cache.get("k1") == {"v": 1}


@pytest.mark.parametrize("tail", [b'{"k3": {"v": 3', '{"k3": "ü'.encode("utf-8")[:-1]])
def test_cache_drops_truncated_last_line(tmp_path, tail):
    path = tmp_path / "cache.json"
    cache = ResponseCache(path)
    cache.put("k1", {"v": 1})
    cache.put("k2", {"v": 2})
    with path.open("ab") as handle:
        handle.write(tail)

    reloaded = ResponseCache(path)
    assert (reloaded.get("k1"), reloaded.get("k2"), reloaded.get("k3")) == ({"v": 1}, {"v": 2}, None)
    reloaded.put("k4", {"v": 4})
    again = ResponseCache(path)
    assert [again.get(k) for k in ("k1", "k2", "k4")] == [{"v": 1}, {"v": 2}, {"v": 4}]
    assert len(_cache_lines(path)) == 3


def test_cache_reads_single_object_file_and_serves_hits(stub_server, tmp_path):
    endpoint, state = stub_server
    state.echo = True
    path = tmp_path / "cache.json"
    gateway = ModelGateway(chat=remote_chat_config(endpoint), cache=ResponseCache(path))
    replies = [gateway.chat([("user", p)]) for p in ("alpha", "beta")]
    merged = {k: v for record in _cache_lines(path) for k, v in record.items()}
    # one object on one line, no trailing newline
    path.write_text(json.dumps(merged, sort_keys=True, ensure_ascii=False), encoding="utf-8")

    reloaded = ModelGateway(chat=remote_chat_config(endpoint), cache=ResponseCache(path))
    assert [reloaded.chat([("user", p)]) for p in ("alpha", "beta")] == replies
    assert state.request_count == 2
    reloaded.chat([("user", "gamma")])
    assert len(_cache_lines(path)) == 2  # the next record starts its own line
    assert ResponseCache(path).get(next(iter(merged))) is not None


def test_cache_malformed_middle_line_raises(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text('{"k1": 1}\nnot json\n{"k2": 2}\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2:"):
        ResponseCache(path)
    path.write_text('{"k1": 1}\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match="not a JSON object"):
        ResponseCache(path)


def test_session_views_share_cache_but_count_chat_calls_apart(stub_server):
    endpoint, state = stub_server
    state.echo = True
    shared = ModelGateway(
        chat=ProviderConfig(kind=SCRIPTED),
        caption=remote_chat_config(endpoint),
        cache=ResponseCache(),
        chat_script=[ScriptEntry(reply="first", round=1), ScriptEntry(reply="later")],
    )
    bundle = make_bundle(total_frames=4)
    one, two = shared.for_session(), shared.for_session()
    assert [one.chat([("user", "q")]), one.chat([("user", "q")])] == ["first", "later"]
    assert two.chat([("user", "q")]) == "first"
    assert one.caption(3, bundle) == two.caption(3, bundle)
    assert state.request_count == 1
    assert one.cache is two.cache is shared.cache
    assert one._semaphore(one.caption_cfg) is two._semaphore(two.caption_cfg)


@pytest.mark.parametrize("reply", [None, b"garbage\r\n\r\n"])
def test_remote_transport_failures_retry(reply):
    # None: the server accepts nothing, so every read times out;
    # bytes: it answers with something that is not HTTP.
    import socket
    import threading

    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(4)

    def answer():
        for _ in range(2):
            conn, _addr = server.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True) if reply else None
    if thread:
        thread.start()
    endpoint = f"http://127.0.0.1:{server.getsockname()[1]}"
    try:
        gateway = ModelGateway(chat=remote_chat_config(endpoint, max_retries=1, timeout=0.3))
        with pytest.raises(GatewayError, match="transport error") as info:
            gateway.chat([("user", "hi")])
        assert info.value.attempts == 2
        if thread:
            thread.join(timeout=5)
            assert not thread.is_alive()
    finally:
        server.close()
