from __future__ import annotations

import base64
import errno
import json
import math
import pathlib
import struct
import threading

import pytest

from conftest import as_old_records, count_decodes, make_bundle, record_parses, remote_lanes
from graphvqa.cli import _build_parser, main
from graphvqa.gateway import ResponseCache
from graphvqa.store import QAItem, load_graph, load_transcripts, save_bundle, save_qa

OPTIONS = ["a", "b", "c", "d", "e"]


@pytest.fixture
def suite(tmp_path):
    """A bundle, a QA file, a script file, and a config on disk."""
    bundle = make_bundle(video_id="v0", total_frames=60)
    bundle_dir = save_bundle(bundle, tmp_path / "bundles" / "v0")

    script_path = tmp_path / "script.jsonl"
    script_path.write_text('{"reply": "answer: A, confidence: 3, missing: none"}\n',
                           encoding="utf-8")

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "agent": {"initial_frames": 5, "max_rounds": 3},
        "providers": {
            "default": {
                "chat": {"kind": "Scripted", "script_path": str(script_path)},
                "caption": {"kind": "PrecomputedCaption"},
                "embed": {"kind": "Scripted", "embed_dim": 16, "seed": 1},
            }
        },
    }), encoding="utf-8")

    qa_path = save_qa(
        [QAItem("v0", f"q {i}?", OPTIONS, answer_index=0) for i in range(3)],
        tmp_path / "qa",
    )
    return {
        "tmp": tmp_path,
        "bundle_dir": bundle_dir,
        "bundle_root": tmp_path / "bundles",
        "config": config_path,
        "qa": qa_path,
        "script": script_path,
    }


def test_run_subcommand(suite, capsys):
    code = main([
        "run", "--bundle", str(suite["bundle_dir"]), "--config", str(suite["config"]),
        "--question", "what happens?", "--options", *OPTIONS,
        "--out", str(suite["tmp"] / "runout"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "answer: A" in out
    records = load_transcripts(suite["tmp"] / "runout" / "transcripts.jsonl")
    assert len(records) == 1
    graph = load_graph((suite["tmp"] / "runout" / "graph.json").read_bytes())
    assert graph.version >= 1


def test_eval_subcommand(suite, capsys):
    out_dir = suite["tmp"] / "evalout"
    code = main([
        "eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"]),
        "--config", str(suite["config"]), "--out", str(out_dir),
    ])
    printed = capsys.readouterr().out
    assert code == 0
    assert "accuracy" in printed
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["n_items"] == 3
    assert report["accuracy"] == 1.0
    assert len(load_transcripts(out_dir / "transcripts.jsonl")) == 3


def test_graph_subcommand(suite, capsys):
    out_dir = suite["tmp"] / "graphout"
    code = main(["graph", "--bundle", str(suite["bundle_dir"]), "--out", str(out_dir)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "entities" in printed
    graph = load_graph((out_dir / "graph.json").read_bytes())
    assert len(graph.nodes) > 0
    assert graph.version == 1


def test_extract_subcommand_caption(capsys):
    code = main(["extract", "--caption", "the dog barks at the person"])
    printed = capsys.readouterr().out
    assert code == 0
    record = json.loads(printed.strip())
    assert [m["lemma"] for m in record["mentions"]] == ["dog", "person"]
    assert record["triples"] == [["dog", "bark", "Interaction", "person"]]


def test_extract_subcommand_bundle(suite, capsys):
    code = main(["extract", "--bundle", str(suite["bundle_dir"])])
    printed = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(printed) == 60
    json.loads(printed[0])


def test_extract_without_inputs_is_usage_error(capsys):
    assert main(["extract"]) == 1


def test_unknown_provider_is_usage_error(suite, capsys):
    code = main([
        "run", "--bundle", str(suite["bundle_dir"]), "--config", str(suite["config"]),
        "--provider", "nope", "--question", "q?", "--options", "a", "b",
    ])
    assert code == 1


def test_missing_bundle_is_data_error(suite, tmp_path, capsys):
    code = main([
        "run", "--bundle", str(tmp_path / "nowhere"), "--config", str(suite["config"]),
        "--question", "q?", "--options", "a", "b",
    ])
    assert code == 2


def test_bad_qa_file_is_data_error(suite, tmp_path, capsys):
    bad_qa = tmp_path / "bad_qa"
    record = '{"video_id": "v0", "question": "q?", "options": ["a", "b"]'
    for line in [b"not json", b"[1]", record.encode() + b', "answer_index": "1"}',
                 record.encode() + b', "answer_index": true}',
                 b'{"video_id": "v0", "question": "q?", "options": 5}',
                 b'{"video_id": "v0", "question": "q?", "options": "ab"}',
                 record.encode() + b', "answer_index": ' + b"9" * 5000 + b"}",
                 record.encode() + b', "category": "\xff"}']:
        bad_qa.write_bytes(line + b"\n")
        code = main([
            "eval", "--qa", str(bad_qa), "--bundle", str(suite["bundle_root"]),
            "--config", str(suite["config"]),
        ])
        assert code == 2, line
        assert f"{bad_qa}:" in capsys.readouterr().err


def test_gateway_exhaustion_exit_code(suite, tmp_path, capsys):
    # remote captioner on a dead endpoint: the initial ingest cannot proceed
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()

    config_path = tmp_path / "dead.json"
    config_path.write_text(json.dumps({
        "providers": {
            "default": {
                "chat": {"kind": "Scripted", "script_path": str(suite["script"])},
                "caption": {
                    "kind": "RemoteChat",
                    "endpoint": f"http://127.0.0.1:{port}",
                    "model_name": "capper",
                    "max_retries": 0,
                    "timeout": 0.5,
                    "retry_backoff": 0.001,
                },
            }
        },
    }), encoding="utf-8")
    code = main([
        "run", "--bundle", str(suite["bundle_dir"]), "--config", str(config_path),
        "--question", "q?", "--options", "a", "b",
    ])
    assert code == 3


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_seed_flag_changes_scripted_embeddings(suite):
    from graphvqa.cli import build_gateway, load_config

    config = load_config(str(suite["config"]))
    gw1 = build_gateway(config, None, seed=1)
    gw2 = build_gateway(config, None, seed=2)
    assert gw1.embed("dog") != gw2.embed("dog")


@pytest.mark.parametrize("graph_section", [
    {"nope": 1},
    {"merge_similarity": 7.0},
    {"window": 5},
    {"coherence_alpha": 0.5},
])
def test_graph_bad_graph_config_is_usage_error(suite, tmp_path, capsys, graph_section):
    config_path = tmp_path / "graph.json"
    config_path.write_text(json.dumps({"graph": graph_section}), encoding="utf-8")
    code = main(["graph", "--bundle", str(suite["bundle_dir"]), "--config", str(config_path)])
    assert code == 1
    assert "bad config" in capsys.readouterr().err


def test_run_malformed_cache_line_is_data_error(suite, tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    config["cache_path"] = str(cache_path)
    config_path = tmp_path / "cached.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    # A value must be a text, a vector or a whole reply that decodes: any
    # other value would fail its request on every run and never be sent.
    # A vector must be base64 of a nonempty whole number of finite doubles.
    vectors = [base64.b64encode(raw).decode("ascii") for raw in (
        b"", b"\0" * 7, b"\0" * 12, struct.pack("<2d", 1.0, math.inf),
        struct.pack("<d", math.nan))]
    bad_vectors = [f'{{"k2": {{"f64": "{text}"}}}}' for text in vectors]
    foreign = ['{"k2": 3}', '{"k2": [1, 2]}', '{"k2": {"v": 3}}', '{"k2": null}',
               '{"k2": {"choices": []}}', '{"k2": {"data": [{"embedding": "1 2"}]}}']
    for second_line in ('{"k2": ', '{"k2": {"f64": "AA!A"}}', '{"k2": {"f64": "AAAAAAAAAAA"}}',
                        '{"k2": {"f64": 5}}', *bad_vectors, *foreign):
        cache_path.write_text(f'{{"k1": "one"}}\n{second_line}\n{{"k3": "three"}}\n',
                              encoding="utf-8")
        for argv in (["run", "--bundle", str(suite["bundle_dir"]), "--question", "q?",
                      "--options", "a", "b"],
                     ["eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"]),
                      "--out", str(tmp_path / "out")]):
            assert main([*argv, "--config", str(config_path)]) == 2
            assert f"data error: {cache_path}:2: " in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value,problem", [
    ({"choices": []}, "{path}:1: cache record holds a reply that does not decode: "
                      "malformed chat payload"),
    ({"f64": "AAAAAAAA8D8="}, "cache record {key} holds a value of the wrong form for its lane"),
], ids=["reply-that-does-not-decode", "vector-under-a-chat-key"])
def test_a_cached_value_its_lane_cannot_use_is_data_error(tmp_path, suite, model_stub, capsys,
                                                          value, problem):
    # A reply that does not decode used to fail its request on every run,
    # sending nothing, and a vector under a chat key (only an edit can put
    # one there) to crash `run` once the load stopped decoding on hits.
    endpoint, state = model_stub
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    config["providers"]["default"]["chat"] = remote_lanes(endpoint)["chat"]
    config["cache_path"] = str(tmp_path / "cache.jsonl")
    config_path = tmp_path / "cached.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["run", "--bundle", str(suite["bundle_dir"]), "--config", str(config_path),
            "--question", "q?", "--options", "a", "b"]
    assert main(argv) == 0
    lines = (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    (key, text), = json.loads(lines[0]).items()
    assert isinstance(text, str)  # the first chat prompt's reply
    lines[0] = json.dumps({key: value})
    (tmp_path / "cache.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    before, sent = (tmp_path / "cache.jsonl").read_bytes(), len(state.requests)
    capsys.readouterr()
    for _ in range(2):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error: " + problem.format(path=tmp_path / "cache.jsonl", key=key) in err
    assert (tmp_path / "cache.jsonl").read_bytes() == before
    assert len(state.requests) == sent


def test_eval_counts_scripted_rounds_per_item(suite, tmp_path):
    suite["script"].write_text(
        '{"round": 1, "reply": "answer: B, confidence: 1, missing: more"}\n'
        '{"reply": "answer: A, confidence: 3, missing: none"}\n',
        encoding="utf-8",
    )
    out_dir = tmp_path / "rounds"
    code = main([
        "eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"]),
        "--config", str(suite["config"]), "--out", str(out_dir), "--parallel", "2",
    ])
    assert code == 0
    records = load_transcripts(out_dir / "transcripts.jsonl")
    assert [len(r["rounds"]) for r in records] == [2, 2, 2]


def echo_eval(tmp_path, endpoint, **config):
    """Eight questions on two bundles with every remote lane on the echo stub;
    returns a function running `eval --parallel N` (4 by default) into a given
    directory."""
    root = tmp_path / "bundles"
    for index in range(2):
        save_bundle(make_bundle(video_id=f"v{index}", total_frames=40, seed=index), root / f"v{index}")
    qa_path = save_qa(
        [QAItem(f"v{i % 2}", f"what happens {i}?", OPTIONS, answer_index=0) for i in range(8)],
        tmp_path / "qa",
    )
    remote = {"kind": "RemoteChat", "endpoint": endpoint, "model_name": "stub",
              "retry_backoff": 0.001, "timeout": 5.0}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        **config,
        "providers": {"default": {
            "chat": remote, "caption": remote,
            "embed": {"kind": "Scripted", "embed_dim": 8},
        }},
    }), encoding="utf-8")

    def evaluate(out, parallel=4):
        return main(["eval", "--qa", str(qa_path), "--bundle", str(root),
                     "--config", str(config_path), "--out", str(out), "--parallel", str(parallel)])

    return evaluate


def test_parallel_eval_shares_one_file_cache(tmp_path, stub_server):
    import sys

    endpoint, state = stub_server
    state.echo = True
    cache_path = tmp_path / "cache.jsonl"
    evaluate = echo_eval(tmp_path, endpoint, cache_path=str(cache_path))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert evaluate(tmp_path / "first") == 0
        assert state.request_count == len(set(state.requests))
        records = cache_path.read_text(encoding="utf-8").splitlines()
        assert len(records) == len(set(state.requests))
        assert all(len(json.loads(line)) == 1 for line in records)

        state.requests.clear()
        assert evaluate(tmp_path / "second") == 0
        assert state.request_count == 0
    finally:
        sys.setswitchinterval(interval)
    first = (tmp_path / "first" / "transcripts.jsonl").read_bytes()
    assert (tmp_path / "second" / "transcripts.jsonl").read_bytes() == first
    assert len(first.splitlines()) == 8


def test_parallel_eval_without_cache_path_sends_each_request_once(tmp_path, stub_server):
    import sys

    endpoint, state = stub_server
    state.echo = True
    evaluate = echo_eval(tmp_path, endpoint)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert evaluate(tmp_path / "out") == 0
    finally:
        sys.setswitchinterval(interval)
    assert state.request_count == len(set(state.requests))
    assert len(load_transcripts(tmp_path / "out" / "transcripts.jsonl")) == 8


def test_parallel_eval_with_fan_out_matches_serial_eval(tmp_path, stub_server):
    endpoint, state = stub_server
    state.echo = True
    evaluate = echo_eval(tmp_path, endpoint)
    outputs = []
    for parallel in (1, 4):
        state.requests.clear()
        assert evaluate(tmp_path / f"out{parallel}", parallel) == 0
        assert state.request_count == len(set(state.requests))
        outputs.append([(tmp_path / f"out{parallel}" / name).read_bytes()
                        for name in ("report.json", "transcripts.jsonl")])
    assert outputs[0] == outputs[1]


def remote_eval(tmp_path, endpoint, parallel, **provider):
    """`eval --parallel N` of eight questions on three bundles, every lane
    remote. The bundles differ in length, so few frame embeddings coincide."""
    root = tmp_path / "bundles"
    for index in range(3):
        save_bundle(make_bundle(video_id=f"v{index}", total_frames=120 + 11 * index, seed=index),
                    root / f"v{index}")
    qa_path = save_qa(
        [QAItem(f"v{i % 3}", f"what does the dog hold {i}?", OPTIONS, answer_index=0)
         for i in range(8)],
        tmp_path / "qa",
    )
    config_path = tmp_path / "remote.json"
    config_path.write_text(json.dumps({
        "providers": {"default": remote_lanes(endpoint, **provider)},
    }), encoding="utf-8")
    return main(["eval", "--qa", str(qa_path), "--bundle", str(root), "--config",
                 str(config_path), "--out", str(tmp_path / "out"), "--parallel", str(parallel)])


def test_requests_in_flight_stay_within_pool_size_plus_parallel(tmp_path, model_stub):
    # The per-provider limits alone would allow 6 + 6 requests in flight.
    endpoint, state = model_stub
    state.delay_s = 0.03  # long enough for the sessions' rounds to overlap
    assert remote_eval(tmp_path, endpoint, parallel=2, max_inflight=6) == 0
    assert len(state.requests) == len(set(state.requests))
    assert 1 < state.peak <= 6 + 2


def test_eval_leaves_no_fan_out_thread_running(tmp_path, model_stub):
    endpoint, state = model_stub
    before = set(threading.enumerate())
    assert remote_eval(tmp_path, endpoint, parallel=2) == 0
    started = state.fan_out_threads - before
    assert started  # the eval fanned out
    assert not any(thread.is_alive() for thread in started)


def write_config(tmp_path, suite, **changes):
    """The suite's config with top-level keys replaced, written to a new file."""
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    config.update(changes)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_scripted_query_embedding_takes_bundle_dim(tmp_path, suite, capsys):
    # Frames embed at the bundle's 8 dims; the question must too, although
    # the scripted embedder is configured for 16.
    bundle_dir = save_bundle(make_bundle(video_id="v8", total_frames=60, dim=8), tmp_path / "v8")
    suite["script"].write_text('{"reply": "answer: B, confidence: 1, missing: more"}\n',
                               encoding="utf-8")
    code = main([
        "run", "--bundle", str(bundle_dir), "--config", str(suite["config"]),
        "--question", "what does the dog hold?", "--options", *OPTIONS,
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0, capsys.readouterr().err
    record = load_transcripts(tmp_path / "out" / "transcripts.jsonl")[0]
    assert len(record["rounds"]) == 3
    assert record["terminated_by"] == "RoundLimit"
    assert all(r["frames_added"] for r in record["rounds"][:2])


def test_missing_script_file_is_config_error(tmp_path, suite, capsys):
    suite["script"].unlink()
    code = main([
        "run", "--bundle", str(suite["bundle_dir"]), "--config", str(suite["config"]),
        "--question", "q?", "--options", "a", "b",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "script.jsonl" in err


def test_missing_lexicon_dir_is_data_error(tmp_path, suite, capsys):
    config_path = write_config(tmp_path, suite, lexicon_dir=str(tmp_path / "no_lexicon"))
    code = main([
        "run", "--bundle", str(suite["bundle_dir"]), "--config", str(config_path),
        "--question", "q?", "--options", "a", "b",
    ])
    assert code == 2
    assert "no_lexicon" in capsys.readouterr().err


def rejected_before_any_item(tmp_path, suite, capsys, command, config_path, *extra):
    """Run `command` (run or eval) on the suite, with `extra` arguments
    overriding the suite's; check that it exits 1 without writing output,
    and return what it printed to stderr."""
    out_dir = tmp_path / "out"
    if command == "run":
        argv = ["run", "--bundle", str(suite["bundle_dir"]),
                "--question", "q?", "--options", "a", "b"]
    else:
        argv = ["eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"])]
    code = main([*argv, *extra, "--config", str(config_path), "--out", str(out_dir)])
    assert code == 1
    assert not out_dir.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "eval"])
def test_missing_prompt_template_is_bad_config(tmp_path, suite, capsys, command):
    config_path = write_config(tmp_path, suite, agent={
        "prompt_template_path": str(tmp_path / "no_template.txt"),
    })
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert "bad config" in err


@pytest.mark.parametrize("command", ["run", "eval"])
def test_unknown_prompt_placeholder_is_bad_config(tmp_path, suite, capsys, command):
    template = tmp_path / "template.txt"
    template.write_text("Q: {question} {nope}", encoding="utf-8")
    config_path = write_config(tmp_path, suite, agent={"prompt_template_path": str(template)})
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert "bad config" in err and "{nope}" in err


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("path,value", [
    (("agent", "prompt_char_budget"), 100),
    (("agent", "max_rounds"), 2.5),
    (("selector", "k"), 2.5),
    (("selector", "expanded_decay_multiplier"), 0),
    (("selector", "expanded_decay_multiplier"), -2.0),
    (("agent", "max_rounds"), True),
    (("selector", "k"), True),
    (("selector", "weight_graph"), "0.5"),
    (("graph", "merge_similarity"), True),
    (("providers", "default", "embed", "max_retries"), -1),
    (("providers", "default", "embed", "timeout"), 0),
    (("providers", "default", "embed", "retry_backoff"), -0.5),
    (("providers", "default", "embed", "embed_dim"), 0),
    (("providers", "default", "embed", "max_inflight"), 0),
    (("providers", "default", "embed", "max_inflight"), 1.5),
    (("providers", "default", "embed", "embed_dim"), 2.5),
    (("providers", "default", "embed", "seed"), True),
    (("providers", "default", "embed", "timeout"), "5"),
    (("providers", "default", "caption", "endpoint"), 5),
    (("providers", "default", "chat", "script_path"), 5),
    # JSON's Infinity and NaN read as floats: each must be refused as out of range.
    (("providers", "default", "embed", "timeout"), math.inf),
    (("providers", "default", "embed", "retry_backoff"), math.inf),
    (("providers", "default", "chat", "temperature"), math.nan),
    (("selector", "weight_visual"), math.nan),
    (("selector", "expanded_decay_multiplier"), math.inf),
], ids=lambda p: "-".join(p) if isinstance(p, tuple) else str(p))
def test_out_of_range_setting_is_config_error(tmp_path, suite, capsys, command, path, value):
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    *sections, key = path
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    config_path = tmp_path / "changed.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert f"{key} must be" in err


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("lane,kind", [("caption", "PrecomputedEmbed"),
                                       ("embed", "PrecomputedCaption")])
def test_lane_kind_that_cannot_serve_the_lane_is_config_error(tmp_path, suite, capsys,
                                                              command, lane, kind):
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    config["providers"]["default"][lane] = {"kind": kind}
    config_path = write_config(tmp_path, suite, providers=config["providers"])
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert f"configuration error: provider kind {kind} cannot serve {lane}" in err


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("lane,key", [("chat", "chatt"), ("caption", "captions"),
                                      ("embed", "embedding")])
def test_provider_key_that_is_no_lane_is_config_error(tmp_path, suite, capsys, command, lane,
                                                      key):
    # A misspelled lane used to be ignored: with no chat lane every round
    # failed and eval still reported an accuracy.
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    lanes = config["providers"]["default"]
    lanes[key] = lanes.pop(lane)
    config_path = write_config(tmp_path, suite, providers=config["providers"])
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert f"configuration error: provider block holds {key!r}, which are not lanes " \
           "(lanes: chat, caption, embed)" in err


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("missing", [("chat",), ("caption",), ("chat", "caption")])
def test_provider_block_without_chat_or_caption_is_config_error(tmp_path, suite, capsys,
                                                                command, missing):
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    for lane in missing:
        del config["providers"]["default"][lane]
    config_path = write_config(tmp_path, suite, providers=config["providers"])
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert f"configuration error: provider block has no {' or '.join(missing)} lane" in err


@pytest.mark.parametrize("command", ["run", "eval"])
def test_unset_api_key_is_config_error(tmp_path, suite, capsys, monkeypatch, command):
    # No item may run: every chat call would fail, and eval would report an
    # accuracy over the round-limit answers.
    monkeypatch.delenv("GRAPHVQA_UNSET_KEY", raising=False)
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    config["providers"]["default"]["chat"] = {
        "kind": "RemoteChat", "endpoint": "http://127.0.0.1:9", "model_name": "m",
        "api_key_env": "GRAPHVQA_UNSET_KEY",
    }
    config_path = write_config(tmp_path, suite, providers=config["providers"])
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert "configuration error: API key environment variable 'GRAPHVQA_UNSET_KEY'" in err


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("endpoint", ["localhost:9", "ftp://example.com", "http://",
                                      "http://127.0.0.1:notaport"])
def test_endpoint_that_is_no_http_url_is_config_error(tmp_path, suite, capsys, command,
                                                      endpoint):
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    config["providers"]["default"]["caption"] = {
        "kind": "RemoteChat", "endpoint": endpoint, "model_name": "m",
    }
    config_path = write_config(tmp_path, suite, providers=config["providers"])
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert f"configuration error: endpoint {endpoint!r}" in err


@pytest.mark.parametrize("changes", [
    b"[1, 2]",
    b'"text"',
    b'{"lexicon_dir": "caf\xe9"}',
    {"providers": 5},
    {"providers": {"default": 5}},
    {"lexicon_dir": 5},
    {"cache_path": 5},
    {"agent": 5},
    {"selector": [1]},
    {"graph": "x"},
], ids=["list", "string", "not-utf8", "providers", "provider-block", "lexicon_dir",
        "cache_path", "agent", "selector", "graph"])
def test_config_of_the_wrong_shape_is_bad_config(tmp_path, suite, capsys, changes):
    """`changes` is a whole config file's bytes or keys to set in the suite's;
    a key of the wrong shape is named."""
    if isinstance(changes, dict):
        config_path = write_config(tmp_path, suite, **changes)
    else:
        config_path = tmp_path / "shape.json"
        config_path.write_bytes(changes)
    err = rejected_before_any_item(tmp_path, suite, capsys, "run", config_path)
    assert "usage error: bad config" in err
    if isinstance(changes, dict):
        assert f"usage error: bad config: {next(iter(changes))} must " in err


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("key", ["cache_pth", "graphh"])
def test_unknown_top_level_key_is_bad_config(tmp_path, suite, capsys, command, key):
    # Both used to be ignored: the command ran with no persistent cache, or
    # with the default graph settings.
    cache = tmp_path / "c.jsonl"
    value = str(cache) if key == "cache_pth" else {"merge_similarity": 0.5}
    config_path = write_config(tmp_path, suite, **{key: value})
    err = rejected_before_any_item(tmp_path, suite, capsys, command, config_path)
    assert f"usage error: bad config: unknown key {key!r} (keys: agent, selector, graph, " \
           "providers, lexicon_dir, cache_path)" in err
    assert not cache.exists()


# argparse keeps the last value given, so these override the suite's arguments
@pytest.mark.parametrize("command,extra", [
    ("run", ["--question", ""]),
    ("run", ["--options", *"abcdef"]),
    ("eval", ["--parallel", "0"]),
    ("eval", ["--parallel", "-3"]),
], ids=["empty-question", "six-options", "parallel-0", "parallel-negative"])
def test_bad_command_line_is_usage_error(tmp_path, suite, capsys, command, extra):
    err = rejected_before_any_item(tmp_path, suite, capsys, command, suite["config"], *extra)
    assert "usage error" in err


def test_lexicon_not_utf8_is_data_error(tmp_path, suite, capsys):
    lexicon_dir = tmp_path / "lexicon"
    lexicon_dir.mkdir()
    (lexicon_dir / "spatial_preps.txt").write_text("on\n", encoding="utf-8")
    (lexicon_dir / "interaction_verbs.txt").write_text("talk\n", encoding="utf-8")
    (lexicon_dir / "action_verbs.txt").write_bytes(b"\xff\xfeh\x00o\x00l\x00d\x00\n\x00")
    (lexicon_dir / "state_verbs.tsv").write_text("become\t*\n", encoding="utf-8")
    (lexicon_dir / "type_gazetteer.tsv").write_text("person\tPerson\n", encoding="utf-8")
    config_path = write_config(tmp_path, suite, lexicon_dir=str(lexicon_dir))
    code = main([
        "run", "--bundle", str(suite["bundle_dir"]), "--config", str(config_path),
        "--question", "q?", "--options", "a", "b",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "action_verbs.txt" in err and "UTF-8" in err


@pytest.mark.parametrize("file,line", [
    ("captions", "\u00b2\tthe dog runs"),
    ("embeddings", "\u00b2\t0.5 0.5"),
    ("captions", "9" * 5000 + "\tthe dog runs"),
], ids=["caption-superscript", "embedding-superscript", "caption-5000-digits"])
def test_frame_field_that_is_not_a_frame_index_is_data_error(suite, capsys, file, line):
    path = suite["bundle_dir"] / file
    path.write_text(line + "\n", encoding="utf-8")
    code = main(["graph", "--bundle", str(suite["bundle_dir"])])
    assert code == 2
    assert f"data error: {path}:1: expected frame_index" in capsys.readouterr().err


@pytest.mark.parametrize("file,text", [("captions", "1\tthe dog sits\n1\tthe dog runs\n"),
                                       ("embeddings", "1\t1 0\n1\t0 1 2\n")],
                         ids=["captions", "embeddings"])
def test_frame_given_twice_is_data_error(suite, capsys, file, text):
    path = suite["bundle_dir"] / file
    path.write_text(text, encoding="utf-8")
    assert main(["extract", "--bundle", str(suite["bundle_dir"])]) == 2
    assert f"data error: {path}:2: frame 1 given twice" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_embedding_value_is_data_error(suite, capsys, value):
    path = suite["bundle_dir"] / "embeddings"
    path.write_text(f"0\t0.5 0.5\n1\t0.5 {value}\n", encoding="utf-8")
    code = main(["graph", "--bundle", str(suite["bundle_dir"])])
    assert code == 2
    assert f"data error: {path}:2: non-finite value" in capsys.readouterr().err


def test_manifest_embedding_dim_below_one_is_data_error(suite, capsys):
    # the suite's scripted embedder would embed at the manifest's dimension
    manifest_path = suite["bundle_dir"] / "manifest"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["embedding_dim"] = -3
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    code = main([
        "run", "--bundle", str(suite["bundle_dir"]), "--config", str(suite["config"]),
        "--question", "q?", "--options", "a", "b",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(manifest_path) in err and "'embedding_dim'" in err


@pytest.mark.parametrize("field,value", [
    ("total_frames", "abc"),
    ("fps", "fast"),
    ("embedding_dim", "wide"),
    ("total_frames", None),
])
def test_manifest_field_that_does_not_convert_is_data_error(suite, capsys, field, value):
    manifest_path = suite["bundle_dir"] / "manifest"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest[field] = value
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    code = main(["graph", "--bundle", str(suite["bundle_dir"])])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(manifest_path) in err and repr(field) in err


def test_eval_rejects_a_manifest_that_names_another_video(suite, tmp_path, capsys):
    manifest_path = suite["bundle_dir"] / "manifest"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest_path.write_text(json.dumps({**manifest, "video_id": "v9"}), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"]),
                 "--config", str(suite["config"]), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"data error: {manifest_path}: names video 'v9', not 'v0'" in err
    assert not (out / "transcripts.jsonl").exists()  # no item ran


@pytest.mark.parametrize("reader,code", [("qa", 2), ("manifest", 2), ("script", 1)])
def test_value_of_another_json_type_exits_with_the_reader_code(suite, capsys, reader, code):
    # a number where a string belongs: the QA item's and manifest's video_id,
    # a script entry's reply
    path = suite["bundle_dir"] / "manifest" if reader == "manifest" else suite[reader]
    lines = path.read_text(encoding="utf-8").splitlines()
    key = "reply" if reader == "script" else "video_id"
    first = json.loads(lines[0])
    path.write_text("\n".join([json.dumps({**first, key: 0}), *lines[1:]]) + "\n",
                    encoding="utf-8")
    assert main(["eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"]),
                 "--config", str(suite["config"]), "--out", str(suite["tmp"] / "out")]) == code
    err = capsys.readouterr().err
    assert f"{path}{'' if reader == 'manifest' else ':1'}: " in err
    assert "must be a string, got 0" in err


def test_eval_reads_the_template_once_and_parses_each_frame_once(suite, tmp_path, monkeypatch):
    from graphvqa import agent as agent_module

    save_bundle(make_bundle(video_id="v1", total_frames=90, seed=3), suite["bundle_root"] / "v1")
    items = [QAItem(video, f"q {i}?", OPTIONS, answer_index=0)
             for i in range(4) for video in ("v0", "v1")]
    qa_path = save_qa(items, tmp_path / "qa2")
    template = tmp_path / "template.txt"
    template.write_text("{question}\n{options}\n{frame_captions}\n{entity_summary}\n",
                        encoding="utf-8")
    config_path = write_config(tmp_path, suite, agent={"prompt_template_path": str(template)})
    reads = []
    load = agent_module.load_prompt_template

    def counting_load(path=""):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(agent_module, "load_prompt_template", counting_load)
    parsed = record_parses(monkeypatch)
    code = main([
        "eval", "--qa", str(qa_path), "--bundle", str(suite["bundle_root"]),
        "--config", str(config_path), "--out", str(tmp_path / "out"), "--parallel", "2",
    ])
    assert code == 0
    assert reads == [str(template)]
    # the scripted chat answers at once, so only the starting frames are parsed
    assert sorted(parsed) == sorted((6, 18, 30, 42, 54, 9, 27, 45, 63, 81))
    assert len(load_transcripts(tmp_path / "out" / "transcripts.jsonl")) == 8


@pytest.mark.parametrize("command", ["run", "graph", "eval"])
def test_out_naming_a_file_is_usage_error(suite, tmp_path, capsys, command):
    argv = {
        "run": ["run", "--bundle", str(suite["bundle_dir"]), "--question", "q?",
                "--options", "a", "b"],
        "graph": ["graph", "--bundle", str(suite["bundle_dir"])],
        "eval": ["eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"])],
    }[command]
    existing = tmp_path / "notes.txt"
    existing.write_bytes(b"keep me\n")
    for out in (existing, existing / "sub"):
        assert main([*argv, "--config", str(suite["config"]), "--out", str(out)]) == 1
        assert f"usage error: --out {out}: {existing} is not a directory" in capsys.readouterr().err
        assert existing.read_bytes() == b"keep me\n"


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("key,value", [
    ("round", "1"), ("round", True), ("contains", 5), ("contains_all", "ab"),
    ("contains_all", [5]),
])
def test_mistyped_script_entry_is_config_error(tmp_path, suite, capsys, command, key, value):
    entry = {"reply": "answer: A, confidence: 3", key: value}
    suite["script"].write_text(json.dumps(entry) + '\n{"reply": "answer: B"}\n',
                               encoding="utf-8")
    err = rejected_before_any_item(tmp_path, suite, capsys, command, suite["config"])
    assert f"configuration error: {suite['script']}:1: " in err and f"{key} must be" in err


@pytest.mark.parametrize("command", ["run", "eval"])
def test_cache_path_naming_a_directory_is_data_error(tmp_path, suite, capsys, command):
    cache_dir = tmp_path / "cache_dir"
    cache_dir.mkdir()
    config_path = write_config(tmp_path, suite, cache_path=str(cache_dir))
    argv = {
        "run": ["run", "--bundle", str(suite["bundle_dir"]), "--question", "q?",
                "--options", "a", "b"],
        "eval": ["eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"])],
    }[command]
    code = main([*argv, "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"data error: cannot read {cache_dir}: " in err and "Traceback" not in err


def test_failed_graph_write_keeps_previous_graph(suite, tmp_path, monkeypatch, capsys):
    out = tmp_path / "graphout"
    argv = ["graph", "--bundle", str(suite["bundle_dir"]), "--out", str(out)]
    assert main(argv) == 0
    previous = (out / "graph.json").read_bytes()

    def disk_full(path, data, *args, **kwargs):
        with open(path, "wb" if isinstance(data, bytes) else "w") as handle:
            handle.write(data[: len(data) // 2])  # half the data, then the disk is full
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pathlib.Path, "write_text", disk_full)
    monkeypatch.setattr(pathlib.Path, "write_bytes", disk_full)
    capsys.readouterr()
    assert main(argv) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert f"data error: cannot write {out / 'graph.json'}: " in err and "No space" in err
    assert (out / "graph.json").read_bytes() == previous
    assert [p.name for p in out.iterdir()] == ["graph.json"]


def test_eval_transcripts_path_that_is_a_directory_is_data_error(suite, tmp_path, capsys):
    out = tmp_path / "evalout"
    (out / "transcripts.jsonl").mkdir(parents=True)
    code = main(["eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"]),
                 "--config", str(suite["config"]), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: cannot write {out / 'transcripts.jsonl'}: " in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_each_eval_decodes_every_cached_reply_it_hits_once(tmp_path, model_stub, monkeypatch):
    # Equal lengths, so frame N of every video is one request and one key.
    endpoint, state = model_stub
    root = tmp_path / "bundles"
    for index in range(3):
        save_bundle(make_bundle(video_id=f"v{index}", total_frames=120, seed=index),
                    root / f"v{index}")
    qa_path = save_qa([QAItem(f"v{i % 3}", f"what does the dog hold {i}?", OPTIONS,
                              answer_index=0) for i in range(6)], tmp_path / "qa")
    cache_path = tmp_path / "cache.jsonl"
    config_path = tmp_path / "cached.json"
    config_path.write_text(json.dumps({"cache_path": str(cache_path),
                                       "providers": {"default": remote_lanes(endpoint)}}),
                           encoding="utf-8")

    def evaluate(out):
        return main(["eval", "--qa", str(qa_path), "--bundle", str(root), "--config",
                     str(config_path), "--out", str(tmp_path / out)])

    assert evaluate("cold") == 0
    keys = len(cache_path.read_text(encoding="utf-8").splitlines())
    sent = len(state.requests)
    decoded = count_decodes(monkeypatch)
    hits, decoded_by_a_hit = [], []
    get = ResponseCache.get

    def counting_get(cache, key):
        hits.append(key)
        decoded_by_a_hit.append(len(decoded))
        return get(cache, key)

    monkeypatch.setattr(ResponseCache, "get", counting_get)
    counts = []
    for out in ("warm", "warm again", "old records", "old records again"):
        if out == "old records":  # each holds the whole reply, decoded as the file loads
            assert as_old_records(cache_path) == keys
        decoded.clear()
        hits.clear()
        decoded_by_a_hit.clear()
        assert evaluate(out) == 0
        assert set(decoded_by_a_hit) == {len(decoded)}  # all before the first hit
        counts.append((len(decoded), len(set(hits)), len(hits) > keys))
    assert len(state.requests) == sent
    assert counts == [(0, keys, True)] * 2 + [(keys, keys, True)] * 2
    for out in ("warm again", "old records again"):
        assert (tmp_path / out / "transcripts.jsonl").read_bytes() == \
            (tmp_path / "cold" / "transcripts.jsonl").read_bytes()


def test_one_parser_serves_every_command_of_a_process(capsys):
    assert _build_parser() is _build_parser()
    assert main(["extract", "--caption", "the boy holds the cup"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert main(["extract", "--caption", "the girl takes the ball"]) == 0
    second = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["caption"] for line in first + second] == [
        "the boy holds the cup", "the girl takes the ball"]
