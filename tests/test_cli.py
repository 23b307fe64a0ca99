from __future__ import annotations

import json

import pytest

from conftest import make_bundle
from graphvqa.cli import main
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
    bad_qa.write_text("not json\n", encoding="utf-8")
    code = main([
        "eval", "--qa", str(bad_qa), "--bundle", str(suite["bundle_root"]),
        "--config", str(suite["config"]),
    ])
    assert code == 2


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
    cache_path.write_text('{"k1": 1}\n{"k2": \n{"k3": 3}\n', encoding="utf-8")
    config = json.loads(suite["config"].read_text(encoding="utf-8"))
    config["cache_path"] = str(cache_path)
    config_path = tmp_path / "cached.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main([
        "run", "--bundle", str(suite["bundle_dir"]), "--config", str(config_path),
        "--question", "q?", "--options", "a", "b",
    ])
    assert code == 2
    assert "cache.json:2" in capsys.readouterr().err


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
    returns a function running `eval --parallel 4` into a given directory."""
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

    def evaluate(out):
        return main(["eval", "--qa", str(qa_path), "--bundle", str(root),
                     "--config", str(config_path), "--out", str(out), "--parallel", "4"])

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


def rejected_before_any_item(tmp_path, suite, capsys, command, config_path):
    """Run `command` (run or eval) on the suite; check that it exits 1 without
    writing output, and return what it printed to stderr."""
    out_dir = tmp_path / "out"
    if command == "run":
        argv = ["run", "--bundle", str(suite["bundle_dir"]),
                "--question", "q?", "--options", "a", "b"]
    else:
        argv = ["eval", "--qa", str(suite["qa"]), "--bundle", str(suite["bundle_root"])]
    code = main([*argv, "--config", str(config_path), "--out", str(out_dir)])
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
    (("selector", "expanded_decay_multiplier"), 0),
    (("selector", "expanded_decay_multiplier"), -2.0),
    (("providers", "default", "embed", "max_retries"), -1),
    (("providers", "default", "embed", "timeout"), 0),
    (("providers", "default", "embed", "retry_backoff"), -0.5),
    (("providers", "default", "embed", "embed_dim"), 0),
    (("providers", "default", "embed", "max_inflight"), 0),
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
