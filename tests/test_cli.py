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


@pytest.mark.parametrize("graph_section", [{"nope": 1}, {"merge_similarity": 7.0}])
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


def test_parallel_eval_shares_one_file_cache(tmp_path, stub_server):
    import sys

    endpoint, state = stub_server
    state.echo = True
    root = tmp_path / "bundles"
    for index in range(2):
        save_bundle(make_bundle(video_id=f"v{index}", total_frames=40, seed=index), root / f"v{index}")
    qa_path = save_qa(
        [QAItem(f"v{i % 2}", f"what happens {i}?", OPTIONS, answer_index=0) for i in range(8)],
        tmp_path / "qa",
    )
    remote = {"kind": "RemoteChat", "endpoint": endpoint, "model_name": "stub",
              "retry_backoff": 0.001, "timeout": 5.0}
    cache_path = tmp_path / "cache.jsonl"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "cache_path": str(cache_path),
        "providers": {"default": {
            "chat": remote, "caption": remote,
            "embed": {"kind": "Scripted", "embed_dim": 8},
        }},
    }), encoding="utf-8")

    def evaluate(out):
        return main(["eval", "--qa", str(qa_path), "--bundle", str(root),
                     "--config", str(config_path), "--out", str(out), "--parallel", "4"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert evaluate(tmp_path / "first") == 0
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
