from __future__ import annotations

import json
import random

import pytest

from conftest import make_bundle
from graphvqa.agent import AgentSession, RoundLog, Termination
from graphvqa.errors import DataFormatError, DimensionError, SchemaVersionError
from graphvqa.graph import FrameRecord, VideoGraph
from graphvqa.parsing import default_lexicon, parse_caption
from graphvqa.store import (
    QAItem,
    VideoBundle,
    load_bundle,
    load_graph,
    load_qa,
    load_transcripts,
    save_bundle,
    save_graph,
    save_qa,
    save_transcript,
)

LEX = default_lexicon()


def write_bundle_files(tmp_path, manifest=None, captions=None, embeddings=None):
    directory = tmp_path / "bundle"
    directory.mkdir()
    if manifest is not None:
        (directory / "manifest").write_text(json.dumps(manifest), encoding="utf-8")
    if captions is not None:
        (directory / "captions").write_text(captions, encoding="utf-8")
    if embeddings is not None:
        (directory / "embeddings").write_text(embeddings, encoding="utf-8")
    return directory


# -- bundles ---------------------------------------------------------------------

def test_minimal_bundle_manifest_only(tmp_path):
    directory = write_bundle_files(tmp_path, {"video_id": "v1", "total_frames": 10})
    bundle = load_bundle(directory)
    assert bundle.video_id == "v1"
    assert bundle.total_frames == 10
    assert bundle.captions == {} and bundle.embeddings == {}


def test_missing_manifest(tmp_path):
    directory = tmp_path / "bundle"
    directory.mkdir()
    with pytest.raises(DataFormatError, match="manifest"):
        load_bundle(directory)


def test_malformed_manifest(tmp_path):
    directory = write_bundle_files(tmp_path, None)
    (directory / "manifest").write_text("{nope", encoding="utf-8")
    with pytest.raises(DataFormatError, match="invalid JSON"):
        load_bundle(directory)
    (directory / "manifest").write_text('{"video_id": "v"}', encoding="utf-8")
    with pytest.raises(DataFormatError, match="total_frames"):
        load_bundle(directory)


def test_caption_line_out_of_range_names_line(tmp_path):
    directory = write_bundle_files(
        tmp_path,
        {"video_id": "v1", "total_frames": 5},
        captions="0\tfine\n9\ttoo far\n",
    )
    with pytest.raises(DataFormatError, match=":2"):
        load_bundle(directory)


def test_caption_line_malformed_names_line(tmp_path):
    directory = write_bundle_files(
        tmp_path,
        {"video_id": "v1", "total_frames": 5},
        captions="0\tfine\nnot-a-frame\toops\n",
    )
    with pytest.raises(DataFormatError, match=":2"):
        load_bundle(directory)


def test_mixed_embedding_dims_rejected_naming_frames(tmp_path):
    directory = write_bundle_files(
        tmp_path,
        {"video_id": "v1", "total_frames": 5},
        embeddings="0\t" + " ".join(["0.5"] * 512) + "\n1\t" + " ".join(["0.5"] * 256) + "\n",
    )
    with pytest.raises(DimensionError) as info:
        load_bundle(directory)
    assert "frame 0" in str(info.value) and "frame 1" in str(info.value)


def test_manifest_dim_enforced(tmp_path):
    directory = write_bundle_files(
        tmp_path,
        {"video_id": "v1", "total_frames": 5, "embedding_dim": 4},
        embeddings="0\t0.1 0.2\n",
    )
    with pytest.raises(DimensionError):
        load_bundle(directory)


def test_bundle_round_trip_with_unicode(tmp_path):
    bundle = VideoBundle(
        video_id="vid-ü",
        total_frames=12,
        captions={0: "the café door opens \U0001F680", 5: "日本語 caption"},
        embeddings={0: [0.1, -1e-300, 3.14159], 7: [1.0, 2.0, 0.3333333333333333]},
        fps=29.97,
    ).validate()
    loaded = load_bundle(save_bundle(bundle, tmp_path / "out"))
    assert loaded == bundle


def test_bundle_rejects_multiline_caption(tmp_path):
    bundle = VideoBundle(video_id="v", total_frames=2, captions={0: "line\nbreak"})
    with pytest.raises(DataFormatError):
        save_bundle(bundle, tmp_path / "out")


def test_bundle_validate_rejects_out_of_range():
    with pytest.raises(DataFormatError):
        VideoBundle(video_id="v", total_frames=2, captions={5: "x"}).validate()
    with pytest.raises(DataFormatError):
        VideoBundle(video_id="v", total_frames=0).validate()


# -- QA files -----------------------------------------------------------------------

def test_qa_round_trip(tmp_path):
    items = [
        QAItem("v1", "why?", ["a", "b", "c", "d", "e"], answer_index=2, category="Causal"),
        QAItem("v2", "when?", ["a", "b", "c", "d"], entity_count_bucket="Mid"),
        QAItem("v3", "what?", ["a", "b"]),
    ]
    path = save_qa(items, tmp_path / "qa")
    assert load_qa(path) == items


def test_qa_validation(tmp_path):
    path = tmp_path / "qa"
    path.write_text('{"video_id": "v", "question": "q?", "options": ["a"]}\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=":1"):
        load_qa(path)
    path.write_text(
        '{"video_id": "v", "question": "q?", "options": ["a","b"], "answer_index": 5}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="answer_index"):
        load_qa(path)
    path.write_text('{"video_id": "v", "options": ["a","b"]}\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match="question"):
        load_qa(path)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="invalid JSON"):
        load_qa(path)


def test_qa_missing_file():
    with pytest.raises(DataFormatError):
        load_qa("/nonexistent/qa")


# -- graph serialization ----------------------------------------------------------------

def test_empty_graph_round_trip():
    graph = VideoGraph()
    assert load_graph(save_graph(graph)) == graph


def ingest(graph, captions, embeddings=None):
    frames = sorted(captions)
    graph.update_graph(
        [FrameRecord(f, (embeddings or {}).get(f)) for f in frames],
        [parse_caption(captions[f], f, LEX) for f in frames],
    )
    return graph


def test_fig1_graph_round_trip():
    graph = ingest(VideoGraph(), {
        0: "the dog plays with the toy",
        1: "the person takes the toy",
        2: "the dog barks at the person",
    })
    loaded = load_graph(save_graph(graph))
    assert loaded == graph
    assert loaded.version == graph.version
    assert sorted(loaded.nodes) == sorted(graph.nodes)


def test_graph_round_trip_preserves_floats_exactly():
    rng = random.Random(3)
    embeddings = {0: [rng.uniform(-1, 1) for _ in range(64)]}
    graph = ingest(VideoGraph(), {0: "the dog sits"}, embeddings)
    loaded = load_graph(save_graph(graph))
    node = graph.node_for_lemma("dog")
    assert loaded.nodes[node.id].feature == node.feature


def test_graph_schema_v1_loads_and_saves_as_v2():
    v1 = {
        "schema_version": 1,
        "config": {"coherence_alpha": 0.3, "window": 4, "merge_similarity": 0.9},
        "version": 2,
        "processed_frames": [0, 5],
        "nodes": [
            {"id": 0, "canonical_lemma": "dog", "entity_type": "Object",
             "frame_indices": [0, 5], "feature": [1.0, 0.0], "feature_count": 2,
             "caption_snippets": [[0, "the dog barks at the person"], [5, "the dog sits"]],
             "state_history": [[5, "angry"]], "aliases": ["puppy"]},
            {"id": 1, "canonical_lemma": "person", "entity_type": "Person",
             "frame_indices": [0], "feature": None, "feature_count": 0,
             "caption_snippets": [[0, "the dog barks at the person"]],
             "state_history": [], "aliases": []},
        ],
        "edges": [
            {"id": 0, "src": 0, "dst": 1, "category": "Interaction",
             "predicate": "bark", "frame_indices": [0]},
        ],
    }
    graph = load_graph(json.dumps(v1).encode("utf-8"))
    assert graph.config.merge_similarity == 0.9
    assert graph.node_for_lemma("puppy").id == 0
    assert graph.nodes[0].state_history == [(5, "angry")]
    assert graph.edges[0].predicate == "bark"
    v2 = dict(
        v1,
        schema_version=2,
        config={"merge_similarity": 0.9},
        nodes=[{k: v for k, v in node.items() if k != "caption_snippets"} for node in v1["nodes"]],
    )
    assert json.loads(save_graph(graph)) == v2
    assert load_graph(save_graph(graph)) == graph


def test_graph_unknown_schema_version():
    graph = VideoGraph()
    payload = json.loads(save_graph(graph))
    payload["schema_version"] = 99
    with pytest.raises(SchemaVersionError):
        load_graph(json.dumps(payload).encode("utf-8"))


def test_graph_truncated_payload():
    blob = save_graph(ingest(VideoGraph(), {0: "the dog sits"}))
    with pytest.raises(DataFormatError):
        load_graph(blob[: len(blob) // 2])
    with pytest.raises(DataFormatError):
        load_graph(b"\xff\xfe garbage")
    with pytest.raises(DataFormatError):
        load_graph(b"{}")


def test_loaded_graph_remains_usable():
    graph = ingest(VideoGraph(), {0: "the dog plays with the toy"})
    loaded = load_graph(save_graph(graph))
    ingest(loaded, {3: "the dog barks at the person"})
    assert loaded.version == 2
    assert loaded.node_for_lemma("person") is not None


# -- transcripts ------------------------------------------------------------------------

def one_round_session(video_id="v1", question="why?", answer=1):
    return AgentSession(
        video_id=video_id,
        question=question,
        options=["a", "b", "c", "d", "e"],
        selected_frames=[10, 30, 50, 70, 90],
        rounds=[RoundLog(1, [], answer, 3, "", "d" * 64)],
        final_answer=answer,
        terminated_by=Termination.CONFIDENT,
        final_graph_version=1,
    )


def test_transcript_single_round(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    save_transcript(one_round_session(), path)
    records = load_transcripts(path)
    assert len(records) == 1
    assert len(records[0]["rounds"]) == 1
    assert records[0]["terminated_by"] == "Confident"


def test_transcript_frames_used_consistent(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    save_transcript(one_round_session(), path)
    record = load_transcripts(path)[0]
    assert record["frames_used"] == len(record["selected_frames"])


def test_transcripts_append_and_find(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    save_transcript(one_round_session("v1", "why?"), path)
    save_transcript(one_round_session("v2", "how?", answer=3), path)
    records = load_transcripts(path)
    assert [r["video_id"] for r in records] == ["v1", "v2"]
    assert records[1]["final_answer"] == 3


def test_transcript_requires_terminated_session(tmp_path):
    session = one_round_session()
    session.terminated_by = None
    with pytest.raises(ValueError):
        save_transcript(session, tmp_path / "t.jsonl")


def test_bundle_fixture_helper_valid():
    bundle = make_bundle(total_frames=30, dim=8)
    assert bundle.embedding_dim == 8
    assert set(bundle.captions) == set(range(30))
