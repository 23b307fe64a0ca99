from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import append_transcript, make_bundle
from graphvqa.agent import AgentSession, RoundLog, Termination
from graphvqa.errors import DataFormatError, DimensionError, SchemaVersionError
from graphvqa.graph import Embedding, VideoGraph
from graphvqa.harness import REPORT_SCHEMA_VERSION, EvalReport
from graphvqa.parsing import default_lexicon, parse_caption
from graphvqa.store import (
    BUCKETS,
    CATEGORIES,
    GRAPH_SCHEMA_VERSION,
    TRANSCRIPT_SCHEMA_VERSION,
    QAItem,
    VideoBundle,
    load_bundle,
    load_graph,
    load_qa,
    load_transcripts,
    save_bundle,
    save_graph,
    save_qa,
    transcript_record,
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
    (directory / "manifest").write_text('["v", 10]', encoding="utf-8")
    with pytest.raises(DataFormatError, match="expected a JSON object"):
        load_bundle(directory)
    (directory / "manifest").write_text('{"video_id": "v", "total_frames": Infinity}',
                                        encoding="utf-8")
    with pytest.raises(DataFormatError, match="field 'total_frames' must be an integer, got inf"):
        load_bundle(directory)


@pytest.mark.parametrize("field,value,message", [
    ("video_id", 7, "field 'video_id' must be a string, got 7"),
    ("video_id", None, "field 'video_id' must be a string, got None"),
    ("total_frames", 10.7, "field 'total_frames' must be an integer, got 10.7"),
    ("total_frames", "12", "field 'total_frames' must be an integer, got '12'"),
    ("total_frames", True, "field 'total_frames' must be an integer, got True"),
    ("fps", "30", "field 'fps' must be a number, got '30'"),
    ("embedding_dim", 8.0, "field 'embedding_dim' must be an integer, got 8.0"),
])
def test_manifest_value_of_another_json_type_names_file_and_field(tmp_path, field, value,
                                                                   message):
    manifest = {"video_id": "v", "total_frames": 12, "fps": 30.0, "embedding_dim": 8}
    directory = write_bundle_files(tmp_path, {**manifest, field: value})
    with pytest.raises(DataFormatError) as info:
        load_bundle(directory)
    assert str(info.value) == f"{directory / 'manifest'}: {message}"


@pytest.mark.parametrize("fps", [0, -30.0, float("inf"), float("nan")])
def test_manifest_fps_must_be_finite_and_positive(tmp_path, fps):
    directory = write_bundle_files(tmp_path, {"video_id": "v", "total_frames": 12, "fps": fps})
    with pytest.raises(DataFormatError) as info:
        load_bundle(directory)
    assert str(info.value) == f"{directory / 'manifest'}: field 'fps' must be finite and > 0, got {fps}"


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


# The embedding lines differ in dimension: keeping only the last would hide that.
REPEATED_FRAME = [("captions", "1\tthe dog sits\n1\tthe dog runs\n"),
                  ("embeddings", "1\t1 0\n1\t0 1 2\n")]


@pytest.mark.parametrize("file,text", REPEATED_FRAME, ids=["captions", "embeddings"])
def test_frame_given_twice_names_file_and_line(tmp_path, file, text):
    directory = write_bundle_files(tmp_path, {"video_id": "v1", "total_frames": 5}, **{file: text})
    with pytest.raises(DataFormatError) as info:
        load_bundle(directory)
    assert str(info.value) == f"{directory / file}:2: frame 1 given twice"


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


LINE_SEPARATORS = ["\u2028", "\u2029", "\u0085", "\x0c", "\x1e"]


@pytest.mark.parametrize("separator", LINE_SEPARATORS)
def test_bundle_round_trip_keeps_unicode_line_separators(tmp_path, separator):
    bundle = VideoBundle(
        video_id="v", total_frames=4,
        captions={0: f"the boy{separator}holds a toy", 2: f"{separator}edge{separator}"},
    ).validate()
    loaded = load_bundle(save_bundle(bundle, tmp_path / "out"))
    assert loaded == bundle


manifests = st.builds(
    VideoBundle,
    video_id=st.text(max_size=12),
    total_frames=st.integers(1, 10**12),
    fps=st.none() | st.floats(0, exclude_min=True, allow_infinity=False) | st.integers(1, 240),
    embedding_dim=st.none() | st.integers(1, 4096),
)


@settings(max_examples=100, deadline=None)
@given(manifests)
def test_bundle_round_trip_keeps_every_manifest_field(bundle):
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_bundle(save_bundle(bundle.validate(), Path(tmp) / "out"))
    assert loaded == bundle


def test_bundle_crlf_files_load(tmp_path):
    directory = write_bundle_files(
        tmp_path, {"video_id": "v", "total_frames": 4},
        captions="0\tthe boy runs\r\n# note\r\n\r\n2\tthe dog sits\r\n",
        embeddings="0\t0.5 1.0\r\n2\t1.0 0.5\r\n",
    )
    bundle = load_bundle(directory)
    assert bundle.captions == {0: "the boy runs", 2: "the dog sits"}
    assert bundle.embeddings == {0: (0.5, 1.0), 2: (1.0, 0.5)}


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


@pytest.mark.parametrize("separator", LINE_SEPARATORS)
def test_qa_round_trip_keeps_unicode_line_separators(tmp_path, separator):
    items = [
        QAItem("v1", f"why{separator}now?", [f"a{separator}", "b"], answer_index=0),
        QAItem("v2", "when?", ["a", "b"]),
    ]
    path = save_qa(items, tmp_path / "qa")
    assert load_qa(path) == items


# UTF-8 text that may hold the separators JSON leaves unescaped
texts = st.text(st.characters(codec="utf-8") | st.sampled_from(LINE_SEPARATORS), max_size=12)


@st.composite
def qa_items(draw):
    options = draw(st.lists(texts, min_size=2, max_size=5))
    return QAItem(
        video_id=draw(texts),
        question=draw(texts.filter(bool)),
        options=options,
        answer_index=draw(st.none() | st.integers(0, len(options) - 1)),
        category=draw(st.none() | st.sampled_from(CATEGORIES)),
        entity_count_bucket=draw(st.none() | st.sampled_from(BUCKETS)),
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(qa_items(), min_size=1, max_size=4))
def test_qa_round_trip_of_any_valid_items(items):
    with tempfile.TemporaryDirectory() as tmp:
        assert load_qa(save_qa(items, Path(tmp) / "qa")) == items


@pytest.mark.parametrize("field,value,message", [
    ("video_id", 7, "video_id must be a string, got 7"),
    ("question", None, "question must be a string, got None"),
    ("options", [None, "b"], "each of options must be a string, got None"),
    ("options", "ab", "options must be a list, got 'ab'"),
    ("answer_index", 1.0, "answer_index must be an integer, got 1.0"),
    ("category", 3, "category must be a string, got 3"),
])
def test_qa_value_of_another_json_type_names_file_line_and_field(tmp_path, field, value,
                                                                 message):
    good = {"video_id": "v", "question": "q?", "options": ["a", "b"]}
    path = tmp_path / "qa"
    path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, field: value})}\n",
                    encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_qa(path)
    assert str(info.value) == f"{path}:2: {message}"


def test_qa_crlf_file_names_lines(tmp_path):
    path = tmp_path / "qa"
    good = '{"video_id": "v", "question": "q?", "options": ["a", "b"]}'
    path.write_bytes(f"{good}\r\n{good}\r\nnot json\r\n".encode("utf-8"))
    with pytest.raises(DataFormatError, match=":3: invalid JSON"):
        load_qa(path)
    path.write_bytes(f"{good}\r\n\r\n{good}\r\n".encode("utf-8"))
    assert len(load_qa(path)) == 2


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
    embeddings = embeddings or {}
    graph.update_graph([
        (parse_caption(captions[f], f, LEX),
         Embedding(embeddings[f]) if f in embeddings else None)
        for f in frames
    ])
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


def test_graph_naming_unknown_entity_type_rejected():
    # there is no Unknown entity type; a payload naming one is bad data
    payload = json.loads(save_graph(ingest(VideoGraph(), {0: "the dog sits"})))
    payload["nodes"][0]["entity_type"] = "Unknown"
    with pytest.raises(DataFormatError, match="Unknown"):
        load_graph(json.dumps(payload).encode("utf-8"))


@pytest.mark.parametrize("where", ["node", "edge", "processed"])
def test_graph_with_unordered_frames_rejected(where):
    payload = json.loads(save_graph(ingest(VideoGraph(), {
        0: "the dog plays with the toy", 4: "the dog plays with the toy",
    })))
    listing = {
        "node": payload["nodes"][0], "edge": payload["edges"][0], "processed": payload,
    }[where]
    key = "processed_frames" if where == "processed" else "frame_indices"
    assert listing[key] == [0, 4]
    listing[key] = [4, 0]
    with pytest.raises(DataFormatError, match="ascending"):
        load_graph(json.dumps(payload).encode("utf-8"))
    listing[key] = [0, 0]
    with pytest.raises(DataFormatError, match="ascending"):
        load_graph(json.dumps(payload).encode("utf-8"))


@pytest.mark.parametrize("feature", [
    "ab", {"a": 1}, 3, [], [0.5, "x"], [0.5, True], [0.5, float("nan")], [float("-inf"), 0.5],
    pytest.param([0.5, 2**1024], id="[0.5, 2**1024]"),  # no double holds it
], ids=repr)
def test_graph_feature_that_is_not_finite_numbers_rejected(feature):
    payload = json.loads(save_graph(ingest(VideoGraph(), {0: "the dog sits"})))
    payload["nodes"][0]["feature"] = feature
    with pytest.raises(DataFormatError, match="node 0 feature must be null or"):
        load_graph(json.dumps(payload).encode("utf-8"))


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
    append_transcript(one_round_session(), path)
    records = load_transcripts(path)
    assert len(records) == 1
    assert len(records[0]["rounds"]) == 1
    assert records[0]["terminated_by"] == "Confident"


def test_transcript_frames_used_consistent(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    append_transcript(one_round_session(), path)
    record = load_transcripts(path)[0]
    assert record["frames_used"] == len(record["selected_frames"])


def test_transcripts_append_and_find(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    append_transcript(one_round_session("v1", "why?"), path)
    append_transcript(one_round_session("v2", "how?", answer=3), path)
    records = load_transcripts(path)
    assert [r["video_id"] for r in records] == ["v1", "v2"]
    assert records[1]["final_answer"] == 3


def test_transcripts_drop_a_truncated_last_line(tmp_path, caplog):
    path = tmp_path / "transcripts.jsonl"
    append_transcript(one_round_session("v1", "why?"), path)
    append_transcript(one_round_session("v2", "pourquoi l'élan?"), path)
    whole = path.read_bytes()
    first = whole[: whole.index(b"\n") + 1]
    cut = whole.index("é".encode("utf-8")) + 1  # mid character, as a torn append can be
    for torn in (whole[:-1][:len(first) + 40], whole[:cut]):
        path.write_bytes(torn)
        with caplog.at_level("WARNING", logger="graphvqa.store"):
            records = load_transcripts(path)
        assert [r["video_id"] for r in records] == ["v1"]
        assert "truncated last line" in caplog.text
        caplog.clear()
    path.write_bytes(whole[:-1])  # a whole last line needs no newline
    assert [r["video_id"] for r in load_transcripts(path)] == ["v1", "v2"]
    # only "\n" ends a line: JSON leaves U+2028 (a line separator) unescaped
    path.write_bytes(whole)
    append_transcript(one_round_session("v3", "why\u2028now?"), path)
    assert load_transcripts(path)[-1]["question"] == "why\u2028now?"


@pytest.mark.parametrize("text", [
    "not json\n",  # a last line that ends in a newline was written whole
    "not json\n{}",
    "\n{broken\n\n",
])
def test_transcripts_other_bad_lines_rejected(tmp_path, text):
    path = tmp_path / "transcripts.jsonl"
    append_transcript(one_round_session(), path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(text)
    with pytest.raises(DataFormatError, match="invalid JSON"):
        load_transcripts(path)


def test_transcript_requires_terminated_session(tmp_path):
    session = one_round_session()
    session.terminated_by = None
    with pytest.raises(ValueError):
        append_transcript(session, tmp_path / "t.jsonl")


# -- on-disk key sets ---------------------------------------------------------------
# Each record holds its dataclass's fields, so a field added to one changes its
# schema. These tests then name the new key: bump the version beside the literal
# key set, update the set, and regenerate the golden files.

def test_graph_v2_keys():
    assert GRAPH_SCHEMA_VERSION == 2
    payload = json.loads(save_graph(ingest(VideoGraph(), {0: "the dog plays with the toy"})))
    assert set(payload) == {
        "schema_version", "config", "version", "processed_frames", "nodes", "edges",
    }
    assert set(payload["config"]) == {"merge_similarity"}
    assert set(payload["nodes"][0]) == {
        "id", "canonical_lemma", "entity_type", "frame_indices", "feature", "feature_count",
        "state_history", "aliases",
    }
    assert set(payload["edges"][0]) == {
        "id", "src", "dst", "category", "predicate", "frame_indices",
    }


def test_transcript_v1_keys():
    assert TRANSCRIPT_SCHEMA_VERSION == 1
    record = json.loads(json.dumps(transcript_record(one_round_session())))
    assert set(record) == {
        "schema_version", "video_id", "question", "question_sha256", "options",
        "selected_frames", "frames_used", "rounds", "final_answer", "terminated_by",
        "final_graph_version",
    }
    assert set(record["rounds"][0]) == {
        "round", "frames_added", "prediction", "confidence", "missing_info", "prompt_digest",
    }


def test_report_v1_keys():
    assert REPORT_SCHEMA_VERSION == 1
    report = EvalReport(n_items=1, answered=1, accuracy=1.0, mean_frames_used=5.0,
                        mean_rounds=1.0, per_category={}, per_bucket={})
    assert set(report.to_dict()) == {
        "schema_version", "n_items", "answered", "accuracy", "mean_frames_used", "mean_rounds",
        "per_category", "per_bucket", "failures",
    }


def test_qa_line_keys(tmp_path):
    items = [QAItem("v1", "why?", ["a", "b"], answer_index=0, category="Causal",
                    entity_count_bucket="Few"),
             QAItem("v2", "when?", ["a", "b"])]
    lines = save_qa(items, tmp_path / "qa").read_text(encoding="utf-8").splitlines()
    assert [set(json.loads(line)) for line in lines] == [
        {"video_id", "question", "options", "answer_index", "category", "entity_count_bucket"},
        {"video_id", "question", "options"},
    ]


def test_bundle_fixture_helper_valid():
    bundle = make_bundle(total_frames=30, dim=8)
    assert bundle.embedding_dim == 8
    assert set(bundle.captions) == set(range(30))
