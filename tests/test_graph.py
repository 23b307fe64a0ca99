from __future__ import annotations

import math
import random

import pytest

from graphvqa.errors import DimensionError
from graphvqa.graph import FrameRecord, GraphConfig, VideoGraph, cosine_similarity
from graphvqa.parsing import (
    CaptionParse,
    EntityType,
    Mention,
    default_lexicon,
    parse_caption,
    parse_question,
)
from graphvqa.store import save_graph

LEX = default_lexicon()


def mention(lemma, entity_type=EntityType.OBJECT):
    return Mention(lemma, lemma, entity_type, (0, len(lemma)))


def ingest(graph: VideoGraph, captions: dict[int, str], embeddings=None) -> VideoGraph:
    frames = sorted(captions)
    records = [
        FrameRecord(f, (embeddings or {}).get(f)) for f in frames
    ]
    parses = [parse_caption(captions[f], f, LEX) for f in frames]
    return graph.update_graph(records, parses)


def fig1_graph() -> VideoGraph:
    graph = VideoGraph()
    return ingest(graph, {
        0: "the dog plays with the toy",
        1: "the person takes the toy",
        2: "the dog barks at the person",
    })


def edge_views(graph):
    return sorted(
        (graph.nodes[e.src].canonical_lemma, e.predicate, graph.nodes[e.dst].canonical_lemma)
        for e in graph.edges.values()
    )


# -- upsert_entity -------------------------------------------------------------

@pytest.mark.parametrize("value", [-1.0, 1.0])
def test_merge_similarity_accepts_cosine_range(value):
    assert GraphConfig(merge_similarity=value).merge_similarity == value


@pytest.mark.parametrize("value", [7.0, -1.5])
def test_merge_similarity_outside_cosine_range_rejected(value):
    with pytest.raises(ValueError, match="merge_similarity"):
        GraphConfig(merge_similarity=value)


def test_upsert_creates_node():
    graph = VideoGraph()
    node_id = graph.upsert_entity(mention("dog"), 3)
    assert graph.nodes[node_id].frame_indices == [3]
    assert graph.nodes[node_id].canonical_lemma == "dog"


def test_upsert_merges_same_lemma():
    graph = VideoGraph()
    first = graph.upsert_entity(mention("dog"), 1)
    again = graph.upsert_entity(mention("dog"), 7)
    third = graph.upsert_entity(mention("dog"), 3)
    assert first == again == third
    assert graph.nodes[first].frame_indices == [1, 3, 7]
    assert len(graph.nodes) == 1


def vectors_with_cosine(target: float, dim: int = 8):
    """Two unit vectors whose cosine similarity is exactly-ish `target`."""
    a = [1.0] + [0.0] * (dim - 1)
    b = [target, math.sqrt(1 - target**2)] + [0.0] * (dim - 2)
    return a, b


def test_upsert_merges_by_embedding_similarity():
    a, b = vectors_with_cosine(0.9)
    graph = VideoGraph(config=GraphConfig(merge_similarity=0.85))
    boy = graph.upsert_entity(mention("boy", EntityType.PERSON), 0, embedding=a)
    child = graph.upsert_entity(mention("child", EntityType.PERSON), 5, embedding=b)
    assert boy == child
    assert len(graph.nodes) == 1
    assert graph.nodes[boy].aliases == ["child"]
    # later plain-lemma hits resolve through the alias
    assert graph.upsert_entity(mention("child", EntityType.PERSON), 9) == boy


def test_upsert_no_merge_below_threshold_or_incompatible_type():
    a, b = vectors_with_cosine(0.7)
    graph = VideoGraph()
    graph.upsert_entity(mention("boy", EntityType.PERSON), 0, embedding=a)
    other = graph.upsert_entity(mention("child", EntityType.PERSON), 1, embedding=b)
    assert len(graph.nodes) == 2

    high_a, high_b = vectors_with_cosine(0.95)
    graph2 = VideoGraph()
    graph2.upsert_entity(mention("boy", EntityType.PERSON), 0, embedding=high_a)
    graph2.upsert_entity(mention("lamp", EntityType.OBJECT), 1, embedding=high_b)
    assert len(graph2.nodes) == 2


def test_upsert_dimension_mismatch_rejected():
    graph = VideoGraph()
    graph.upsert_entity(mention("dog"), 0, embedding=[1.0, 0.0, 0.0])
    with pytest.raises(DimensionError):
        graph.upsert_entity(mention("cat"), 1, embedding=[1.0, 0.0])


def test_upsert_feature_running_mean():
    graph = VideoGraph()
    node_id = graph.upsert_entity(mention("dog"), 0, embedding=[1.0, 0.0])
    graph.upsert_entity(mention("dog"), 1, embedding=[0.0, 1.0])
    assert graph.nodes[node_id].feature == [0.5, 0.5]
    assert graph.nodes[node_id].feature_count == 2


def test_upsert_idempotent_for_same_lemma_and_frame():
    graph = VideoGraph()
    graph.upsert_entity(mention("dog"), 4, embedding=[1.0, 0.0])
    before = save_graph(graph)
    graph.upsert_entity(mention("dog"), 4, embedding=[1.0, 0.0])
    assert save_graph(graph) == before


# -- update_graph ----------------------------------------------------------------

def test_update_empty_batch_only_bumps_version():
    graph = fig1_graph()
    nodes_before = {n.id: n.canonical_lemma for n in graph.nodes.values()}
    version_before = graph.version
    graph.update_graph([], [])
    assert graph.version == version_before + 1
    assert {n.id: n.canonical_lemma for n in graph.nodes.values()} == nodes_before


def test_update_fig1_sequence():
    graph = fig1_graph()
    assert sorted(n.canonical_lemma for n in graph.nodes.values()) == ["dog", "person", "toy"]
    assert edge_views(graph) == [
        ("dog", "bark", "person"),
        ("dog", "play", "toy"),
        ("person", "take", "toy"),
    ]
    assert graph.version == 1
    assert graph.processed_frames == [0, 1, 2]


def test_update_duplicate_frame_rejected_graph_unchanged():
    graph = fig1_graph()
    snapshot = save_graph(graph)
    parse = parse_caption("the cat sits", 2, LEX)
    with pytest.raises(ValueError):
        graph.update_graph([FrameRecord(2)], [parse])
    assert save_graph(graph) == snapshot


def test_update_mismatched_lists_rejected():
    graph = VideoGraph()
    with pytest.raises(ValueError):
        graph.update_graph([FrameRecord(0)], [])
    with pytest.raises(ValueError):
        graph.update_graph(
            [FrameRecord(0)],
            [parse_caption("the dog sits", 1, LEX)],
        )


def test_update_replay_yields_equal_graphs():
    assert fig1_graph() == fig1_graph()


def test_update_batch_order_independent():
    captions = {0: "the dog plays with the toy", 5: "the person takes the toy", 9: "the dog barks at the person"}
    frames = list(captions)
    records = [FrameRecord(f) for f in frames]
    parses = [parse_caption(captions[f], f, LEX) for f in frames]

    forward = VideoGraph().update_graph(records, parses)
    backward = VideoGraph().update_graph(records[::-1], parses[::-1])
    assert forward == backward


def test_repeated_relation_extends_edge_frames():
    graph = VideoGraph()
    ingest(graph, {0: "the dog plays with the toy"})
    ingest(graph, {4: "the dog plays with the toy"})
    assert len(graph.edges) == 1
    assert list(graph.edges.values())[0].frame_indices == [0, 4]
    assert graph.version == 2


def test_graph_is_append_only():
    graph = fig1_graph()
    nodes_before = set(graph.nodes)
    edges_before = set(graph.edges)
    frames_before = list(graph.processed_frames)
    ingest(graph, {7: "the boy opens the book"})
    assert nodes_before <= set(graph.nodes)
    assert edges_before <= set(graph.edges)
    assert set(frames_before) <= set(graph.processed_frames)
    assert graph.version == 2


# -- summarize ---------------------------------------------------------------------

def dog_history() -> VideoGraph:
    return ingest(VideoGraph(), {
        1: "the dog sits",
        2: "the dog sits",
        3: "the dog becomes angry",
        4: "the dog sits",
    })


def test_summarize_empty_graph_placeholders():
    entity, relation, temporal = VideoGraph().summarize(None, 512)
    assert entity.startswith("(no entities")
    assert relation.startswith("(no relations")
    assert temporal.startswith("(no state changes")


def test_summarize_query_entity_listed_first():
    graph = fig1_graph()
    query = parse_question("why did the dog bark?", [], LEX)
    entity_summary, _, _ = graph.summarize(query, 2048)
    assert entity_summary.splitlines()[0].startswith("dog ")


def test_summarize_relation_line_format():
    graph = fig1_graph()
    _, relations, _ = graph.summarize(None, 2048)
    assert "person —take→ toy @ frames [1]" in relations.splitlines()


def test_summarize_temporal_transitions():
    graph = dog_history()
    _, _, temporal = graph.summarize(None, 2048)
    assert temporal.splitlines() == ["dog: neutral@1 → angry@3"]


def test_summarize_budget_truncates_whole_lines():
    graph = VideoGraph()
    ingest(graph, {f: f"the boy{f} holds the toy{f}" for f in range(30)})
    full_lines = set()
    for section in graph.summarize(None, 100_000):
        full_lines.update(section.splitlines())
    budget = 600
    sections = graph.summarize(None, budget)
    assert sum(len(s) for s in sections) <= budget
    for section in sections:
        for line in section.splitlines():
            assert line in full_lines or line.startswith("(no ")


def test_summarize_rejects_tiny_budget():
    with pytest.raises(ValueError):
        VideoGraph().summarize(None, 255)


def test_summarize_deterministic():
    graph = fig1_graph()
    query = parse_question("what did the person take?", [], LEX)
    assert graph.summarize(query, 1024) == graph.summarize(query, 1024)


# -- config validation ----------------------------------------------------------------

def test_cosine_similarity_basics():
    assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    with pytest.raises(DimensionError):
        cosine_similarity([1.0], [1.0, 0.0])


# -- randomized replay invariance ---------------------------------------------------

def test_randomized_batches_order_independent():
    rng = random.Random(42)
    nouns = ["boy", "girl", "dog", "toy", "ball", "cup"]
    verbs = ["holds", "takes", "watches", "chases"]
    captions = {
        frame: f"the {rng.choice(nouns)} {rng.choice(verbs)} the {rng.choice(nouns)}"
        for frame in rng.sample(range(200), 24)
    }
    frames = list(captions)
    records = [FrameRecord(f) for f in frames]
    parses = [parse_caption(captions[f], f, LEX) for f in frames]
    pairs = list(zip(records, parses))

    baseline = VideoGraph().update_graph(records, parses)
    for _ in range(5):
        rng.shuffle(pairs)
        shuffled = VideoGraph().update_graph([r for r, _ in pairs], [p for _, p in pairs])
        assert shuffled == baseline
