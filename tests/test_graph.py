from __future__ import annotations

import dataclasses
import json
import math
import random
import struct
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import record_norms
from graphvqa import cli as cli_module
from graphvqa.errors import DimensionError
from graphvqa.graph import (
    LIST_LIMIT,
    Embedding,
    EntityNode,
    GraphConfig,
    VideoGraph,
    cosine_similarity,
    vector_norm,
)
from graphvqa.parsing import (
    EntityType,
    Mention,
    default_lexicon,
    parse_caption,
    parse_question,
)
from graphvqa.store import load_graph, save_graph

LEX = default_lexicon()


def mention(lemma, entity_type=EntityType.OBJECT):
    return Mention(lemma, lemma, entity_type, (0, len(lemma)))


def ingest(graph: VideoGraph, captions: dict[int, str], embeddings=None) -> VideoGraph:
    embeddings = embeddings or {}
    return graph.update_graph([
        (parse_caption(captions[f], f, LEX), Embedding(embeddings[f]) if f in embeddings else None)
        for f in sorted(captions)
    ])


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
    return Embedding(a), Embedding(b)


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
    graph.upsert_entity(mention("dog"), 0, embedding=Embedding([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionError):
        graph.upsert_entity(mention("cat"), 1, embedding=Embedding([1.0, 0.0]))


def test_upsert_feature_running_mean():
    graph = VideoGraph()
    node_id = graph.upsert_entity(mention("dog"), 0, embedding=Embedding([1.0, 0.0]))
    graph.upsert_entity(mention("dog"), 1, embedding=Embedding([0.0, 1.0]))
    assert graph.nodes[node_id].feature == Embedding([0.5, 0.5])
    assert graph.nodes[node_id].feature_count == 2


def test_upsert_idempotent_for_same_lemma_and_frame():
    graph = VideoGraph()
    graph.upsert_entity(mention("dog"), 4, embedding=Embedding([1.0, 0.0]))
    before = save_graph(graph)
    graph.upsert_entity(mention("dog"), 4, embedding=Embedding([1.0, 0.0]))
    assert save_graph(graph) == before


# -- update_graph ----------------------------------------------------------------

def test_update_empty_batch_only_bumps_version():
    graph = fig1_graph()
    nodes_before = {n.id: n.canonical_lemma for n in graph.nodes.values()}
    version_before = graph.version
    graph.update_graph([])
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
        graph.update_graph([(parse, None)])
    assert save_graph(graph) == snapshot


def test_update_batch_naming_a_frame_twice_rejected_graph_unchanged():
    graph = fig1_graph()
    snapshot = save_graph(graph)
    with pytest.raises(ValueError, match="duplicate"):
        graph.update_graph([
            (parse_caption("the dog sits", 5, LEX), None),
            (parse_caption("the cat sits", 5, LEX), Embedding([1.0, 0.0])),
        ])
    assert save_graph(graph) == snapshot


def test_update_replay_yields_equal_graphs():
    assert fig1_graph() == fig1_graph()


def test_update_batch_order_independent():
    captions = {0: "the dog plays with the toy", 5: "the person takes the toy", 9: "the dog barks at the person"}
    batch = [(parse_caption(text, f, LEX), None) for f, text in captions.items()]

    forward = VideoGraph().update_graph(batch)
    backward = VideoGraph().update_graph(batch[::-1])
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


def test_frame_embedding_copied_and_normed_once_per_frame(monkeypatch):
    from graphvqa import graph as graph_module
    normed = []
    norm = graph_module.vector_norm

    def counting_norm(v):
        normed.append(v)
        return norm(v)

    monkeypatch.setattr(graph_module, "vector_norm", counting_norm)
    embedding = Embedding([1.0, 0.2, 0.0])
    graph = VideoGraph()
    graph.update_graph([(parse_caption("the cup falls", 0, LEX), Embedding([0.0, 0.1, 1.0]))])
    graph.update_graph([
        (parse_caption("the boy and the girl hold the toy and the ball", 1, LEX), embedding)
    ])
    assert sum(v is embedding for v in normed) == 1
    features = [node.feature for node in graph.nodes.values() if node.canonical_lemma != "cup"]
    assert len(features) == 4 and all(f is embedding for f in features)


def test_unchanged_node_normed_once_across_comparisons(monkeypatch):
    normed = record_norms(monkeypatch)
    graph = VideoGraph()
    graph.update_graph([(parse_caption("the boy sits", 0, LEX), Embedding([1.0, 0.0, 0.0]))])
    boy = graph.node_for_lemma("boy").feature
    # two new lemmas of the boy's type, neither like him: his feature is
    # compared with both, and the child's with the kid's
    graph.update_graph([
        (parse_caption("the child sits", 1, LEX), Embedding([0.0, 1.0, 0.0])),
        (parse_caption("the kid sits", 2, LEX), Embedding([0.0, 0.0, 1.0])),
    ])
    assert len(graph.nodes) == 3 and graph.node_for_lemma("boy").feature is boy
    assert sum(v is boy for v in normed) == 1
    assert max(Counter(map(id, normed)).values()) == 1


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


def test_summarize_trail_steps_only_where_the_label_changes():
    graph = ingest(VideoGraph(), {
        1: "the dog sits",
        3: "the dog becomes angry",
        5: "the dog becomes angry",
        7: "the dog becomes happy",
        9: "the dog becomes angry",
    })
    _, _, temporal = graph.summarize(None, 2048)
    assert temporal.splitlines() == ["dog: neutral@1 → angry@3 → happy@7 → angry@9"]
    # the graph keeps every event
    history = graph.nodes[0].state_history
    assert [label for _, label in history] == ["angry", "angry", "happy", "angry"]


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


def reference_summarize(graph, query, char_budget):
    """`VideoGraph.summarize` as it was before long lists were shortened,
    which re-rendered every section after each dropped line. A section whose
    lines all dropped states their count. Graphs whose lists all hold at
    most LIST_LIMIT items must still render exactly like this."""
    placeholders = (
        "(no entities tracked yet)",
        "(no relations observed yet)",
        "(no state changes recorded yet)",
    )
    if not graph.nodes:
        return placeholders
    query_lemmas = {m.lemma for m in query.entities} if query else set()

    def node_overlap(node):
        return 1 if {node.canonical_lemma, *node.aliases} & query_lemmas else 0

    ranked_nodes = sorted(
        graph.nodes.values(),
        key=lambda n: (-node_overlap(n), -len(n.frame_indices), n.canonical_lemma),
    )
    entity_lines = []
    for node in ranked_nodes:
        state = (node.effective_state(graph.processed_frames[-1])
                 if graph.processed_frames else "neutral")
        entity_lines.append(
            f"{node.canonical_lemma} ({node.entity_type.value}) frames {node.frame_indices}"
            + (f", state: {state}" if state != "neutral" else "")
        )

    def edge_overlap(edge):
        return max(node_overlap(graph.nodes[edge.src]), node_overlap(graph.nodes[edge.dst]))

    ranked_edges = sorted(
        graph.edges.values(),
        key=lambda e: (
            -edge_overlap(e), -len(e.frame_indices), graph.nodes[e.src].canonical_lemma,
            e.predicate, graph.nodes[e.dst].canonical_lemma,
        ),
    )
    relation_lines = [
        f"{graph.nodes[e.src].canonical_lemma} —{e.predicate}→ "
        f"{graph.nodes[e.dst].canonical_lemma} @ frames {e.frame_indices}"
        for e in ranked_edges
    ]
    temporal_lines = []
    for node in ranked_nodes:
        if not node.state_history:
            continue
        first_frame = node.frame_indices[0]
        trail = [(first_frame, "neutral")] if node.state_history[0][0] > first_frame else []
        for frame, label in node.state_history:
            if not trail or label != trail[-1][1]:
                trail.append((frame, label))
        steps = " → ".join(f"{label}@{frame}" for frame, label in trail)
        temporal_lines.append(f"{node.canonical_lemma}: {steps}")

    sections = [entity_lines, relation_lines, temporal_lines]
    placeholders = [
        f"({kind} left out: {len(lines)})" if lines else placeholder
        for lines, kind, placeholder in zip(sections, ("entities", "relations", "state trails"),
                                            placeholders)
    ]

    def render(lines, placeholder):
        return "\n".join(lines) if lines else placeholder

    def total_length():
        return sum(len(render(lines, p)) for lines, p in zip(sections, placeholders))

    while total_length() > char_budget:
        worst = max(
            ((len(lines) - 1, si) for si, lines in enumerate(sections) if lines),
            default=None,
        )
        if worst is None:
            break
        sections[worst[1]].pop()
    return tuple(render(lines, p) for lines, p in zip(sections, placeholders))


def long_sighting_graph(sightings=2500, stride=8):
    """A person seen `sightings` times, and a cup seen twice, held once."""
    graph = VideoGraph()
    frames = [i * stride for i in range(sightings)]
    captions = {f: "the person walks" for f in frames}
    captions[frames[1] + 1] = "the cup falls"
    captions[frames[2] + 1] = "the person holds the cup"
    return ingest(graph, captions)


def test_summarize_elides_a_line_too_long_for_the_budget():
    graph = long_sighting_graph()
    assert reference_summarize(graph, None, 4096) == (  # every line was dropped
        "(entities left out: 2)",
        "(relations left out: 1)",
        "(no state changes recorded yet)",
    )
    sections = graph.summarize(None, 4096)
    assert sum(map(len, sections)) <= 4096
    entities, relations, _ = sections
    assert entities.splitlines() == [
        "person (Person) frames [0, 8, …, 19992] (2501 sightings)",
        "cup (Object) frames [9, 17]",
    ]
    assert relations.splitlines() == ["person —hold→ cup @ frames [17]"]


@pytest.mark.parametrize("budget", [256, 300, 1024, 4096])
def test_summarize_keeps_long_lines_within_every_budget(budget):
    graph = long_sighting_graph(sightings=300, stride=3)
    sections = graph.summarize(None, budget)
    assert sum(map(len, sections)) <= budget
    assert "person (Person)" in sections[0]


def test_summarize_drops_a_line_too_long_with_the_lines_ranked_after_it():
    graph = long_sighting_graph(sightings=40)
    person = graph.node_for_lemma("person")
    person.canonical_lemma = "p" * 300  # this line, ranked first, cannot fit
    graph._rebuild_indexes()
    # the cup's line and the relation rank below it, so they drop first
    assert graph.summarize(None, 256) == (
        "(entities left out: 2)",
        "(relations left out: 1)",
        "(no state changes recorded yet)",
    )
    assert graph.summarize(None, 1024)[1] == f"{'p' * 300} —hold→ cup @ frames [17]"


def test_summarize_shortens_a_long_state_trail_rather_than_hide_it():
    # A trail was never shortened: one too long for the budget dropped, and
    # its section said that the graph recorded no state changes.
    graph = ingest(VideoGraph(), {f: f"the dog becomes {('happy', 'angry')[f % 8 // 4]}"
                                  for f in range(0, 1200, 4)})
    assert graph.summarize(None, 1024) == (
        "dog (Object) frames [0, 4, …, 1196] (300 sightings), state: angry",
        "(no relations observed yet)",
        "dog: happy@0 → angry@4 → … → angry@1196 (300 steps)",
    )


def test_summarize_rejects_tiny_budget():
    with pytest.raises(ValueError):
        VideoGraph().summarize(None, 255)


def test_summarize_deterministic():
    graph = fig1_graph()
    query = parse_question("what did the person take?", [], LEX)
    assert graph.summarize(query, 1024) == graph.summarize(query, 1024)


# -- config validation ----------------------------------------------------------------

def test_cosine_similarity_basics():
    x, y = Embedding([1.0, 0.0]), Embedding([0.0, 1.0])
    assert cosine_similarity(x, x) == pytest.approx(1.0)
    assert cosine_similarity(x, y) == pytest.approx(0.0)
    with pytest.raises(DimensionError):
        cosine_similarity(Embedding([1.0]), x)


# -- randomized replay invariance ---------------------------------------------------

def test_randomized_batches_order_independent():
    rng = random.Random(42)
    nouns = ["boy", "girl", "dog", "toy", "ball", "cup"]
    verbs = ["holds", "takes", "watches", "chases"]
    captions = {
        frame: f"the {rng.choice(nouns)} {rng.choice(verbs)} the {rng.choice(nouns)}"
        for frame in rng.sample(range(200), 24)
    }
    batch = [(parse_caption(text, f, LEX), None) for f, text in captions.items()]

    baseline = VideoGraph().update_graph(batch)
    for _ in range(5):
        rng.shuffle(batch)
        assert VideoGraph().update_graph(batch) == baseline


# -- vector maths: the same products, in the same order, as the generator forms ---------

def reference_norm(v):
    return math.sqrt(sum(x * x for x in v))


def reference_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    norm_a, norm_b = reference_norm(a), reference_norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def reference_mean(vectors):
    feature, count = [float(x) for x in vectors[0]], 1
    for v in vectors[1:]:
        feature = [(old * count + new) / (count + 1)
                   for old, new in zip(feature, [float(x) for x in v])]
        count += 1
    return feature


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


components = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=-1000, max_value=1000),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda dim: st.lists(st.lists(components, min_size=dim, max_size=dim), min_size=2, max_size=5)
))
def test_vector_maths_bit_identical_to_generator_forms_property(vectors):
    a, b = vectors[0], vectors[1]
    assert same_float(vector_norm(a), reference_norm(a))
    expected = reference_cosine(a, b)
    assert same_float(cosine_similarity(Embedding(a), Embedding(b)), expected)
    # swapping the arguments is exact
    assert same_float(cosine_similarity(Embedding(b), Embedding(a)), expected)
    graph = VideoGraph()
    for frame, v in enumerate(vectors):
        node_id = graph.upsert_entity(mention("dog"), frame, embedding=Embedding(v))
    node = graph.nodes[node_id]
    assert node.feature_count == len(vectors)
    assert all(isinstance(x, float) for x in node.feature)
    assert all(map(same_float, node.feature, reference_mean(vectors)))


NOUNS = ["boy", "girl", "dog", "toy", "ball", "cup", "person", "kitchen"]
VERBS = ["holds", "takes", "watches", "chases", "becomes happy near"]

frame_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),
        st.sampled_from(NOUNS), st.sampled_from(VERBS), st.sampled_from(NOUNS),
        st.sampled_from([None, 0, 1, 2]),  # embedding: none, or one of three directions
    ),
    min_size=1, max_size=20, unique_by=lambda t: t[0],
)
DIRECTIONS = [Embedding(v) for v in ([1.0, 0.2, 0.0], [0.9, 0.3, 0.1], [0.0, 0.1, 1.0])]


def batch_inputs(batch):
    """The (caption parse, embedding) pairs of a drawn `frame_batches` batch."""
    return [
        (parse_caption(f"the {s} {v} the {o}", f, LEX), None if e is None else DIRECTIONS[e])
        for f, s, v, o, e in batch
    ]


@settings(max_examples=150, deadline=None)
@given(frame_batches, st.randoms(use_true_random=False))
def test_update_graph_ignores_input_order_property(batch, rng):
    pairs = batch_inputs(batch)
    baseline = save_graph(VideoGraph().update_graph(pairs))
    rng.shuffle(pairs)
    assert save_graph(VideoGraph().update_graph(pairs)) == baseline
    # one batch or one frame at a time: the same graph but for the version
    stepwise = VideoGraph()
    for pair in sorted(pairs, key=lambda pair: pair[0].frame_index):
        stepwise.update_graph([pair])
    stepwise.version = 1
    assert save_graph(stepwise) == baseline


@settings(max_examples=150, deadline=None)
@given(frame_batches, st.integers(min_value=0, max_value=20))
def test_save_load_round_trips_property(batch, split):
    pairs = batch_inputs(batch)
    graph = VideoGraph().update_graph(pairs[:split])
    blob = save_graph(graph)
    loaded = load_graph(blob)
    assert save_graph(loaded) == blob
    # a loaded graph goes on growing as the one it was saved from
    if pairs[split:]:
        graph.update_graph(pairs[split:])
        loaded.update_graph(pairs[split:])
        assert save_graph(loaded) == save_graph(graph)


@settings(max_examples=100, deadline=None)
@given(frame_batches, st.integers(min_value=256, max_value=3000),
       st.sampled_from([None, *NOUNS]))
def test_summarize_of_small_graphs_matches_reference_property(batch, budget, asked):
    graph = VideoGraph().update_graph(batch_inputs(batch))
    query = parse_question(f"where is the {asked}?", [], LEX) if asked else None
    # no list of these graphs is long enough to be shortened
    assert max(len(node.frame_indices) for node in graph.nodes.values()) <= LIST_LIMIT
    assert graph.summarize(query, budget) == reference_summarize(graph, query, budget)


SUMMARY_PLACEHOLDERS = (
    "(no entities tracked yet)",
    "(no relations observed yet)",
    "(no state changes recorded yet)",
)
LONG_VERBS = ["holds", "watches", "becomes happy near", "becomes angry near"]


@st.composite
def long_graphs(draw):
    """A graph of 50-600 frames, each captioned with one of a few drawn
    captions, so that many of its frame lists and state trails are longer
    than LIST_LIMIT."""
    captions = draw(st.lists(st.builds("the {} {} the {}".format, st.sampled_from(NOUNS),
                                       st.sampled_from(LONG_VERBS), st.sampled_from(NOUNS)),
                             min_size=1, max_size=5))
    parses = {text: parse_caption(text, 0, LEX) for text in captions}
    rng = draw(st.randoms(use_true_random=False))
    frames = range(draw(st.integers(min_value=50, max_value=600)))
    return VideoGraph().update_graph(
        [(dataclasses.replace(parses[rng.choice(captions)], frame_index=f), None) for f in frames])


def shown_lines(sections):
    """Each section's graph lines, leaving out what an empty section says."""
    return [[] if section.startswith("(") else section.splitlines() for section in sections]


@settings(max_examples=40, deadline=None)
@given(long_graphs(), st.lists(st.integers(min_value=256, max_value=8000), min_size=2,
                               max_size=2).map(sorted))
def test_summarize_of_long_graphs_property(graph, budgets):
    has = (graph.nodes, graph.edges, any(n.state_history for n in graph.nodes.values()))
    full = shown_lines(graph.summarize(None, 100_000))
    shown = []
    for budget in budgets:
        sections = graph.summarize(None, budget)
        assert sum(map(len, sections)) <= budget
        for section, placeholder, kind, lines in zip(sections, SUMMARY_PLACEHOLDERS, has, full):
            # a placeholder only over nothing of its kind; an emptied section counts its lines
            assert (section == placeholder) == (not kind)
            if kind and section.startswith("("):
                assert section.endswith(f" left out: {len(lines)})")
        shown.append(shown_lines(sections))
    # a larger budget shows a superset of the lines, and every line as the full summary does
    for smaller, larger, lines in zip(*shown, full):
        assert set(smaller) <= set(larger) <= set(lines)


@settings(max_examples=40, deadline=None)
@given(long_graphs())
def test_summarize_trail_never_shows_one_label_twice_in_a_row_property(graph):
    for line in shown_lines(graph.summarize(None, 100_000))[2]:
        trail = line.split(": ", 1)[1].split(" (")[0]
        # steps either side of an elided `…` are not adjacent
        for run in trail.split(" → … → "):
            labels = [step.rsplit("@", 1)[0] for step in run.split(" → ")]
            assert all(a != b for a, b in zip(labels, labels[1:])), line


def test_new_ids_continue_after_the_largest_id_of_a_loaded_graph():
    graph = fig1_graph()
    payload = json.loads(save_graph(graph))
    payload["nodes"][0]["id"] = 40  # ids need not be dense
    for edge in payload["edges"]:
        edge["src"], edge["dst"] = (40 if x == 0 else x for x in (edge["src"], edge["dst"]))
        edge["id"] += 7
    loaded = load_graph(json.dumps(payload).encode("utf-8"))
    ingest(loaded, {5: "the cat sits on the chair"})
    assert max(loaded.nodes) == 42
    assert max(loaded.edges) == max(e["id"] for e in payload["edges"]) + 1


def test_state_history_keeps_frame_order_and_first_arrival_within_a_frame():
    graph = VideoGraph()
    node_id = graph.upsert_entity(mention("dog"), 0)
    for frame, label in [(5, "sad"), (2, "happy"), (5, "calm"), (5, "sad"), (2, "happy"), (9, "sad")]:
        graph._record_state(node_id, frame, label)
    assert graph.nodes[node_id].state_history == [(2, "happy"), (5, "sad"), (5, "calm"), (9, "sad")]


# -- node features folded on read -----------------------------------------------

def bits(vector) -> bytes:
    return struct.pack(f"<{len(vector)}d", *vector)


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1.5, 1e300])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16).flatmap(lambda dim: st.lists(
    st.tuples(st.lists(FINITE, min_size=dim, max_size=dim), st.booleans()),
    min_size=1, max_size=12)))
def test_a_feature_folded_on_read_is_the_eager_running_mean_bit_for_bit(steps):
    graph = VideoGraph()
    eager, count = None, 0
    for frame, (vector, read) in enumerate(steps):
        node_id = graph.upsert_entity(mention("dog"), frame, Embedding(vector))
        eager = vector if eager is None else [
            (old * count + new) / (count + 1) for old, new in zip(eager, vector)]
        count += 1
        if read:
            assert bits(graph.nodes[node_id].feature) == bits(eager)
    node = graph.nodes[node_id]
    assert (bits(node.feature), node.feature_count) == (bits(eager), count)


def record_folds(monkeypatch):
    """(reader, embeddings folded) for every read of a node's feature that
    folds; the reader is "merge" inside `_most_similar_node`, "save" inside
    the `graph` command's `save_graph`, and None elsewhere. Also returns
    the list of every embedding merged into an existing feature."""
    folds, merged, readers = [], [], []
    feature, merge = EntityNode.feature, EntityNode.merge

    def reading(node):
        if node._pending:
            folds.append((readers[-1] if readers else None, len(node._pending)))
        return feature.fget(node)

    def merging(node, embedding):
        if node._feature is not None:
            merged.append(embedding)
        merge(node, embedding)

    def reader(name, function):
        def wrapped(*args):
            readers.append(name)
            try:
                return function(*args)
            finally:
                readers.pop()
        return wrapped

    monkeypatch.setattr(EntityNode, "feature", property(reading, feature.fset))
    monkeypatch.setattr(EntityNode, "merge", merging)
    monkeypatch.setattr(VideoGraph, "_most_similar_node",
                        reader("merge", VideoGraph._most_similar_node))
    monkeypatch.setattr(cli_module, "save_graph", reader("save", cli_module.save_graph))
    return folds, merged


def test_the_golden_eval_folds_only_where_a_merge_reads(monkeypatch, tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden"
    monkeypatch.chdir(golden)
    folds, merged = record_folds(monkeypatch)
    assert cli_module.main(["eval", "--qa", "qa.jsonl", "--bundle", "bundles",
                            "--config", "config.json", "--out", str(tmp_path / "eval")]) == 0
    assert folds and {reader for reader, _ in folds} == {"merge"}
    assert sum(count for _, count in folds) < len(merged)

    folds.clear()
    merged.clear()
    assert cli_module.main(["graph", "--bundle", "bundles/kitchen", "--config", "config.json",
                            "--out", str(tmp_path / "graph")]) == 0
    assert {reader for reader, _ in folds} == {"merge", "save"}
    assert sum(count for _, count in folds) == len(merged)  # saving folds every node
    assert (tmp_path / "graph" / "graph.json").read_bytes() == \
        (golden / "graph.json").read_bytes()
