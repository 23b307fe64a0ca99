"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import make_bundle, remote_chat_config, scripted_gateway
from test_selector import brute_force_oracle
from graphvqa.agent import AgentAction, AgentConfig, VideoAgent, decide_action
from graphvqa.errors import GatewayError
from graphvqa.gateway import (
    ModelGateway,
    ResponseCache,
    ScriptEntry,
    pseudo_embedding,
)
from graphvqa.graph import Embedding, VideoGraph
from graphvqa.harness import run_eval
from graphvqa.parsing import (
    Lexicon,
    default_lexicon,
    parse_caption,
    parse_question,
)
from graphvqa.selector import SelectorConfig, select_frames
from graphvqa.store import (
    QAItem,
    VideoBundle,
    load_bundle,
    load_graph,
    load_transcripts,
    save_bundle,
    save_graph,
    save_qa,
)

LEX = default_lexicon()
OPTIONS = ["red", "green", "blue", "white", "black"]
LETTERS = "ABCDE"


# ---------------------------------------------------------------------------
# Shared scripted-session corpus (criteria 1 and 7)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scripted_runs():
    rng = random.Random(20250809)
    bundles = [
        make_bundle(video_id=f"v{i}", total_frames=rng.randrange(40, 201), seed=i)
        for i in range(12)
    ]
    questions = [
        "what does the boy hold?",
        "why does the dog chase the ball?",
        "who takes the toy from the girl?",
        "what happens to the cup on the table?",
        "where does the person carry the book?",
    ]
    sessions = []
    started = time.monotonic()
    for _ in range(200):
        bundle = rng.choice(bundles)
        confidences = [rng.randint(1, 3) for _ in range(3)]
        letter = rng.choice(LETTERS)
        entries = [
            ScriptEntry(reply=f"answer: {letter}, confidence: {confidences[0]}", round=1),
            ScriptEntry(reply=f"answer: {letter}, confidence: {confidences[1]}", round=2),
            ScriptEntry(reply=f"answer: {letter}, confidence: {confidences[2]}"),
        ]
        agent = VideoAgent(bundle, scripted_gateway(entries))
        session, _ = agent.run(rng.choice(questions), OPTIONS)
        sessions.append(session)
    elapsed = time.monotonic() - started
    return sessions, elapsed


def test_criterion_1_frame_budget(scripted_runs):
    sessions, elapsed = scripted_runs
    assert len(sessions) == 200
    over_budget = [s for s in sessions if len(s.selected_frames) > 11]
    assert not over_budget, f"{len(over_budget)} sessions exceeded 11 frames"
    first_round_confident = [s for s in sessions if s.rounds[0].confidence == 3]
    assert first_round_confident, "corpus should include confident-first sessions"
    for session in first_round_confident:
        assert len(session.selected_frames) == 5
        assert len(session.rounds) == 1
    assert elapsed < 10.0, f"200 sessions took {elapsed:.2f}s"
    print(
        f"CRITERION 1 PASS: 200 scripted sessions, max frames "
        f"{max(len(s.selected_frames) for s in sessions)} <= 11, "
        f"confident-first sessions all used 5, runtime {elapsed:.2f}s"
    )


def test_criterion_2_weighted_combination():
    # two candidates: A is best only on graph score, B on visual and temporal
    # score, so A's combined score is weight_graph and B's is
    # weight_visual + weight_temporal
    graph = VideoGraph()
    graph.update_graph([(parse_caption("the dog sits", 2, LEX), None)])
    query = parse_question("what about the dog?", [], LEX)
    query_embedding = Embedding([1.0, 0.0])
    a = (1, Embedding([0.0, 1.0]))
    b = (50, Embedding([1.0, 0.0]))  # the center of the gap after frame 0
    mirrored_graph = VideoGraph()
    mirrored_graph.update_graph([(parse_caption("the dog sits", 97, LEX), None)])
    mirrored_a = (98, a[1])
    mirrored_b = (49, b[1])  # the center of the gap before frame 99

    def a_wins(cfg, mirrored):
        if mirrored:
            picked = select_frames([mirrored_b, mirrored_a], mirrored_graph, query, [99], 100,
                                   cfg, query_embedding=query_embedding)
            return picked == [mirrored_a[0]]
        picked = select_frames([a, b], graph, query, [0], 100, cfg,
                               query_embedding=query_embedding)
        return picked == [a[0]]

    # the default weights tie (0.5 against 0.3 + 0.2), and the lower index wins
    default = SelectorConfig(k=1)
    assert default.weight_graph == default.weight_visual + default.weight_temporal
    assert a_wins(default, mirrored=False) and not a_wins(default, mirrored=True)
    rng = random.Random(2)
    for trial in range(1000):
        raw = [rng.random() + 1e-9 for _ in range(3)]
        total = sum(raw)
        wg, wv, wt = (w / total for w in raw)
        cfg = SelectorConfig(weight_graph=wg, weight_visual=wv, weight_temporal=wt, k=1)
        mirrored = trial % 2 == 1
        expected = wg > wv + wt or (wg == wv + wt and not mirrored)
        assert a_wins(cfg, mirrored) == expected, (wg, wv, wt, mirrored)
    print("CRITERION 2 PASS: select_frames ranks by the weighted combination at the "
          "defaults (a tie, broken toward the lower index) and over 1000 random "
          "weight triples")


def test_criterion_3_selection_matches_oracle():
    rng = random.Random(33)
    checked = 0
    for trial in range(100):
        total = 250
        graph = VideoGraph()
        for lemma in ("dog", "person", "toy"):
            frames = sorted(rng.sample(range(total), rng.randint(1, 5)))
            for frame in frames:
                caption = f"the {lemma} sits"
                if frame in graph.processed_frames:
                    graph.upsert_entity(parse_caption(caption, frame, LEX).mentions[0], frame)
                else:
                    graph.update_graph([(parse_caption(caption, frame, LEX), None)])
        query = parse_question("what about the dog and the person and the toy?", [], LEX)
        selected = sorted(rng.sample(range(total), rng.randint(1, 8)))
        pool = [f for f in range(total) if f not in selected]
        count = rng.randint(2, 200)
        candidates = [
            (f, Embedding(pseudo_embedding(f"frame:{f}", 16)) if rng.random() > 0.15 else None)
            for f in rng.sample(pool, count)
        ]
        cfg = SelectorConfig(k=rng.randint(1, 6))
        expanded = rng.random() < 0.3
        query_embedding = Embedding(pseudo_embedding("query", 16))
        expected = brute_force_oracle(
            candidates, graph, query, selected, total, cfg, expanded, query_embedding
        )
        actual = select_frames(
            candidates, graph, query, selected, total, cfg, expanded, query_embedding
        )
        assert actual == expected, f"trial {trial}: {actual} != {expected}"
        checked += 1
    print(f"CRITERION 3 PASS: select_frames matched the brute-force oracle on {checked} instances")


NOUN_POOL = ["dog", "person", "toy", "boy", "girl", "ball"]


def test_criterion_5_extraction_fixture():
    captions = [
        "the dog plays with the toy",
        "the person takes the toy",
        "the dog barks at the person",
    ]
    graph = VideoGraph()
    graph.update_graph([(parse_caption(c, i, LEX), None) for i, c in enumerate(captions)])
    nodes = sorted(n.canonical_lemma for n in graph.nodes.values())
    edges = sorted(
        (graph.nodes[e.src].canonical_lemma, e.predicate, graph.nodes[e.dst].canonical_lemma)
        for e in graph.edges.values()
    )
    assert nodes == ["dog", "person", "toy"]
    assert edges == [
        ("dog", "bark", "person"),
        ("dog", "play", "toy"),
        ("person", "take", "toy"),
    ]
    print("CRITERION 5 PASS: three-caption fixture yields exactly nodes "
          "{dog, toy, person} and directed edges {play, take, bark}")


# ---------------------------------------------------------------------------
# Criterion 6: causal-chain ablation
# ---------------------------------------------------------------------------

CHAIN_EDGES = ("person —take→ toy", "dog —bark→ person")


def chain_suite(tmp_path, n_items=10):
    root = tmp_path / "bundles"
    items = []
    for i in range(n_items):
        total = 100
        captions = {f: "the girl reads the book" for f in range(total)}
        captions[10] = "the dog plays with the toy"
        captions[50] = "the person takes the toy"
        captions[90] = "the dog barks at the person"
        bundle = VideoBundle(
            video_id=f"chain{i}", total_frames=total, captions=captions
        ).validate()
        save_bundle(bundle, root / bundle.video_id)
        items.append(QAItem(
            bundle.video_id,
            f"why did the dog bark at the person? (case {i})",
            OPTIONS,
            answer_index=i % 5,
        ))
    qa_path = save_qa(items, tmp_path / "qa")
    return qa_path, root, items


def chain_gateway(items):
    """One gateway for the eval: each question is answered right and sure
    once its prompt holds the chain, and wrong and unsure before."""
    entries = []
    for item in items:
        question = f"Question: {item.question}\n"
        correct = item.answer_index
        wrong = (correct + 1) % 5
        entries += [
            ScriptEntry(
                reply=f"answer: {LETTERS[correct]}, confidence: 3, missing: none",
                contains=question, contains_all=CHAIN_EDGES,
            ),
            ScriptEntry(
                reply=f"answer: {LETTERS[wrong]}, confidence: 1, missing: the relation chain",
                contains=question,
            ),
        ]
    return scripted_gateway(entries + [ScriptEntry(reply="unreachable")])


def test_criterion_6_causal_chain_ablation(tmp_path):
    qa_path, root, items = chain_suite(tmp_path)
    gateway = chain_gateway(items)

    full = run_eval(qa_path, root, AgentConfig(), gateway, tmp_path / "full")
    assert full.accuracy == 1.0
    full_records = load_transcripts(tmp_path / "full" / "transcripts.jsonl")
    assert all(r["terminated_by"] == "Confident" for r in full_records)

    bare = Lexicon(
        spatial_preps=frozenset(),
        interaction_verbs=frozenset(),
        action_verbs=frozenset(),
        state_verbs={},
        type_gazetteer=LEX.type_gazetteer,
    )
    ablated = run_eval(qa_path, root, AgentConfig(), gateway, tmp_path / "ablated",
                       lexicon=bare)
    assert ablated.accuracy == 0.0
    ablated_records = load_transcripts(tmp_path / "ablated" / "transcripts.jsonl")
    confident = [r for r in ablated_records if r["terminated_by"] == "Confident"]
    assert confident == []
    assert all(r["terminated_by"] == "RoundLimit" for r in ablated_records)
    print("CRITERION 6 PASS: relation-path reasoner scores 10/10 confident with the full "
          "graph and 0/10 confident (all round-limit forced) without relation extraction")


def test_criterion_7_gating_soundness(scripted_runs):
    sessions, _ = scripted_runs
    threshold = AgentConfig().confidence_threshold
    for session in sessions:
        for entry in session.rounds:
            if entry.confidence >= threshold:
                assert entry.frames_added == [], (
                    f"retrieval logged in a confident round: {entry}"
                )
    cfg = AgentConfig()
    table = {
        (1, 1): AgentAction.RETRIEVE,
        (2, 1): AgentAction.RETRIEVE,
        (3, 1): AgentAction.ANSWER,
        (1, 2): AgentAction.RETRIEVE_EXPANDED,
        (2, 2): AgentAction.RETRIEVE_EXPANDED,
        (3, 2): AgentAction.ANSWER,
        (1, 3): AgentAction.ANSWER,
        (2, 3): AgentAction.ANSWER,
        (3, 3): AgentAction.ANSWER,
    }
    for (confidence, round_number), action in table.items():
        assert decide_action(confidence, round_number, cfg) is action
    print("CRITERION 7 PASS: zero retrievals in confidence>=3 rounds across 200 sessions; "
          "decide_action truth table exact")


# ---------------------------------------------------------------------------
# Criterion 8: serialization round-trips
# ---------------------------------------------------------------------------

UNICODE_SNIPPETS = [
    "café — the dog waits \U0001F415",
    "日本語のキャプション",
    "naïve façade → über",
    "русский текст",
]


def test_criterion_8_round_trips(tmp_path):
    rng = random.Random(88)
    for trial in range(50):
        total = rng.randrange(8, 40)
        captioned = sorted(rng.sample(range(total), rng.randint(2, min(8, total))))
        captions = {}
        embeddings = {}
        for frame in captioned:
            noun_a, noun_b = rng.sample(NOUN_POOL, 2)
            base = f"the {noun_a} holds the {noun_b}"
            if rng.random() < 0.5:
                base += " " + rng.choice(UNICODE_SNIPPETS)
            captions[frame] = base
            embeddings[frame] = [rng.uniform(-1, 1) for _ in range(512)]
        bundle = VideoBundle(
            video_id=f"rt{trial}", total_frames=total,
            captions=captions, embeddings=embeddings, fps=rng.choice([None, 23.976, 30.0]),
        ).validate()

        bundle_dir = save_bundle(bundle, tmp_path / f"b{trial}")
        assert load_bundle(bundle_dir) == bundle

        graph = VideoGraph()
        graph.update_graph([
            (parse_caption(captions[f], f, LEX), bundle.embeddings[f]) for f in captioned
        ])
        loaded = load_graph(save_graph(graph))
        assert loaded == graph
        assert loaded.version == graph.version
        assert save_graph(loaded) == save_graph(graph)
    print("CRITERION 8 PASS: 50 randomized graph and bundle round-trips with unicode "
          "captions and 512-dim vectors are structurally identical")


# ---------------------------------------------------------------------------
# Criterion 9: gateway robustness against a stub server
# ---------------------------------------------------------------------------

def test_criterion_9_gateway_robustness(stub_server):
    endpoint, state = stub_server

    def chat_ok(content):
        return json.dumps({"choices": [{"message": {"content": content}}]})

    # retry/backoff bound: two failures then success within max_retries=3
    state.responses.extend([(500, "{}"), (500, "{}"), (200, chat_ok("recovered"))])
    gateway = ModelGateway(chat=remote_chat_config(endpoint, max_retries=3))
    assert gateway.chat([("user", "hi")]) == "recovered"
    assert state.request_count == 3

    # hard bound at max_retries + 1 attempts
    state.requests.clear()
    state.responses.extend([(503, "{}")] * 8)
    bounded = ModelGateway(chat=remote_chat_config(endpoint, max_retries=2))
    with pytest.raises(GatewayError) as info:
        bounded.chat([("user", "hi")])
    assert state.request_count == 3
    assert info.value.attempts == 3

    # malformed payloads surface as typed errors
    state.responses.clear()
    for body in ("not json at all", json.dumps({"choices": []}), json.dumps({"x": 1})):
        state.responses.append((200, body))
        with pytest.raises(GatewayError):
            gateway.chat([("user", f"probe {body[:8]}")])

    # cache-on equals cache-off for an arbitrary call sequence
    state.responses.clear()
    state.echo = True
    prompts = ["p1", "p2", "p1", "p3", "p2", "p1"]
    cached = ModelGateway(chat=remote_chat_config(endpoint), cache=ResponseCache())
    plain = ModelGateway(chat=remote_chat_config(endpoint))
    assert [cached.chat([("user", p)]) for p in prompts] == \
        [plain.chat([("user", p)]) for p in prompts]
    print("CRITERION 9 PASS: retry bound holds (max_retries+1 attempts), malformed "
          "payloads raise typed errors, cache-on outputs equal cache-off")


# ---------------------------------------------------------------------------
# Criterion 10: end-to-end determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_10_end_to_end_determinism(tmp_path):
    from graphvqa.cli import main

    root = tmp_path / "bundles"
    items = []
    for i in range(10):
        bundle = make_bundle(video_id=f"d{i}", total_frames=60 + 7 * i, seed=100 + i)
        save_bundle(bundle, root / bundle.video_id)
        items.append(QAItem(bundle.video_id, f"what happens in clip {i}?", OPTIONS,
                            answer_index=i % 5, category="Causal" if i % 2 else "Temporal"))
    qa_path = save_qa(items, tmp_path / "qa")

    script = tmp_path / "script.jsonl"
    script.write_text(
        '{"round": 1, "reply": "answer: B, confidence: 2, missing: the middle"}\n'
        '{"reply": "answer: B, confidence: 3, missing: none"}\n',
        encoding="utf-8",
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "providers": {"default": {
            "chat": {"kind": "Scripted", "script_path": str(script)},
            "caption": {"kind": "PrecomputedCaption"},
            "embed": {"kind": "Scripted", "embed_dim": 32, "seed": 9},
        }},
    }), encoding="utf-8")

    outputs = []
    for run_index in (1, 2):
        out = tmp_path / f"out{run_index}"
        code = main([
            "eval", "--qa", str(qa_path), "--bundle", str(root),
            "--config", str(config), "--out", str(out),
        ])
        assert code == 0
        outputs.append((
            (out / "report.json").read_bytes(),
            (out / "transcripts.jsonl").read_bytes(),
        ))
    assert outputs[0][0] == outputs[1][0], "report.json differs between runs"
    assert outputs[0][1] == outputs[1][1], "transcripts differ between runs"
    print("CRITERION 10 PASS: two CLI eval runs over the 10-item scripted suite produced "
          "byte-identical reports and transcripts")
