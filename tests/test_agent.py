from __future__ import annotations

import hashlib
import json
import socket
from collections import Counter

import pytest

from conftest import (
    confident_entry,
    make_bundle,
    remote_chat_config,
    scripted_gateway,
    unsure_entry,
)
from graphvqa.agent import (
    AgentAction,
    AgentConfig,
    VideoAgent,
    decide_action,
    load_prompt_template,
    parse_reply,
    render_prompt,
    uniform_sample,
)
from graphvqa.errors import GatewayError
from graphvqa.gateway import (
    PRECOMPUTED_CAPTION,
    SCRIPTED,
    ModelGateway,
    ProviderConfig,
    ScriptEntry,
)
from graphvqa.parsing import default_lexicon, parse_question
from graphvqa.store import VideoBundle, transcript_record

LEX = default_lexicon()
OPTIONS = ["red", "green", "blue", "white", "black"]


def distinct_caption_bundle(total_frames=100):
    captions = {f: f"the boy holds the toy{f:03d}" for f in range(total_frames)}
    return VideoBundle(video_id="vid", total_frames=total_frames, captions=captions).validate()


# -- uniform_sample ------------------------------------------------------------

def test_uniform_sample_even_spacing():
    assert uniform_sample(100, 5) == [10, 30, 50, 70, 90]


def test_uniform_sample_clamps_to_available():
    assert uniform_sample(3, 5) == [0, 1, 2]


def test_uniform_sample_single():
    assert uniform_sample(1, 1) == [0]


def test_uniform_sample_strictly_increasing():
    for total, n in [(7, 3), (11, 4), (60, 5), (2, 2), (100, 100)]:
        sample = uniform_sample(total, n)
        assert all(a < b for a, b in zip(sample, sample[1:]))
        assert all(0 <= f < total for f in sample)


def test_uniform_sample_rejects_nonpositive():
    with pytest.raises(ValueError):
        uniform_sample(0, 5)
    with pytest.raises(ValueError):
        uniform_sample(10, 0)


# -- decide_action ---------------------------------------------------------------

def test_decide_action_truth_table():
    cfg = AgentConfig()
    expected = {
        (3, 1): AgentAction.ANSWER,
        (3, 2): AgentAction.ANSWER,
        (3, 3): AgentAction.ANSWER,
        (1, 1): AgentAction.RETRIEVE,
        (2, 1): AgentAction.RETRIEVE,
        (1, 2): AgentAction.RETRIEVE_EXPANDED,
        (2, 2): AgentAction.RETRIEVE_EXPANDED,
        (1, 3): AgentAction.ANSWER,
        (2, 3): AgentAction.ANSWER,
    }
    for (confidence, round_number), action in expected.items():
        assert decide_action(confidence, round_number, cfg) is action


def test_decide_action_validates_inputs():
    cfg = AgentConfig()
    with pytest.raises(ValueError):
        decide_action(0, 1, cfg)
    with pytest.raises(ValueError):
        decide_action(4, 1, cfg)
    with pytest.raises(ValueError):
        decide_action(2, 4, cfg)


def test_agent_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(confidence_threshold=0)
    with pytest.raises(ValueError):
        AgentConfig(max_rounds=0)
    with pytest.raises(ValueError):
        AgentConfig(initial_frames=0)


# -- reply parsing ------------------------------------------------------------------

@pytest.mark.parametrize(
    "reply,expected",
    [
        ("answer: B, confidence: 3", (1, 3, "")),
        ("Answer: (C)\nConfidence: 2\nMissing info: need the ending", (2, 2, "need the ending")),
        ("answer: 2\nconfidence: 1\nmissing: none", (2, 1, "")),
        ("Because of X.\nanswer: a\nconfidence: 3\nmissing: n/a", (0, 3, "")),
        ("ANSWER = E; CONFIDENCE = 1; MISSING = the start", (4, 1, "the start")),
    ],
)
def test_parse_reply_variants(reply, expected):
    assert parse_reply(reply, 5) == expected


@pytest.mark.parametrize(
    "reply",
    [
        "total garbage",
        "answer: B",                   # no confidence
        "confidence: 3",               # no answer
        "answer: F, confidence: 3",    # out of option range
        "answer: B, confidence: 5",    # confidence off scale
        "answer: 4, confidence: 2",    # index beyond 3 options (see call below)
    ],
)
def test_parse_reply_rejects(reply):
    assert parse_reply(reply, 3) is None


# -- evaluate_state ----------------------------------------------------------------------

def test_evaluate_state_parses_scripted_reply():
    bundle = distinct_caption_bundle()
    gateway = scripted_gateway([ScriptEntry(reply="answer: B, confidence: 3")])
    agent = VideoAgent(bundle, gateway)
    session, graph = agent.run("what does the boy hold?", OPTIONS)
    assert session.rounds[0].prediction == 1
    assert session.rounds[0].confidence == 3
    assert session.rounds[0].missing_info == ""


def test_evaluate_state_garbage_twice_degrades():
    bundle = distinct_caption_bundle()
    gateway = scripted_gateway([ScriptEntry(reply="???")])
    agent = VideoAgent(bundle, gateway)
    session, _ = agent.run("what?", OPTIONS)
    first = session.rounds[0]
    assert (first.prediction, first.confidence) == (0, 1)
    assert first.missing_info == "unparseable reply"


def test_evaluate_state_retry_consumes_script_round():
    bundle = distinct_caption_bundle()
    gateway = scripted_gateway([
        ScriptEntry(reply="not parseable", round=1),
        ScriptEntry(reply="answer: D, confidence: 3", round=2),
        ScriptEntry(reply="answer: A, confidence: 3"),
    ])
    agent = VideoAgent(bundle, gateway)
    session, _ = agent.run("what?", OPTIONS)
    assert session.rounds[0].prediction == 3  # retry reply won


def test_prompt_digest_replay_and_caption_uniqueness():
    bundle = distinct_caption_bundle()
    gateway = scripted_gateway([confident_entry("A")])
    cfg = AgentConfig()
    agent = VideoAgent(bundle, gateway, cfg)
    question = "what does the boy hold?"
    session, graph = agent.run(question, OPTIONS)

    captions = {f: bundle.captions[f] for f in session.selected_frames}
    query = parse_question(question, OPTIONS, LEX)
    summaries = graph.summarize(query, cfg.prompt_char_budget)
    prompt = render_prompt(load_prompt_template(), question, OPTIONS, captions, summaries)
    assert hashlib.sha256(prompt.encode("utf-8")).hexdigest() == session.rounds[0].prompt_digest
    for frame in session.selected_frames:
        assert prompt.count(bundle.captions[frame]) == 1


# -- full runs -----------------------------------------------------------------------------

def test_confident_first_round_uses_exactly_n_frames():
    bundle = make_bundle(total_frames=100)
    gateway = scripted_gateway([confident_entry("C")])
    session, graph = VideoAgent(bundle, gateway).run("what happens?", OPTIONS)
    assert session.selected_frames == [10, 30, 50, 70, 90]
    assert len(session.rounds) == 1
    assert session.terminated_by.value == "Confident"
    assert session.final_answer == 2
    assert graph.version == 1
    assert session.final_graph_version == 1


def test_low_low_high_uses_n_plus_2k_frames():
    bundle = make_bundle(total_frames=200)
    gateway = scripted_gateway([
        ScriptEntry(reply="answer: B, confidence: 1, missing: unsure", round=1),
        ScriptEntry(reply="answer: B, confidence: 1, missing: still unsure", round=2),
        ScriptEntry(reply="answer: B, confidence: 3, missing: none"),
    ])
    session, graph = VideoAgent(bundle, gateway).run("what does the boy do?", OPTIONS)
    assert len(session.rounds) == 3
    assert len(session.selected_frames) == 11  # 5 + 3 + 3
    assert [len(r.frames_added) for r in session.rounds] == [3, 3, 0]
    assert session.terminated_by.value == "Confident"
    assert graph.version == 3  # init + two retrieval updates
    assert session.final_graph_version == 3


def test_round_limit_forces_answer():
    bundle = make_bundle(total_frames=200)
    gateway = scripted_gateway([unsure_entry("D", confidence=1)])
    session, _ = VideoAgent(bundle, gateway).run("what?", OPTIONS)
    assert len(session.rounds) == 3
    assert session.terminated_by.value == "RoundLimit"
    assert session.final_answer == 3
    assert len(session.selected_frames) <= 11


def test_exhausted_when_no_candidates_left():
    # captions exist only on the five uniform-sample frames, so the first
    # retrieval round finds nothing captionable
    captions = {f: f"the boy holds the toy{f}" for f in [10, 30, 50, 70, 90]}
    bundle = VideoBundle(video_id="v", total_frames=100, captions=captions).validate()
    gateway = scripted_gateway([unsure_entry("B", confidence=2)])
    session, _ = VideoAgent(bundle, gateway).run("what?", OPTIONS)
    assert session.terminated_by.value == "Exhausted"
    assert session.final_answer == 1
    assert len(session.rounds) == 1


def test_partial_captions_only_captionable_frames_selected():
    captions = {f: f"the boy holds the toy{f}" for f in range(0, 100, 2)}
    bundle = VideoBundle(video_id="v", total_frames=100, captions=captions).validate()
    gateway = scripted_gateway([
        ScriptEntry(reply="answer: A, confidence: 1, missing: more", round=1),
        ScriptEntry(reply="answer: A, confidence: 3"),
    ])
    session, _ = VideoAgent(bundle, gateway).run("what?", OPTIONS)
    assert all(f in captions for f in session.selected_frames)
    assert session.terminated_by.value == "Confident"


def test_identical_runs_identical_transcripts():
    bundle = make_bundle(total_frames=150)
    question = "why does the dog bark at the person?"

    def run_once():
        gateway = scripted_gateway([
            ScriptEntry(reply="answer: A, confidence: 2, missing: more", round=1),
            ScriptEntry(reply="answer: E, confidence: 3"),
        ])
        session, _ = VideoAgent(bundle, gateway).run(question, OPTIONS)
        return json.dumps(transcript_record(session), sort_keys=True)

    assert run_once() == run_once()


def test_frame_budget_invariant_across_configs():
    bundle = make_bundle(total_frames=80)
    for n, rounds in [(5, 3), (3, 2), (1, 1), (4, 4)]:
        cfg = AgentConfig(initial_frames=n, max_rounds=rounds)
        gateway = scripted_gateway([unsure_entry(confidence=1)])
        session, _ = VideoAgent(bundle, gateway, cfg).run("what?", OPTIONS)
        assert len(session.selected_frames) <= n + cfg.selector.k * (rounds - 1)
        assert len(session.rounds) <= rounds


def test_no_retrieval_in_confident_rounds():
    bundle = make_bundle(total_frames=120)
    gateway = scripted_gateway([
        ScriptEntry(reply="answer: C, confidence: 1, missing: more", round=1),
        ScriptEntry(reply="answer: C, confidence: 3"),
    ])
    session, _ = VideoAgent(bundle, gateway).run("what?", OPTIONS)
    for entry in session.rounds:
        if entry.confidence >= 3:
            assert entry.frames_added == []


def closed_port_endpoint():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


def test_gateway_failure_terminates_with_round_limit():
    bundle = make_bundle(total_frames=60)
    gateway = ModelGateway(
        chat=remote_chat_config(closed_port_endpoint(), max_retries=0, timeout=0.5),
        caption=ProviderConfig(kind=PRECOMPUTED_CAPTION),
    )
    session, _ = VideoAgent(bundle, gateway).run("what?", OPTIONS)
    assert session.terminated_by.value == "RoundLimit"
    assert session.final_answer == 0
    assert session.rounds
    assert "gateway failure" in session.rounds[-1].missing_info


class CountingGateway(ModelGateway):
    """Scripted gateway that counts frame embeds and can fail chosen ones once."""

    def __init__(self, entries, fail_once=()):
        super().__init__(
            chat=ProviderConfig(kind=SCRIPTED),
            caption=ProviderConfig(kind=PRECOMPUTED_CAPTION),
            embed=ProviderConfig(kind=SCRIPTED, embed_dim=16),
            chat_script=entries,
        )
        self.frame_embeds = Counter()
        self.fail_once = set(fail_once)

    def embed(self, text_or_frame, bundle=None):
        if isinstance(text_or_frame, int):
            self.frame_embeds[text_or_frame] += 1
            if text_or_frame in self.fail_once:
                self.fail_once.discard(text_or_frame)
                raise GatewayError("transient")
        return super().embed(text_or_frame, bundle)


class UnmemoizedAgent(VideoAgent):
    """Embeds a frame on every use, as the reference for transcripts."""

    def _frame_embedding(self, frame):
        try:
            return self.gateway.embed(frame, self.bundle)
        except GatewayError:
            return None


def test_frame_embeddings_memoized_per_session():
    bundle = distinct_caption_bundle()
    entries = [unsure_entry("B"), unsure_entry("C", confidence=2), confident_entry("D")]
    plain = CountingGateway(entries)
    reference, _ = UnmemoizedAgent(bundle, plain).run("what does the boy hold?", OPTIONS)
    assert max(plain.frame_embeds.values()) > 1  # retrieved frames are embedded twice

    counting = CountingGateway(entries)
    agent = VideoAgent(bundle, counting)
    for _ in range(2):  # the memo starts empty for each session
        counting.frame_embeds.clear()
        agent.gateway = counting.for_session()  # replays the script from round 1
        session, _ = agent.run("what does the boy hold?", OPTIONS)
        assert set(counting.frame_embeds.values()) == {1}
        assert transcript_record(session) == transcript_record(reference)


def test_failed_frame_embedding_tried_again():
    bundle = distinct_caption_bundle()
    gateway = CountingGateway([confident_entry()], fail_once={7})
    agent = VideoAgent(bundle, gateway)
    assert agent._frame_embedding(7) is None
    vector = agent._frame_embedding(7)
    assert vector is not None
    assert agent._frame_embedding(7) is vector
    assert gateway.frame_embeds[7] == 2


# -- the causal-chain fixture ------------------------------------------------------------

CHAIN_EDGES = ("person —take→ toy", "dog —bark→ person")


def fig1_bundle(total_frames=100):
    captions = {f: "the girl reads the book" for f in range(total_frames)}
    captions[10] = "the dog plays with the toy"
    captions[50] = "the person takes the toy"
    captions[90] = "the dog barks at the person"
    return VideoBundle(video_id="fig1", total_frames=total_frames, captions=captions).validate()


def chain_reasoner(correct_letter, wrong_letter):
    return [
        ScriptEntry(
            reply=f"answer: {correct_letter}, confidence: 3, missing: none",
            contains_all=CHAIN_EDGES,
        ),
        ScriptEntry(
            reply=f"answer: {wrong_letter}, confidence: 1, missing: the toy-taking chain"
        ),
    ]


def test_causal_chain_answerable_with_relations():
    bundle = fig1_bundle()
    gateway = scripted_gateway(chain_reasoner("B", "A"))
    session, graph = VideoAgent(bundle, gateway).run(
        "why did the dog bark at the person?", OPTIONS
    )
    assert session.final_answer == 1
    assert session.terminated_by.value == "Confident"


def test_causal_chain_unanswerable_without_relations():
    from graphvqa.parsing import Lexicon

    bare = Lexicon(
        spatial_preps=frozenset(),
        interaction_verbs=frozenset(),
        action_verbs=frozenset(),
        state_verbs={},
        type_gazetteer=LEX.type_gazetteer,
    )
    bundle = fig1_bundle()
    gateway = scripted_gateway(chain_reasoner("B", "A"))
    session, graph = VideoAgent(bundle, gateway, lexicon=bare).run(
        "why did the dog bark at the person?", OPTIONS
    )
    assert len(graph.edges) == 0
    assert session.terminated_by.value == "RoundLimit"
    assert session.final_answer == 0  # forced out on the wrong fallback
