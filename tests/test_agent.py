from __future__ import annotations

import hashlib
import json
import socket
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import (
    confident_entry,
    count_pool_submits,
    make_bundle,
    record_norms,
    record_parses,
    record_update_batches,
    remote_chat_config,
    scripted_gateway,
    unsure_entry,
)
from graphvqa.agent import (
    AgentAction,
    AgentConfig,
    FrameTable,
    VideoAgent,
    decide_action,
    load_prompt_template,
    parse_reply,
    render_prompt,
    uniform_sample,
)
from graphvqa.errors import DimensionError, GatewayError
from graphvqa.gateway import (
    PRECOMPUTED_CAPTION,
    PRECOMPUTED_EMBED,
    SCRIPTED,
    ModelGateway,
    ProviderConfig,
    ScriptEntry,
)
from graphvqa.graph import Embedding, vector_norm
from graphvqa.parsing import default_lexicon, parse_caption, parse_question
from graphvqa.store import VideoBundle, save_graph, transcript_record

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


@pytest.mark.parametrize("template,error", [
    ("Q: {question} {nope}", r"unknown placeholders \{nope\}"),
    ("Q: {question} {}", r"unknown placeholders \{\}"),
    ("Q: {question.upper}", r"unknown placeholders \{question.upper\}"),
    ("Q: {question:{width}}", r"unknown placeholders \{width\}"),
    ("Q: {question} }", "Single '}'"),
    ("Q: {question!z}", "conversion"),
    ("Q: {question:d}", "format code"),
])
def test_prompt_template_placeholders_checked_at_load(tmp_path, template, error):
    path = tmp_path / "template.txt"
    path.write_text(template, encoding="utf-8")
    with pytest.raises(ValueError, match=error):
        load_prompt_template(str(path))
    with pytest.raises(ValueError, match=error):
        AgentConfig(prompt_template_path=str(path))


def test_prompt_template_brace_escapes_render(tmp_path):
    path = tmp_path / "template.txt"
    path.write_text("{{json}} {question} {options}}}", encoding="utf-8")
    AgentConfig(prompt_template_path=str(path))
    template = load_prompt_template(str(path))
    assert render_prompt(template, "why?", ["x"], {}, ("", "", "")) == "{json} why? A. x}"


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
    """Scripted gateway that counts frame embeds and captions and can fail
    chosen ones once."""

    def __init__(self, entries, fail_once=(), fail_caption_once=()):
        super().__init__(
            chat=ProviderConfig(kind=SCRIPTED),
            caption=ProviderConfig(kind=PRECOMPUTED_CAPTION),
            embed=ProviderConfig(kind=SCRIPTED, embed_dim=16),
            chat_script=entries,
        )
        self.frame_embeds = Counter()
        self.frame_captions = Counter()
        self.fail_once = set(fail_once)
        self.fail_caption_once = set(fail_caption_once)

    def caption(self, frame_index, bundle):
        self.frame_captions[frame_index] += 1
        if frame_index in self.fail_caption_once:
            self.fail_caption_once.discard(frame_index)
            raise GatewayError("transient")
        return super().caption(frame_index, bundle)

    def embed(self, text_or_frame, bundle=None):
        if isinstance(text_or_frame, int):
            self.frame_embeds[text_or_frame] += 1
            if text_or_frame in self.fail_once:
                self.fail_once.discard(text_or_frame)
                raise GatewayError("transient")
        return super().embed(text_or_frame, bundle)


class UnmemoizedAgent(VideoAgent):
    """Embeds a frame on every use, as the reference for transcripts."""

    def _fetch(self, captions, embeds, question=None):
        self.frames.embeddings.clear()
        return super()._fetch(captions, embeds, question)


def test_frame_embeddings_memoized_in_a_session():
    bundle = distinct_caption_bundle()
    entries = [unsure_entry("B"), unsure_entry("C", confidence=2), confident_entry("D")]
    plain = CountingGateway(entries)
    reference, _ = UnmemoizedAgent(bundle, plain).run("what does the boy hold?", OPTIONS)
    assert max(plain.frame_embeds.values()) > 1  # retrieved frames are embedded twice

    counting = CountingGateway(entries)
    session, _ = VideoAgent(bundle, counting).run("what does the boy hold?", OPTIONS)
    assert set(counting.frame_embeds.values()) == {1}
    assert transcript_record(session) == transcript_record(reference)


def test_each_run_of_an_agent_replays_a_round_keyed_script_from_round_one():
    entries = [ScriptEntry(reply="answer: B, confidence: 1, missing: more", round=1),
               ScriptEntry(reply="answer: C, confidence: 3, missing: none", round=2),
               ScriptEntry(reply="answer: D, confidence: 3, missing: none")]
    agent = VideoAgent(distinct_caption_bundle(), scripted_gateway(entries))
    for _ in range(2):
        session, _ = agent.run("what does the boy hold?", OPTIONS)
        assert [(r.prediction, r.confidence) for r in session.rounds] == [(1, 1), (2, 3)]


def test_an_agent_keeps_one_frame_table_for_all_of_its_sessions():
    """The second session on an agent asks the gateway for no frame that
    the first one captioned or embedded, and gives the same transcript."""
    gateway = CountingGateway([unsure_entry("B")])
    agent = VideoAgent(distinct_caption_bundle(), gateway)
    first, _ = agent.run("what does the boy hold?", OPTIONS)
    assert len(first.rounds) == 3 and first.rounds[0].frames_added
    fetched = Counter(gateway.frame_captions), Counter(gateway.frame_embeds)
    second, _ = agent.run("what does the boy hold?", OPTIONS)
    assert (gateway.frame_captions, gateway.frame_embeds) == fetched
    assert transcript_record(second) == transcript_record(first)


def test_failed_frame_embedding_tried_again():
    bundle = distinct_caption_bundle()
    gateway = CountingGateway([confident_entry()], fail_once={7})
    agent = VideoAgent(bundle, gateway)
    agent._fetch((), [7])
    assert agent.frames.embeddings.get(7) is None
    agent._fetch((), [7])
    vector = agent.frames.embeddings.get(7)
    assert vector is not None
    agent._fetch((), [7])
    assert agent.frames.embeddings.get(7) is vector
    assert gateway.frame_embeds[7] == 2


def test_no_start_stored_when_a_starting_frame_embedding_failed(monkeypatch):
    """The table keeps no embedding for a starting frame that failed to
    embed; the next session asks for that frame again and for no other."""
    bundle = distinct_caption_bundle()
    initial = tuple(uniform_sample(bundle.total_frames, AgentConfig().initial_frames))
    _, clean = VideoAgent(bundle, CountingGateway([confident_entry()])).run("what?", OPTIONS)
    batches = record_update_batches(monkeypatch)
    gateway = CountingGateway([confident_entry()], fail_once={initial[2]})
    table = FrameTable()
    _, degraded = VideoAgent(bundle, gateway, frames=table).run("what?", OPTIONS)
    assert set(table.embeddings) == set(initial) - {initial[2]}
    assert save_graph(degraded) != save_graph(clean)
    _, graph = VideoAgent(bundle, gateway, frames=table).run("what?", OPTIONS)
    assert save_graph(graph) == save_graph(clean)
    assert batches == [initial, initial]
    assert gateway.frame_embeds == Counter({**dict.fromkeys(initial, 1), initial[2]: 2})
    assert gateway.frame_captions == Counter(dict.fromkeys(initial, 1))


class QuestionCountingGateway(CountingGateway):
    """Also records each question embedded; can fail the first one."""

    def __init__(self, entries, fail_question_once=False):
        super().__init__(entries)
        self.questions = []
        self.fail_question_once = fail_question_once

    def embed(self, text_or_frame, bundle=None):
        if isinstance(text_or_frame, str):
            self.questions.append(text_or_frame)
            if self.fail_question_once:
                self.fail_question_once = False
                raise GatewayError("transient")
        return super().embed(text_or_frame, bundle)


def test_session_confident_in_round_one_embeds_no_question():
    gateway = QuestionCountingGateway([confident_entry()])
    session, _ = VideoAgent(distinct_caption_bundle(), gateway).run("what?", OPTIONS)
    assert len(session.rounds) == 1 and gateway.frame_embeds
    assert gateway.questions == []


def test_session_with_no_frame_left_to_retrieve_embeds_no_question():
    gateway = QuestionCountingGateway([unsure_entry("B")])
    session, _ = VideoAgent(distinct_caption_bundle(total_frames=4), gateway).run("what?", OPTIONS)
    assert session.terminated_by.value == "Exhausted" and session.rounds[0].frames_added == []
    assert gateway.questions == []


def test_question_embedded_once_at_the_first_retrieval():
    entries = [unsure_entry("B"), unsure_entry("C", confidence=2), confident_entry("D")]
    gateway = QuestionCountingGateway(entries)
    session, _ = VideoAgent(distinct_caption_bundle(), gateway).run("what?", OPTIONS)
    assert len(session.rounds) == 3
    assert gateway.questions == ["what?"]


def test_failed_question_embedding_asked_again_at_the_next_retrieval():
    entries = [unsure_entry("B"), unsure_entry("C", confidence=2), confident_entry("D")]
    gateway = QuestionCountingGateway(entries, fail_question_once=True)
    agent = VideoAgent(distinct_caption_bundle(), gateway)
    session, _ = agent.run("what?", OPTIONS)
    assert len(session.rounds) == 3 and all(r.frames_added for r in session.rounds[:2])
    assert gateway.questions == ["what?", "what?"]
    assert agent.query_embedding is not None


def test_sessions_sharing_a_frame_table_do_each_frame_once(monkeypatch):
    bundle = distinct_caption_bundle()
    entries = [unsure_entry("B"), unsure_entry("C", confidence=2), confident_entry("D")]
    questions = ["what does the boy hold?", "what is the toy050?", "what does the boy hold?"]
    # the reference: each session with a table of its own
    references = [VideoAgent(bundle, CountingGateway(entries)).run(q, OPTIONS)[0]
                  for q in questions]
    parsed = record_parses(monkeypatch)
    gateway = CountingGateway(entries)
    table = FrameTable()
    for question, reference in zip(questions, references):
        session, _ = VideoAgent(bundle, gateway, frames=table).run(question, OPTIONS)
        assert transcript_record(session) == transcript_record(reference)
    assert set(gateway.frame_captions.values()) == {1}
    assert set(gateway.frame_embeds.values()) == {1}
    assert len(parsed) == len(set(parsed))
    assert set(parsed) == set(table.captions) == set(gateway.frame_captions)
    assert sum(len(s.selected_frames) for s in references) > 2 * len(table.captions)
    for frame, embedding in table.embeddings.items():
        assert type(embedding) is Embedding and embedding.norm == vector_norm(embedding)


def test_sessions_start_from_the_stored_start_graph(monkeypatch):
    """Each session builds its start graph from the table's stored parses
    and embeddings, equal to the start of a session with a table of its own."""
    bundle = distinct_caption_bundle()
    entries = [unsure_entry("B"), unsure_entry("C", confidence=2), confident_entry("D")]
    questions = ["what does the boy hold?", "what is the toy050?", "what does the boy hold?"]
    fresh = [VideoAgent(bundle, CountingGateway(entries)).run(q, OPTIONS) for q in questions]
    fresh_start = save_graph(
        VideoAgent(bundle, CountingGateway([confident_entry()])).run("what?", OPTIONS)[1]
    )
    initial = tuple(uniform_sample(bundle.total_frames, AgentConfig().initial_frames))
    batches = record_update_batches(monkeypatch)
    gateway = CountingGateway(entries)
    table = FrameTable()
    for question, (reference, reference_graph) in zip(questions, fresh):
        session, graph = VideoAgent(bundle, gateway, frames=table).run(
            question, OPTIONS
        )
        assert transcript_record(session) == transcript_record(reference)
        assert save_graph(graph) == save_graph(reference_graph)
    assert batches.count(initial) == len(questions)
    # a session answering at once holds just the start, built without a request
    gateway = CountingGateway([confident_entry()])
    _, graph = VideoAgent(bundle, gateway, frames=table).run("what?", OPTIONS)
    assert save_graph(graph) == fresh_start
    assert batches.count(initial) == len(questions) + 1
    assert not gateway.frame_captions and not gateway.frame_embeds


def test_each_vector_normed_once_in_sessions_sharing_a_table(monkeypatch):
    """Frame 6 is the only candidate: it is scored against the question,
    then its child merges into the boy by similarity. Its norm, like every
    other vector's, is computed once across all three sessions, the
    reference one with a table of its own included: every session gets the
    bundle's own vector."""
    captions = {5: "the boy holds the cup", 6: "the child takes the ball",
                15: "the girl opens the book"}
    embeddings = {5: [1.0, 0.1, 0.0, 0.0], 6: [0.95, 0.15, 0.05, 0.0],
                  15: [0.0, 0.0, 1.0, 0.2]}
    bundle = VideoBundle(video_id="vid", total_frames=20, captions=captions,
                         embeddings=embeddings).validate()
    cfg = AgentConfig(initial_frames=2)
    gateway = scripted_gateway([unsure_entry(), confident_entry()])
    normed = record_norms(monkeypatch)
    reference, _ = VideoAgent(bundle, gateway, cfg).run("what does the boy hold?", OPTIONS)
    table = FrameTable()
    for _ in range(2):
        session, graph = VideoAgent(bundle, gateway, cfg, frames=table).run(
            "what does the boy hold?", OPTIONS
        )
        assert transcript_record(session) == transcript_record(reference)
        assert session.rounds[0].frames_added == [6]
        assert graph.node_for_lemma("child") is graph.node_for_lemma("boy")
    assert table.embeddings[6] is bundle.embeddings[6]
    assert sum(v is bundle.embeddings[6] for v in normed) == 1
    assert max(Counter(map(id, normed)).values()) == 1


@pytest.mark.parametrize("kind", [PRECOMPUTED_EMBED, SCRIPTED])
def test_local_embed_lanes_share_the_bundle_vector_with_the_table(kind):
    """The local embed lanes return the bundle's own `Embedding`, and a
    session's frame table keeps that very object."""
    bundle = make_bundle(total_frames=40, dim=8)
    gateway = ModelGateway(
        chat=ProviderConfig(kind=SCRIPTED),
        caption=ProviderConfig(kind=PRECOMPUTED_CAPTION),
        embed=ProviderConfig(kind=kind),
        chat_script=[unsure_entry()],
    )
    assert gateway.embed(3, bundle) is bundle.embeddings[3]
    table = FrameTable()
    session, _ = VideoAgent(bundle, gateway, frames=table).run("what does the boy hold?", OPTIONS)
    assert len(table.embeddings) > len(session.selected_frames) > AgentConfig().initial_frames
    assert all(vector is bundle.embeddings[f] for f, vector in table.embeddings.items())


def test_failed_caption_is_not_stored_and_tried_again():
    bundle = distinct_caption_bundle()
    initial = uniform_sample(bundle.total_frames, AgentConfig().initial_frames)
    reference, _ = VideoAgent(bundle, CountingGateway([confident_entry()])).run("what?", OPTIONS)
    gateway = CountingGateway([confident_entry()], fail_caption_once={initial[1]})
    table = FrameTable()
    with pytest.raises(GatewayError):  # the initial ingest has no round to end
        VideoAgent(bundle, gateway, frames=table).run("what?", OPTIONS)
    # the table keeps every frame that arrived, the failed frame's embedding too
    assert set(table.captions) == set(initial) - {initial[1]}
    assert set(table.embeddings) == set(initial)
    session, _ = VideoAgent(bundle, gateway, frames=table).run("what?", OPTIONS)
    assert transcript_record(session) == transcript_record(reference)
    # the next session asks again for the failed caption only
    assert gateway.frame_captions == Counter({**dict.fromkeys(initial, 1), initial[1]: 2})
    assert gateway.frame_embeds == Counter(dict.fromkeys(initial, 1))


def test_changing_a_session_graph_leaves_other_sessions_alone():
    bundle = distinct_caption_bundle()
    table = FrameTable()

    def run():
        return VideoAgent(bundle, CountingGateway([confident_entry()]), frames=table).run(
            "what does the boy hold?", OPTIONS
        )[1]

    first = run()
    stored = save_graph(first)
    second, third = run(), run()
    assert save_graph(second) == stored
    assert len({id(first), id(second), id(third)}) == 3
    second.update_graph([(parse_caption("the girl takes the ball", 3, LEX), Embedding([0.5] * 16))])
    for node in second.nodes.values():
        node.frame_indices.append(99)
        node.aliases.append("alias")
        node.state_history.append((99, "gone"))
        if node.feature is not None:
            node.feature = Embedding([123.0] * len(node.feature))
    for edge in second.edges.values():
        edge.frame_indices.append(99)
    second.processed_frames.append(99)
    assert save_graph(first) == save_graph(third) == stored
    assert save_graph(run()) == stored


def test_parallel_sessions_on_one_table_match_serial_ones():
    bundle = distinct_caption_bundle()
    entries = [unsure_entry("B"), unsure_entry("C", confidence=2), confident_entry("D")]
    questions = ["what does the boy hold?", "what is the toy050?", "where is the toy?"] * 8
    references = {
        q: VideoAgent(bundle, CountingGateway(entries)).run(q, OPTIONS) for q in set(questions)
    }
    gateway = CountingGateway(entries)
    table = FrameTable()

    def run(question):
        return VideoAgent(bundle, gateway, frames=table).run(question, OPTIONS)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, q) for q in questions]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for question, (session, graph) in zip(questions, results):
        reference, reference_graph = references[question]
        assert transcript_record(session) == transcript_record(reference)
        assert save_graph(graph) == save_graph(reference_graph)
    assert len({id(graph) for _, graph in results}) == len(results)


def fanned_out_gateway(endpoint, **overrides):
    """Scripted chat that asks for one retrieval round, then answers;
    captions and embeddings from the remote stub."""
    return ModelGateway(
        chat=ProviderConfig(kind=SCRIPTED),
        caption=remote_chat_config(endpoint, **overrides),
        embed=remote_chat_config(endpoint, kind="RemoteEmbed", **overrides),
        chat_script=[
            ScriptEntry(reply="answer: B, confidence: 1, missing: more frames", round=1),
            confident_entry("C"),
        ],
    )


def test_caption_failure_in_fan_out_ends_the_round(model_stub):
    endpoint, state = model_stub
    bundle = make_bundle(total_frames=120)
    with fanned_out_gateway(endpoint) as gateway:
        clean, _ = VideoAgent(bundle, gateway).run("what does the dog hold?", OPTIONS)
    retrieved = clean.rounds[0].frames_added
    assert len(retrieved) == 3

    state.reject = {f"Caption frame {retrieved[1]} of"}  # the 2nd of the round's 3 frames
    with fanned_out_gateway(endpoint, max_retries=0) as gateway:
        session, graph = VideoAgent(bundle, gateway).run("what does the dog hold?", OPTIONS)
    [entry] = session.rounds
    assert entry.missing_info == "gateway failure: request rejected with HTTP 400"
    assert entry.frames_added == []
    assert session.terminated_by.value == "RoundLimit"
    initial = uniform_sample(bundle.total_frames, AgentConfig().initial_frames)
    assert session.selected_frames == initial
    assert sorted(graph.processed_frames) == initial


def test_remote_embedding_of_wrong_dimension_raises(model_stub):
    endpoint, state = model_stub
    state.embed_dim = 4
    with fanned_out_gateway(endpoint) as gateway:
        with pytest.raises(DimensionError):
            VideoAgent(make_bundle(total_frames=60, dim=8), gateway).run("what?", OPTIONS)


def test_all_hit_rerun_submits_nothing_to_the_pool(model_stub):
    endpoint, state = model_stub
    bundle = make_bundle(total_frames=120)
    with fanned_out_gateway(endpoint) as cold_gateway:
        submitted = count_pool_submits(cold_gateway)
        cold, _ = VideoAgent(bundle, cold_gateway).run("what does the dog hold?", OPTIONS)
        assert submitted  # the cold run fans out
    sent = len(state.requests)
    with fanned_out_gateway(endpoint) as warm_gateway:
        warm_gateway.cache = cold_gateway.cache
        submitted = count_pool_submits(warm_gateway)
        warm, _ = VideoAgent(bundle, warm_gateway).run("what does the dog hold?", OPTIONS)
    assert submitted == []
    assert len(state.requests) == sent
    assert transcript_record(warm) == transcript_record(cold)


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
