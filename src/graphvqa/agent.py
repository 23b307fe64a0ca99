"""The iterative predict / self-reflect / retrieve loop.

A session starts from a uniform sample of N frames whose captions seed the
graph. Each round the model sees the question, options, all selected frame
captions, and the graph's three summaries, and must reply with an answer,
a confidence in {1, 2, 3}, and what is still missing. Confidence at or above
the threshold answers immediately; otherwise the selector retrieves up to k
new frames from graph-derived segments (the second-to-last permitted round
widens to the whole video with a doubled decay length). The loop is bounded
by max_rounds, at which point the latest prediction is forced out.

Sessions on one video may share a `FrameTable`: an agent's sessions always
do, and `eval` shares one among all agents on a video. Each frame's
caption, parse, embedding and embedding norm are then computed once, and a
session asks the gateway only for what the table lacks. Vectors arrive from
the gateway as `Embedding`s and are passed on as they are, so a bundle's
vector is the very object that the table, the selector and the graph use.
Each session builds its own graph from the table's parses and embeddings.
What a frame turned out to be does not depend on which session asked
first, so sharing changes no transcript; a table is valid only for
sessions that share a lexicon and whose gateways caption and embed alike.
With a deterministic gateway every transcript is reproducible byte-for-byte.

A session embeds its question only when it has candidate frames to rank, at
the head of that retrieval's embed fan-out; like a failed frame embedding, a
failed question embedding is asked for again at the next retrieval.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
import string
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .errors import GatewayError, check_field_types
from .gateway import ModelGateway
from .graph import Embedding, GraphConfig, VideoGraph
from .parsing import (
    CaptionParse,
    Lexicon,
    QueryParse,
    default_lexicon,
    parse_caption,
    parse_question,
)
from .selector import (
    SelectorConfig,
    candidate_frames,
    identify_segments,
    select_frames,
)
from .store import VideoBundle

logger = logging.getLogger(__name__)

_ANSWER_RE = re.compile(r"\banswer\s*[:=]\s*[\(\[]?\s*([A-Ea-e]\b|[0-4]\b)", re.IGNORECASE)
_CONFIDENCE_RE = re.compile(r"\bconfidence\s*[:=]\s*[\(\[]?\s*(\d+)", re.IGNORECASE)
_MISSING_RE = re.compile(
    r"\bmissing(?:[ _-]*info(?:rmation)?)?\s*[:=]\s*(.*)", re.IGNORECASE
)

# The placeholders render_prompt fills; a template may use no others.
_TEMPLATE_FIELDS = frozenset({
    "question", "options", "frame_captions",
    "entity_summary", "relation_summary", "temporal_summary",
})

_RETRY_REMINDER = (
    "Your previous reply could not be parsed. Reply again and include the "
    "labeled lines exactly as requested:\n"
    "answer: <option letter>\nconfidence: <1, 2, or 3>\nmissing: <text or \"none\">"
)


class AgentAction(str, Enum):
    ANSWER = "Answer"
    RETRIEVE = "Retrieve"
    RETRIEVE_EXPANDED = "RetrieveExpanded"


class Termination(str, Enum):
    CONFIDENT = "Confident"
    ROUND_LIMIT = "RoundLimit"
    EXHAUSTED = "Exhausted"


@dataclass
class AgentConfig:
    initial_frames: int = 5
    max_rounds: int = 3
    confidence_threshold: int = 3
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    prompt_char_budget: int = 6000
    prompt_template_path: str = ""
    # the checked text of the template at prompt_template_path (or of the
    # shipped one), read once when the config is made
    prompt_template: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.initial_frames < 1:
            raise ValueError(f"initial_frames must be >= 1, got {self.initial_frames}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not 1 <= self.confidence_threshold <= 3:
            raise ValueError(
                f"confidence_threshold must be in 1..3, got {self.confidence_threshold}"
            )
        if self.prompt_char_budget < 256:
            raise ValueError(f"prompt_char_budget must be >= 256, got {self.prompt_char_budget}")
        if self.prompt_template_path and not Path(self.prompt_template_path).is_file():
            raise ValueError(
                f"prompt_template_path {self.prompt_template_path!r} is not a file"
            )
        self.prompt_template = load_prompt_template(self.prompt_template_path)


@dataclass
class RoundLog:
    round: int
    frames_added: list[int]
    prediction: int
    confidence: int
    missing_info: str
    prompt_digest: str


@dataclass
class AgentSession:
    video_id: str
    question: str
    options: list[str]
    selected_frames: list[int] = field(default_factory=list)
    rounds: list[RoundLog] = field(default_factory=list)
    final_answer: Optional[int] = None
    terminated_by: Optional[Termination] = None
    final_graph_version: int = 0

    @property
    def terminated(self) -> bool:
        return self.terminated_by is not None

    def add_frames(self, frames: Sequence[int]) -> None:
        merged = set(self.selected_frames)
        merged.update(frames)
        self.selected_frames = sorted(merged)

    def latest_prediction(self) -> int:
        return self.rounds[-1].prediction if self.rounds else 0


@dataclass
class FrameTable:
    """What one video's frames turned out to be: each frame's caption with
    its parse, and its `Embedding` (which keeps its norm once computed).
    The embedding is the object the gateway returned, which for the local
    embed lanes is the bundle's own. The selector scores, and the graph
    merges and stores as node features, the table's `Embedding` objects
    themselves.

    An agent keeps one table for all of its sessions, and `eval` shares one
    among all sessions on a video, so a session asks the gateway only for
    the frames no earlier session touched, and parses only their captions.
    Only successes are stored: a failed caption or embedding is tried again.
    Entries are written once (the first writer wins) and never changed, so
    parallel sessions may fill one table at the same time. A table is only
    valid for sessions whose gateways caption and embed alike and that
    share a lexicon.
    """

    captions: dict[int, tuple[str, CaptionParse]] = field(default_factory=dict)
    embeddings: dict[int, Embedding] = field(default_factory=dict)


def uniform_sample(total_frames: int, n: int) -> list[int]:
    """Evenly spaced frame indices: round((i + 0.5) * total/n), half-up,
    clamped and deduplicated. Asking for more frames than exist returns all."""
    if total_frames < 1:
        raise ValueError(f"total_frames must be >= 1, got {total_frames}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > total_frames:
        return list(range(total_frames))
    indices: list[int] = []
    for i in range(n):
        raw = (i + 0.5) * total_frames / n
        index = min(total_frames - 1, max(0, int(math.floor(raw + 0.5))))
        if not indices or index > indices[-1]:
            indices.append(index)
    return indices


def decide_action(confidence: int, round_number: int, cfg: AgentConfig) -> AgentAction:
    """Confidence gate: answer at/above threshold or at the round limit;
    otherwise retrieve, with expanded context on the second-to-last round."""
    if confidence not in (1, 2, 3):
        raise ValueError(f"confidence must be in {{1,2,3}}, got {confidence}")
    if not 1 <= round_number <= cfg.max_rounds:
        raise ValueError(f"round {round_number} outside 1..{cfg.max_rounds}")
    if confidence >= cfg.confidence_threshold:
        return AgentAction.ANSWER
    if round_number == cfg.max_rounds:
        return AgentAction.ANSWER
    if round_number == cfg.max_rounds - 1:
        return AgentAction.RETRIEVE_EXPANDED
    return AgentAction.RETRIEVE


def parse_reply(reply: str, option_count: int) -> Optional[tuple[int, int, str]]:
    """Extract (prediction, confidence, missing_info); None if unparseable."""
    answer_match = _ANSWER_RE.search(reply)
    confidence_match = _CONFIDENCE_RE.search(reply)
    if not answer_match or not confidence_match:
        return None
    token = answer_match.group(1).upper()
    prediction = ord(token) - ord("A") if token.isalpha() else int(token)
    if not 0 <= prediction < option_count:
        return None
    confidence = int(confidence_match.group(1))
    if confidence not in (1, 2, 3):
        return None
    missing_match = _MISSING_RE.search(reply)
    missing = missing_match.group(1).strip() if missing_match else ""
    if missing.lower() in ("none", '"none"', "n/a", "-"):
        missing = ""
    return prediction, confidence, missing


def load_prompt_template(path: str = "") -> str:
    """Read a prompt template, or the shipped one when `path` is empty.

    Raises ValueError when the template has a placeholder render_prompt does
    not fill, a lone brace, or a bad format spec or conversion; `{{` and `}}`
    stand for literal braces.
    """
    if path:
        template = Path(path).read_text(encoding="utf-8")
    else:
        template = (resources.files("graphvqa") / "data" / "prompt_default.txt").read_text(
            encoding="utf-8"
        )
    try:
        unknown = sorted(_template_fields(template) - _TEMPLATE_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown placeholders {', '.join('{' + name + '}' for name in unknown)}; "
                f"allowed: {', '.join(sorted(_TEMPLATE_FIELDS))}"
            )
        template.format(**dict.fromkeys(_TEMPLATE_FIELDS, ""))  # a bad format spec
    except ValueError as exc:
        raise ValueError(f"prompt template {path or '(default)'}: {exc}") from exc
    return template


def _template_fields(template: str) -> set[str]:
    """Names of the replacement fields in `template`, including fields nested
    in a format spec such as `{question:{width}}`."""
    fields: set[str] = set()
    for _literal, name, spec, _conversion in string.Formatter().parse(template):
        if name is not None:
            fields.add(name)
            fields |= _template_fields(spec)
    return fields


def render_prompt(template: str, question: str, options: Sequence[str],
                  captions: dict[int, str], summaries: tuple[str, str, str]) -> str:
    option_lines = "\n".join(
        f"{chr(ord('A') + i)}. {text}" for i, text in enumerate(options)
    )
    caption_lines = "\n".join(
        f"frame {frame}: {captions[frame]}" for frame in sorted(captions)
    )
    return template.format(
        question=question,
        options=option_lines,
        frame_captions=caption_lines,
        entity_summary=summaries[0],
        relation_summary=summaries[1],
        temporal_summary=summaries[2],
    )


class VideoAgent:
    """Runs sessions over one bundle. One session at a time per instance;
    distinct instances may run in parallel against a shared gateway and a
    shared `FrameTable`. Without a table, the agent makes one that all of its
    sessions share: they share its bundle, gateway and lexicon."""

    def __init__(self, bundle: VideoBundle, gateway: ModelGateway,
                 cfg: Optional[AgentConfig] = None, lexicon: Optional[Lexicon] = None,
                 frames: Optional[FrameTable] = None):
        self.bundle = bundle
        self.gateway = gateway
        self.cfg = cfg or AgentConfig()
        self.lexicon = lexicon or default_lexicon()
        self.frames = frames if frames is not None else FrameTable()
        # the running session's question embedding, once one has arrived
        self.query_embedding: Optional[Embedding] = None

    # -- state evaluation -----------------------------------------------------

    def evaluate_state(self, session: AgentSession, graph: VideoGraph,
                       query: Optional[QueryParse]) -> tuple[int, int, str, str]:
        """One model call (plus at most one formatting retry) on a prompt
        holding the captions of the session's selected frames.

        Returns (prediction, confidence, missing_info, prompt_digest). An
        unparseable reply after the retry degrades to (0, 1, "unparseable
        reply") so the loop can keep moving.
        """
        summaries = graph.summarize(query, self.cfg.prompt_char_budget)
        captions = {f: self.frames.captions[f][0] for f in session.selected_frames}
        prompt = render_prompt(self.cfg.prompt_template, session.question, session.options,
                               captions, summaries)
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()

        reply = self.gateway.chat([("user", prompt)])
        parsed = parse_reply(reply, len(session.options))
        if parsed is None:
            logger.warning("unparseable reply, sending formatting reminder")
            retry = self.gateway.chat(
                [("user", prompt), ("assistant", reply), ("user", _RETRY_REMINDER)]
            )
            parsed = parse_reply(retry, len(session.options))
        if parsed is None:
            logger.warning("reply unparseable after retry; degrading to low confidence")
            return 0, 1, "unparseable reply", digest
        prediction, confidence, missing = parsed
        return prediction, confidence, missing, digest

    # -- retrieval --------------------------------------------------------------

    def _fetch(self, captions: Sequence[int], embeds: Sequence[int],
               question: Optional[str] = None) -> Optional[GatewayError]:
        """Caption the `captions` and embed the `embeds` the table lacks in one
        fan-out, with the `question` at its head while the session has no
        `query_embedding`, and store every success, parsing each new caption
        once. Returns the first caption failure in `captions` order, or None."""
        table, embedder = self.frames, self.gateway.has_embedder
        caption = [f for f in captions if f not in table.captions]
        embed = [f for f in embeds if embedder and f not in table.embeddings]
        ask = question is not None and embedder and self.query_embedding is None
        head = [("embed", question)] if ask else []
        results = self.gateway.gather(
            head + [("caption", f) for f in caption] + [("embed", f) for f in embed],
            self.bundle,
        )
        if head and not isinstance(results[0], GatewayError):
            self.query_embedding = results[0]
        texts = results[len(head):len(head) + len(caption)]
        for frame, text in zip(caption, texts):
            if not isinstance(text, GatewayError) and frame not in table.captions:
                table.captions.setdefault(frame, (text, parse_caption(text, frame, self.lexicon)))
        for frame, vector in zip(embed, results[len(head) + len(caption):]):
            if not isinstance(vector, GatewayError):
                table.embeddings.setdefault(frame, vector)
        return next((text for text in texts if isinstance(text, GatewayError)), None)

    def _retrieve(self, session: AgentSession, graph: VideoGraph,
                  query: Optional[QueryParse], expanded: bool) -> list[int]:
        windows = identify_segments(
            graph, query, self.bundle.total_frames, self.cfg.selector, expanded
        )
        pool = candidate_frames(windows, session.selected_frames)
        pool = [f for f in pool if self.gateway.can_caption(f, self.bundle)]
        self._fetch((), pool, session.question if pool else None)
        return select_frames(
            [(f, self.frames.embeddings.get(f)) for f in pool],
            graph, query, session.selected_frames,
            self.bundle.total_frames, self.cfg.selector, expanded, self.query_embedding,
        )

    def _ingest(self, frames: Sequence[int]) -> list[tuple[CaptionParse, Optional[Embedding]]]:
        """Fetch what the table lacks of `frames`, and return each frame's
        parse and embedding (None if it has none), in the order of `frames`,
        for the graph. Raises the first caption failure, in frame order."""
        failure = self._fetch(frames, frames)
        if failure is not None:
            raise failure
        return [(self.frames.captions[f][1], self.frames.embeddings.get(f)) for f in frames]

    # -- the loop ----------------------------------------------------------------

    def run_round(self, session: AgentSession, graph: VideoGraph,
                  query: Optional[QueryParse]) -> None:
        """Evaluate, gate, and either answer or retrieve-and-update. A
        gateway failure ends the session at the round limit with the latest
        prediction."""
        if session.terminated:
            raise ValueError("session already terminated")
        round_number = len(session.rounds) + 1
        digest = ""
        try:
            prediction, confidence, missing, digest = self.evaluate_state(session, graph, query)
            action = decide_action(confidence, round_number, self.cfg)
            frames_added: list[int] = []
            if action is AgentAction.ANSWER:
                ends = (Termination.CONFIDENT if confidence >= self.cfg.confidence_threshold
                        else Termination.ROUND_LIMIT)
            else:
                frames_added = self._retrieve(
                    session, graph, query, action is AgentAction.RETRIEVE_EXPANDED
                )
                if frames_added:
                    graph.update_graph(self._ingest(frames_added))
                    session.add_frames(frames_added)
                ends = None if frames_added else Termination.EXHAUSTED
        except GatewayError as exc:
            logger.error("gateway failure in round %d: %s", round_number, exc)
            prediction, confidence = session.latest_prediction(), 1
            missing, frames_added, ends = f"gateway failure: {exc}", [], Termination.ROUND_LIMIT
        session.rounds.append(RoundLog(round_number, frames_added, prediction, confidence,
                                       missing, digest))
        if ends is not None:
            session.final_answer, session.terminated_by = prediction, ends
        session.final_graph_version = graph.version

    def run(self, question: str, options: Sequence[str]) -> tuple[AgentSession, VideoGraph]:
        """Run a full session on a view of the gateway that counts scripted
        chat calls from 1; returns the transcript and the final graph."""
        session = AgentSession(
            video_id=self.bundle.video_id,
            question=question,
            options=list(options),
        )
        self.gateway = self.gateway.for_session()
        self.query_embedding = None
        query = parse_question(question, options, self.lexicon)
        initial = uniform_sample(self.bundle.total_frames, self.cfg.initial_frames)
        initial = [f for f in initial if self.gateway.can_caption(f, self.bundle)]
        if not initial:
            available = sorted(
                f for f in self.bundle.captions if 0 <= f < self.bundle.total_frames
            )
            initial = available[: self.cfg.initial_frames]
        if not initial:
            raise GatewayError(
                f"bundle {self.bundle.video_id!r} has no captionable frames"
            )
        graph = VideoGraph(config=self.cfg.graph).update_graph(self._ingest(initial))
        session.add_frames(initial)

        while not session.terminated:
            self.run_round(session, graph, query)
        return session, graph
