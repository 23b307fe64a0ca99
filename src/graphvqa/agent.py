"""The iterative predict / self-reflect / retrieve loop.

A session starts from a uniform sample of N frames whose captions seed the
graph. Each round the model sees the question, options, all selected frame
captions, and the graph's three summaries, and must reply with an answer,
a confidence in {1, 2, 3}, and what is still missing. Confidence at or above
the threshold answers immediately; otherwise the selector retrieves up to k
new frames from graph-derived segments (the second-to-last permitted round
widens to the whole video with a doubled decay length). The loop is bounded
by max_rounds, at which point the latest prediction is forced out.

With a deterministic gateway the whole transcript is reproducible
byte-for-byte.
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

from .errors import GatewayError
from .gateway import ModelGateway
from .graph import FrameRecord, GraphConfig, VideoGraph
from .parsing import Lexicon, QueryParse, default_lexicon, parse_caption, parse_question
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

    def __post_init__(self):
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
        if self.prompt_template_path:
            if not Path(self.prompt_template_path).is_file():
                raise ValueError(
                    f"prompt_template_path {self.prompt_template_path!r} is not a file"
                )
            load_prompt_template(self.prompt_template_path)  # checks its placeholders


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
    distinct instances may run in parallel against a shared gateway."""

    def __init__(self, bundle: VideoBundle, gateway: ModelGateway,
                 cfg: Optional[AgentConfig] = None, lexicon: Optional[Lexicon] = None):
        self.bundle = bundle
        self.gateway = gateway
        self.cfg = cfg or AgentConfig()
        self.lexicon = lexicon or default_lexicon()
        self.template = load_prompt_template(self.cfg.prompt_template_path)
        # Frame embeddings of the current session. Only successes are kept,
        # so a failed embed is tried again; the vectors are never mutated.
        self._frame_embeddings: dict[int, list[float]] = {}

    # -- state evaluation -----------------------------------------------------

    def evaluate_state(self, session: AgentSession, graph: VideoGraph,
                       query: Optional[QueryParse],
                       captions: dict[int, str]) -> tuple[int, int, str, str]:
        """One model call (plus at most one formatting retry).

        Returns (prediction, confidence, missing_info, prompt_digest). An
        unparseable reply after the retry degrades to (0, 1, "unparseable
        reply") so the loop can keep moving.
        """
        summaries = graph.summarize(query, self.cfg.prompt_char_budget)
        prompt = render_prompt(self.template, session.question, session.options,
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

    def _frame_embedding(self, frame: int) -> Optional[list[float]]:
        if not self.gateway.has_embedder:
            return None
        vector = self._frame_embeddings.get(frame)
        if vector is None:
            try:
                vector = self.gateway.embed(frame, self.bundle)
            except GatewayError:
                return None
            self._frame_embeddings[frame] = vector
        return vector

    def _retrieve(self, session: AgentSession, graph: VideoGraph,
                  query: Optional[QueryParse], expanded: bool,
                  query_embedding: Optional[list[float]]) -> list[int]:
        windows = identify_segments(
            graph, query, self.bundle.total_frames, self.cfg.selector, expanded
        )
        pool = candidate_frames(windows, session.selected_frames)
        pool = [f for f in pool if self.gateway.can_caption(f, self.bundle)]
        candidates = [(f, self._frame_embedding(f)) for f in pool]
        return select_frames(
            candidates, graph, query, session.selected_frames,
            self.bundle.total_frames, self.cfg.selector, expanded, query_embedding,
        )

    def _ingest(self, graph: VideoGraph, frames: Sequence[int],
                captions: dict[int, str]) -> None:
        records, parses = [], []
        for frame in frames:
            text = self.gateway.caption(frame, self.bundle)
            captions[frame] = text
            records.append(FrameRecord(frame, self._frame_embedding(frame)))
            parses.append(parse_caption(text, frame, self.lexicon))
        graph.update_graph(records, parses)

    # -- the loop ----------------------------------------------------------------

    def run_round(self, session: AgentSession, graph: VideoGraph,
                  query: Optional[QueryParse], captions: dict[int, str],
                  query_embedding: Optional[list[float]]) -> None:
        """Evaluate, gate, and either answer or retrieve-and-update."""
        if session.terminated:
            raise ValueError("session already terminated")
        round_number = len(session.rounds) + 1
        digest = ""
        try:
            prediction, confidence, missing, digest = self.evaluate_state(
                session, graph, query, captions
            )
            action = decide_action(confidence, round_number, self.cfg)
            frames_added: list[int] = []
            if action is not AgentAction.ANSWER:
                frames_added = self._retrieve(
                    session, graph, query, action is AgentAction.RETRIEVE_EXPANDED,
                    query_embedding,
                )
                if frames_added:
                    self._ingest(graph, frames_added, captions)
                    session.add_frames(frames_added)
            session.rounds.append(RoundLog(
                round=round_number,
                frames_added=frames_added,
                prediction=prediction,
                confidence=confidence,
                missing_info=missing,
                prompt_digest=digest,
            ))
            if action is AgentAction.ANSWER:
                session.final_answer = prediction
                session.terminated_by = (
                    Termination.CONFIDENT
                    if confidence >= self.cfg.confidence_threshold
                    else Termination.ROUND_LIMIT
                )
            elif not frames_added:
                session.final_answer = prediction
                session.terminated_by = Termination.EXHAUSTED
        except GatewayError as exc:
            logger.error("gateway failure in round %d: %s", round_number, exc)
            session.rounds.append(RoundLog(
                round=round_number,
                frames_added=[],
                prediction=session.latest_prediction(),
                confidence=1,
                missing_info=f"gateway failure: {exc}",
                prompt_digest=digest,
            ))
            session.final_answer = session.latest_prediction()
            session.terminated_by = Termination.ROUND_LIMIT
        session.final_graph_version = graph.version

    def run(self, question: str, options: Sequence[str]) -> tuple[AgentSession, VideoGraph]:
        """Run a full session; returns the transcript and the final graph."""
        session = AgentSession(
            video_id=self.bundle.video_id,
            question=question,
            options=list(options),
        )
        graph = VideoGraph(config=self.cfg.graph)
        self._frame_embeddings = {}
        query = parse_question(question, options, self.lexicon)
        query_embedding = None
        if self.gateway.has_embedder:
            try:
                query_embedding = self.gateway.embed(question, self.bundle)
            except GatewayError:
                query_embedding = None

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
        captions: dict[int, str] = {}
        self._ingest(graph, initial, captions)
        session.add_frames(initial)
        session.final_graph_version = graph.version

        while not session.terminated:
            self.run_round(session, graph, query, captions, query_embedding)
        return session, graph
