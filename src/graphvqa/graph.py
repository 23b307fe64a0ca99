"""Dynamic entity-relation graph memory.

Nodes track one visual entity each: appearance frames, a running-mean feature
vector, and a state history. Edges are typed predicates
(Spatial / Interaction / Action) between two entities, with the frames at
which each relation was observed. The graph is append-only: updates add
frames, nodes, edges, and state events, and bump a monotone version counter.

Entity identity across frames is resolved lemma-first (exact canonical lemma
or previously merged alias), then by embedding similarity: a new lemma whose
embedding has cosine similarity >= merge_similarity with an existing node of
a compatible type merges into the most similar such node.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DimensionError
from .parsing import CaptionParse, EntityType, Mention, QueryParse, RelationCategory

NEUTRAL_STATE = "neutral"


@dataclass
class GraphConfig:
    """Coreference-merge threshold."""

    merge_similarity: float = 0.85

    def __post_init__(self):
        if not -1.0 <= self.merge_similarity <= 1.0:
            raise ValueError(
                f"merge_similarity is a cosine and must be in [-1, 1], got {self.merge_similarity}"
            )


@dataclass
class FrameRecord:
    """One ingested frame: index and optional embedding."""

    frame_index: int
    embedding: Optional[list[float]] = None


@dataclass
class EntityNode:
    """One tracked entity and its per-frame evidence."""

    id: int
    canonical_lemma: str
    entity_type: EntityType
    frame_indices: list[int] = field(default_factory=list)
    feature: Optional[list[float]] = None
    feature_count: int = 0
    state_history: list[tuple[int, str]] = field(default_factory=list)
    aliases: list[str] = field(default_factory=list)

    def effective_state(self, frame: int) -> str:
        """Most recent state label at or before `frame`; defaults to neutral."""
        label = NEUTRAL_STATE
        for event_frame, event_label in self.state_history:
            if event_frame > frame:
                break
            label = event_label
        return label


@dataclass
class RelationEdge:
    """A typed predicate between two entities, with observation frames."""

    id: int
    src: int
    dst: int
    category: RelationCategory
    predicate: str
    frame_indices: list[int] = field(default_factory=list)


def vector_norm(v: Sequence[float]) -> float:
    """Euclidean norm, summed in index order."""
    return math.sqrt(sum(x * x for x in v))


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise DimensionError(f"cannot compare vectors of dims {len(a)} and {len(b)}")
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = vector_norm(a)
    norm_b = vector_norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


@dataclass
class VideoGraph:
    """The evolving graph; single writer at a time, any number of readers."""

    config: GraphConfig = field(default_factory=GraphConfig)
    nodes: dict[int, EntityNode] = field(default_factory=dict)
    edges: dict[int, RelationEdge] = field(default_factory=dict)
    processed_frames: list[int] = field(default_factory=list)
    version: int = 0

    def __post_init__(self):
        self._rebuild_indexes()

    def _rebuild_indexes(self):
        self._lemma_index: dict[str, int] = {}
        for node in self.nodes.values():
            self._lemma_index[node.canonical_lemma] = node.id
            for alias in node.aliases:
                self._lemma_index[alias] = node.id
        self._edge_index: dict[tuple[int, str, int], int] = {
            (e.src, e.predicate, e.dst): e.id for e in self.edges.values()
        }
        self._frame_set = set(self.processed_frames)

    # -- lookups ------------------------------------------------------------

    def node_for_lemma(self, lemma: str) -> Optional[EntityNode]:
        node_id = self._lemma_index.get(lemma.lower())
        return self.nodes[node_id] if node_id is not None else None

    # -- mutation -----------------------------------------------------------

    def _embedding_dim(self) -> Optional[int]:
        for node in self.nodes.values():
            if node.feature is not None:
                return len(node.feature)
        return None

    def upsert_entity(
        self,
        mention: Mention,
        frame: int,
        embedding: Optional[Sequence[float]] = None,
    ) -> int:
        """Insert or merge one mention observation; returns the node id.

        Lemma match merges first; otherwise a sufficiently similar embedding
        merges into the closest type-compatible node; otherwise a new node is
        created. Re-upserting an already-recorded (lemma, frame) pair is a
        no-op, so replays cannot skew the feature mean.
        """
        if embedding is not None:
            known_dim = self._embedding_dim()
            if known_dim is not None and len(embedding) != known_dim:
                raise DimensionError(
                    f"embedding dim {len(embedding)} does not match graph dim {known_dim}"
                )

        lemma = mention.lemma.lower()
        node = self.node_for_lemma(lemma)
        if node is None and embedding is not None:
            node = self._most_similar_node(embedding, mention.entity_type, frame)
            if node is not None:
                node.aliases.append(lemma)
                self._lemma_index[lemma] = node.id

        if node is None:
            node = EntityNode(
                id=self._next_node_id(),
                canonical_lemma=lemma,
                entity_type=mention.entity_type,
                )
            self.nodes[node.id] = node
            self._lemma_index[lemma] = node.id
        elif frame in node.frame_indices:
            return node.id

        bisect.insort(node.frame_indices, frame)
        if embedding is not None:
            vector = [float(x) for x in embedding]
            if node.feature is None:
                node.feature = vector
                node.feature_count = 1
            else:
                count = node.feature_count
                node.feature = [
                    (old * count + new) / (count + 1)
                    for old, new in zip(node.feature, vector)
                ]
                node.feature_count = count + 1
        return node.id

    def _most_similar_node(self, embedding, entity_type, frame) -> Optional[EntityNode]:
        """Best merge target at or above the similarity threshold.

        Nodes already observed at `frame` are never candidates: mentions that
        co-occur in one caption are distinct entities, and they share the
        frame's embedding (which would always clear the threshold).
        """
        best: Optional[EntityNode] = None
        best_sim = -1.0
        for node in self.nodes.values():
            if node.feature is None or frame in node.frame_indices:
                continue
            compatible = (
                node.entity_type == entity_type
                or EntityType.UNKNOWN in (node.entity_type, entity_type)
            )
            if not compatible:
                continue
            sim = cosine_similarity(embedding, node.feature)
            if sim >= self.config.merge_similarity and sim > best_sim:
                best, best_sim = node, sim
        return best

    def _next_node_id(self) -> int:
        return max(self.nodes, default=-1) + 1

    def _next_edge_id(self) -> int:
        return max(self.edges, default=-1) + 1

    def _record_triple(self, subject_id: int, predicate: str, object_id: int,
                       category: RelationCategory, frame: int):
        key = (subject_id, predicate, object_id)
        edge_id = self._edge_index.get(key)
        if edge_id is None:
            edge = RelationEdge(
                id=self._next_edge_id(),
                src=subject_id,
                dst=object_id,
                category=category,
                predicate=predicate,
                frame_indices=[frame],
            )
            self.edges[edge.id] = edge
            self._edge_index[key] = edge.id
        else:
            edge = self.edges[edge_id]
            if frame not in edge.frame_indices:
                bisect.insort(edge.frame_indices, frame)

    def _record_state(self, node_id: int, frame: int, label: str):
        node = self.nodes[node_id]
        pair = (frame, label)
        if pair in node.state_history:
            return
        position = bisect.bisect_right([f for f, _ in node.state_history], frame)
        node.state_history.insert(position, pair)

    def update_graph(self, new_records: Sequence[FrameRecord],
                     parses: Sequence[CaptionParse]) -> "VideoGraph":
        """Integrate a batch of new frames; exactly one version increment.

        Records and parses must correspond one-to-one and reference frames not
        yet processed; violations reject the whole batch with the graph
        unchanged. Batches are applied in frame order, so permuting the input
        yields a structurally identical graph.
        """
        if len(new_records) != len(parses):
            raise ValueError(
                f"got {len(new_records)} records but {len(parses)} parses"
            )
        for record, parse in zip(new_records, parses):
            if record.frame_index != parse.frame_index:
                raise ValueError(
                    f"record frame {record.frame_index} does not match parse frame {parse.frame_index}"
                )
        frames = [r.frame_index for r in new_records]
        if len(set(frames)) != len(frames):
            raise ValueError("duplicate frame indices within one update batch")
        already = sorted(self._frame_set.intersection(frames))
        if already:
            raise ValueError(f"frames already processed: {already}")

        for record, parse in sorted(zip(new_records, parses), key=lambda rp: rp[0].frame_index):
            frame = record.frame_index
            bisect.insort(self.processed_frames, frame)
            self._frame_set.add(frame)
            ids: dict[str, int] = {}
            for mention in parse.mentions:
                ids[mention.lemma] = self.upsert_entity(mention, frame, embedding=record.embedding)
            for triple in parse.triples:
                self._record_triple(
                    ids[triple.subject.lemma], triple.predicate,
                    ids[triple.object.lemma], triple.category, frame,
                )
            for mention, label in parse.state_events:
                self._record_state(ids[mention.lemma], frame, label)
        self.version += 1
        return self

    # -- prompt-ready summaries ----------------------------------------------

    def summarize(self, query: Optional[QueryParse], char_budget: int) -> tuple[str, str, str]:
        """Render (entity_summary, relation_summary, temporal_summary).

        Entities sort by query overlap, then appearance count, then lemma.
        Total length stays within char_budget by dropping the lowest-ranked
        lines first, never cutting mid-line.
        """
        if char_budget < 256:
            raise ValueError(f"char_budget must be >= 256, got {char_budget}")
        placeholders = (
            "(no entities tracked yet)",
            "(no relations observed yet)",
            "(no state changes recorded yet)",
        )
        if not self.nodes:
            return placeholders

        query_lemmas = {m.lemma for m in query.entities} if query else set()

        def node_overlap(node: EntityNode) -> int:
            names = {node.canonical_lemma, *node.aliases}
            return 1 if names & query_lemmas else 0

        ranked_nodes = sorted(
            self.nodes.values(),
            key=lambda n: (-node_overlap(n), -len(n.frame_indices), n.canonical_lemma),
        )
        entity_lines = []
        for node in ranked_nodes:
            state = node.effective_state(self.processed_frames[-1]) if self.processed_frames else NEUTRAL_STATE
            entity_lines.append(
                f"{node.canonical_lemma} ({node.entity_type.value}) frames {node.frame_indices}"
                + (f", state: {state}" if state != NEUTRAL_STATE else "")
            )

        def edge_overlap(edge: RelationEdge) -> int:
            return max(node_overlap(self.nodes[edge.src]), node_overlap(self.nodes[edge.dst]))

        ranked_edges = sorted(
            self.edges.values(),
            key=lambda e: (
                -edge_overlap(e),
                -len(e.frame_indices),
                self.nodes[e.src].canonical_lemma,
                e.predicate,
                self.nodes[e.dst].canonical_lemma,
            ),
        )
        relation_lines = [
            f"{self.nodes[e.src].canonical_lemma} —{e.predicate}→ "
            f"{self.nodes[e.dst].canonical_lemma} @ frames {e.frame_indices}"
            for e in ranked_edges
        ]

        temporal_lines = []
        for node in ranked_nodes:
            if not node.state_history:
                continue
            first_frame = node.frame_indices[0]
            trail = [(first_frame, NEUTRAL_STATE)] if node.state_history[0][0] > first_frame else []
            trail.extend(node.state_history)
            steps = " → ".join(f"{label}@{frame}" for frame, label in trail)
            temporal_lines.append(f"{node.canonical_lemma}: {steps}")

        sections = [entity_lines, relation_lines, temporal_lines]
        # Global rank interleaves sections so each keeps its top lines; the
        # worst-ranked line goes first when the budget is tight.
        def total_length() -> int:
            return sum(len(self._render_section(lines, placeholder))
                       for lines, placeholder in zip(sections, placeholders))

        while total_length() > char_budget:
            worst = max(
                ((len(lines) - 1, si) for si, lines in enumerate(sections) if lines),
                default=None,
            )
            if worst is None:
                break
            sections[worst[1]].pop()

        return tuple(
            self._render_section(lines, placeholder)
            for lines, placeholder in zip(sections, placeholders)
        )

    @staticmethod
    def _render_section(lines: list[str], placeholder: str) -> str:
        return "\n".join(lines) if lines else placeholder
