"""Dynamic entity-relation graph memory.

Nodes track one visual entity each: appearance frames, a running-mean feature
vector, and a state history. A node folds the embeddings merged into its
feature only when the feature is read (a similarity merge, saving the
graph), so a feature that nothing reads is never computed. Edges are typed
predicates (Spatial / Interaction / Action) between two entities, with the
frames at which each relation was observed. The graph is append-only:
updates add frames, nodes, edges, and state events, and bump a monotone
version counter.

Entity identity across frames is resolved lemma-first (exact canonical lemma
or previously merged alias), then by embedding similarity: a new lemma whose
embedding has cosine similarity >= merge_similarity with an existing node of
the same type merges into the most similar such node.

`VideoGraph.summarize` writes one line per entity, relation and state
trail, in one form at any budget: a list longer than `LIST_LIMIT` keeps
only its ends and its count. The budget picks which whole lines show.

Every vector is an `Embedding`, made once where it enters the program and
shared from then on: it never changes, and it computes its norm at most once.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import add, itemgetter, mul, truediv
from typing import Optional, Sequence

from .errors import DimensionError, check_field_types
from .parsing import CaptionParse, EntityType, Mention, QueryParse, RelationCategory

NEUTRAL_STATE = "neutral"
# A frame list or state trail of more than this many items prints as its
# first two, `…` and its last; no session graph lists as many frames.
LIST_LIMIT = 100
# What each summary section lists, and what it says when the graph has none.
_SECTIONS = (("entities", "(no entities tracked yet)"), ("relations", "(no relations observed yet)"),
             ("state trails", "(no state changes recorded yet)"))


@dataclass
class GraphConfig:
    """Coreference-merge threshold."""

    merge_similarity: float = 0.85

    def __post_init__(self):
        check_field_types(self, ValueError)
        if not -1.0 <= self.merge_similarity <= 1.0:
            raise ValueError(
                f"merge_similarity is a cosine and must be in [-1, 1], got {self.merge_similarity}"
            )


class Embedding(tuple):
    """An embedding vector: an immutable tuple of floats whose `norm` (its
    `vector_norm`) is computed on first use and then kept. Since it never
    changes, bundles, frame tables and graph nodes share one."""

    @cached_property
    def norm(self) -> float:
        return vector_norm(self)


@dataclass
class EntityNode:
    """One tracked entity and its per-frame evidence.

    `feature` is the running mean of the embeddings of the frames the
    entity appears in, of which there are `feature_count`. `merge` keeps
    each embedding by reference, and a read of `feature` first folds the
    kept ones in, in merge order, each as ``(old * count + new) / (count +
    1)`` elementwise, so a feature and a saved graph are bit-identical to
    an eager running mean. A read that folds writes the node, so threads
    must not read one graph at once. Setting `feature` drops the embeddings
    not yet folded; nodes and frames may share one `Embedding`."""

    id: int
    canonical_lemma: str
    entity_type: EntityType
    frame_indices: list[int] = field(default_factory=list)
    feature: Optional[Embedding] = None
    feature_count: int = 0
    state_history: list[tuple[int, str]] = field(default_factory=list)
    aliases: list[str] = field(default_factory=list)

    def merge(self, embedding: Embedding) -> None:
        """Count `embedding` into the feature; the first becomes it."""
        if self._feature is None:
            self._feature, self.feature_count = embedding, 1
        else:
            self._pending.append(embedding)
            self.feature_count += 1

    def effective_state(self, frame: int) -> str:
        """Most recent state label at or before `frame`; defaults to neutral."""
        label = NEUTRAL_STATE
        for event_frame, event_label in self.state_history:
            if event_frame > frame:
                break
            label = event_label
        return label


def _folded_feature(node: EntityNode) -> Optional[Embedding]:
    if node._pending:
        # Python turns an int operand into the same float, so passing the
        # counts as floats is exact, and faster.
        count = float(node.feature_count - len(node._pending))
        feature = node._feature
        for embedding in node._pending:
            feature = [*map(truediv, map(add, map(mul, feature, repeat(count)), embedding),
                            repeat(count + 1.0))]
            count += 1.0
        node._feature, node._pending = Embedding(feature), []
    return node._feature


def _set_feature(node: EntityNode, feature: Optional[Embedding]) -> None:
    node._feature, node._pending = feature, []


# A property set after the dataclass is made, so `feature` stays a field
# (an `__init__` argument, compared and saved) whose every read folds.
EntityNode.feature = property(_folded_feature, _set_feature,
                              doc="The running mean of the merged embeddings, folded on read.")


@dataclass
class RelationEdge:
    """A typed predicate between two entities, with observation frames."""

    id: int
    src: int
    dst: int
    category: RelationCategory
    predicate: str
    frame_indices: list[int] = field(default_factory=list)


def _holds(ordered: Sequence[int], x: int) -> bool:
    """Whether the ascending list `ordered` contains `x`."""
    i = bisect.bisect_left(ordered, x)
    return i < len(ordered) and ordered[i] == x


def vector_norm(v: Sequence[float]) -> float:
    """Euclidean norm, summed in index order."""
    return math.sqrt(sum(map(mul, v, v)))


def all_finite(v: Sequence[float]) -> bool:
    """Whether every value is finite (checking the sum first is 5x faster)."""
    return math.isfinite(sum(v)) or all(map(math.isfinite, v))


def json_vector(value) -> Optional[Embedding]:
    """`value`, decoded JSON, as an `Embedding` of floats if it is a vector: a
    nonempty array of JSON numbers (no bools or strings), all finite; else None."""
    if not (isinstance(value, list) and value and {*map(type, value)} <= {int, float}):
        return None
    try:
        vector = Embedding(map(float, value))
    except OverflowError:  # an integer beyond the largest double
        return None
    return vector if all_finite(vector) else None


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    """Cosine of two vectors; 0 when either is a zero vector."""
    if len(a) != len(b):
        raise DimensionError(f"cannot compare vectors of dims {len(a)} and {len(b)}")
    dot = sum(map(mul, a, b))
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    return dot / (a.norm * b.norm)


@dataclass
class VideoGraph:
    """The evolving graph; one thread at a time, since reading a node's
    feature may fold it (see `EntityNode`)."""

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
        self._node_ids = itertools.count(max(self.nodes, default=-1) + 1)
        self._edge_ids = itertools.count(max(self.edges, default=-1) + 1)

    # -- lookups ------------------------------------------------------------

    def node_for_lemma(self, lemma: str) -> Optional[EntityNode]:
        node_id = self._lemma_index.get(lemma.lower())
        return self.nodes[node_id] if node_id is not None else None

    # -- mutation -----------------------------------------------------------

    def _check_dim(self, embedding: Embedding) -> None:
        """Raise DimensionError unless `embedding` has the graph's feature
        dim, which a node's first embedding gives without a fold."""
        for node in self.nodes.values():
            if node._feature is not None:
                if len(embedding) != len(node._feature):
                    raise DimensionError(
                        f"embedding dim {len(embedding)} does not match graph dim "
                        f"{len(node._feature)}"
                    )
                return

    def upsert_entity(
        self,
        mention: Mention,
        frame: int,
        embedding: Optional[Embedding] = None,
    ) -> int:
        """Insert or merge one mention observation; returns the node id.

        Lemma match merges first; otherwise a sufficiently similar embedding
        merges into the closest node of the same type; otherwise a new node is
        created. Re-upserting an already-recorded (lemma, frame) pair is a
        no-op, so replays cannot skew the feature mean.
        """
        if embedding is not None:
            self._check_dim(embedding)
        lemma = mention.lemma.lower()
        node = self.node_for_lemma(lemma)
        if node is None and embedding is not None:
            node = self._most_similar_node(embedding, mention.entity_type, frame)
            if node is not None:
                node.aliases.append(lemma)
                self._lemma_index[lemma] = node.id

        if node is None:
            node = EntityNode(
                id=next(self._node_ids),
                canonical_lemma=lemma,
                entity_type=mention.entity_type,
            )
            self.nodes[node.id] = node
            self._lemma_index[lemma] = node.id
        elif _holds(node.frame_indices, frame):
            return node.id

        bisect.insort(node.frame_indices, frame)
        if embedding is not None:
            node.merge(embedding)
        return node.id

    def _most_similar_node(self, embedding: Embedding, entity_type: EntityType,
                           frame: int) -> Optional[EntityNode]:
        """Best merge target at or above the similarity threshold.

        Nodes already observed at `frame` are never candidates: mentions that
        co-occur in one caption are distinct entities, and they share the
        frame's embedding (which would always clear the threshold).
        """
        best: Optional[EntityNode] = None
        best_sim = -1.0
        for node in self.nodes.values():
            # The feature is read (and so folded) last, only for a candidate.
            if (node.entity_type != entity_type or _holds(node.frame_indices, frame)
                    or node.feature is None):
                continue
            sim = cosine_similarity(embedding, node.feature)
            if sim >= self.config.merge_similarity and sim > best_sim:
                best, best_sim = node, sim
        return best

    def _record_triple(self, subject_id: int, predicate: str, object_id: int,
                       category: RelationCategory, frame: int):
        key = (subject_id, predicate, object_id)
        edge_id = self._edge_index.get(key)
        if edge_id is None:
            edge = RelationEdge(
                id=next(self._edge_ids),
                src=subject_id,
                dst=object_id,
                category=category,
                predicate=predicate,
                frame_indices=[frame],
            )
            self.edges[edge.id] = edge
            self._edge_index[key] = edge.id
        else:
            frames = self.edges[edge_id].frame_indices
            if not _holds(frames, frame):
                bisect.insort(frames, frame)

    def _record_state(self, node_id: int, frame: int, label: str):
        history = self.nodes[node_id].state_history
        start = bisect.bisect_left(history, frame, key=itemgetter(0))
        end = bisect.bisect_right(history, frame, lo=start, key=itemgetter(0))
        if (frame, label) not in history[start:end]:
            history.insert(end, (frame, label))

    def update_graph(self, frames: Sequence[tuple[CaptionParse, Optional[Embedding]]],
                     ) -> "VideoGraph":
        """Integrate a batch of new frames, each a caption parse with its
        frame's embedding (or None); exactly one version increment.

        The batch must name each frame once, and none already processed; a
        violation rejects the whole batch with the graph unchanged. Frames are
        applied in frame order, so permuting the input yields a structurally
        identical graph.
        """
        batch = sorted(frames, key=lambda pair: pair[0].frame_index)
        indices = [parse.frame_index for parse, _ in batch]
        if any(a == b for a, b in zip(indices, indices[1:])):
            raise ValueError("duplicate frame indices within one update batch")
        already = [f for f in indices if _holds(self.processed_frames, f)]
        if already:
            raise ValueError(f"frames already processed: {already}")

        for parse, embedding in batch:
            frame = parse.frame_index
            bisect.insort(self.processed_frames, frame)
            ids: dict[str, int] = {}
            for mention in parse.mentions:
                ids[mention.lemma] = self.upsert_entity(mention, frame, embedding)
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

        Entities sort by query overlap, then appearance count, then lemma;
        relations and state trails follow the same ranks. A state trail
        shows a step only where the label differs from the step before. A
        line's text does not depend on the budget: a frame list or state
        trail of more than LIST_LIMIT items shows its first two, `…`, its
        last and its count.
        The budget only picks whole lines, dropping the worst-ranked first,
        so a larger budget shows a superset of the lines. A section whose
        lines all dropped says how many it left out; a "(no … yet)" line
        means the graph holds nothing of that kind.
        """
        if char_budget < 256:
            raise ValueError(f"char_budget must be >= 256, got {char_budget}")
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
            suffix = f", state: {state}" if state != NEUTRAL_STATE else ""
            entity_lines.append(f"{node.canonical_lemma} ({node.entity_type.value}) frames "
                                f"{_frame_list(node.frame_indices)}{suffix}")

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
            f"{self.nodes[e.dst].canonical_lemma} @ frames {_frame_list(e.frame_indices)}"
            for e in ranked_edges
        ]

        temporal_lines = []
        for node in ranked_nodes:
            if not node.state_history:
                continue
            first_frame = node.frame_indices[0]
            trail = [(first_frame, NEUTRAL_STATE)] if node.state_history[0][0] > first_frame else []
            for step in node.state_history:
                if not trail or step[1] != trail[-1][1]:
                    trail.append(step)
            temporal_lines.append(f"{node.canonical_lemma}: {_steps(trail)}")

        sections = [entity_lines, relation_lines, temporal_lines]
        empty = [f"({kind} left out: {len(lines)})" if lines else none
                 for lines, (kind, none) in zip(sections, _SECTIONS)]
        total = sum(len("\n".join(lines) or text) for lines, text in zip(sections, empty))
        # Global rank interleaves sections so each keeps its top lines; the
        # worst-ranked line goes first when the budget is tight. With every
        # line dropped only the three short `empty` texts remain, which fit
        # any budget, so some line remains to drop while the total is over.
        while total > char_budget:
            _, si = max((len(lines) - 1, si) for si, lines in enumerate(sections) if lines)
            lines = sections[si]
            line = lines.pop()
            total -= len(line) + 1 if lines else len(line) - len(empty[si])

        return tuple("\n".join(lines) or text for lines, text in zip(sections, empty))


def _frame_list(frames: list[int]) -> str:
    """`frames`, or beyond LIST_LIMIT of them their ends and their count."""
    if len(frames) <= LIST_LIMIT:
        return f"{frames}"
    return f"[{frames[0]}, {frames[1]}, …, {frames[-1]}] ({len(frames)} sightings)"


def _steps(trail: list[tuple[int, str]]) -> str:
    """(frame, label) steps as `label@frame → …`, or beyond LIST_LIMIT of them
    their ends and their count."""
    if len(trail) <= LIST_LIMIT:
        return " → ".join(f"{label}@{frame}" for frame, label in trail)
    (f0, l0), (f1, l1), (fn, ln) = trail[0], trail[1], trail[-1]
    return f"{l0}@{f0} → {l1}@{f1} → … → {ln}@{fn} ({len(trail)} steps)"
