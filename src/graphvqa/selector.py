"""Candidate-frame scoring and retrieval.

`select_frames` scores and ranks each round's candidates on three raw signals:

- graph score (`graph_score_raw`): sum over query entities of exp(-d / L),
  where d is the distance to the entity's nearest appearance frame and L
  the decay length (times expanded_decay_multiplier in expanded mode).
  Entities absent from the graph contribute 0.
- visual score (`visual_score_raw`): cosine similarity between the frame
  embedding and the query embedding, mapped to [0, 1] via (1 + cos) / 2;
  degenerate vectors score a neutral 0.5. Both are `graph.Embedding`s, so
  each vector's norm is computed once however many rounds and sessions
  score it.
- temporal score (`temporal_score_raw`): coverage of unexplored gaps
  between already-selected frames, peaking at gap centers.

Raw components are min-max normalized across the current round's candidates
(`normalize_scores`), then combined as the weighted sum weight_graph * graph
+ weight_visual * visual + weight_temporal * temporal. The top k win; ties
break toward the lower frame index.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import check_field_types
from .graph import Embedding, VideoGraph, cosine_similarity
from .parsing import QueryParse

Candidate = tuple[int, Optional[Embedding]]


@dataclass
class SelectorConfig:
    """Scoring weights and retrieval sizing."""

    weight_graph: float = 0.5
    weight_visual: float = 0.3
    weight_temporal: float = 0.2
    k: int = 3
    decay_len: int = 16
    expanded_decay_multiplier: float = 2.0

    def __post_init__(self):
        check_field_types(self, ValueError)
        weights = (self.weight_graph, self.weight_visual, self.weight_temporal)
        for name, weight in zip(("weight_graph", "weight_visual", "weight_temporal"), weights):
            if not 0 <= weight < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {weight}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(weights)}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.decay_len < 1:
            raise ValueError(f"decay_len must be >= 1, got {self.decay_len}")
        if not 0 < self.expanded_decay_multiplier < math.inf:
            raise ValueError("expanded_decay_multiplier must be finite and > 0, "
                             f"got {self.expanded_decay_multiplier}")


def _appearances(graph: VideoGraph, query: Optional[QueryParse]) -> list[list[int]]:
    """The appearance frames of each query entity the graph has seen, in
    query order (an entity named twice counts twice)."""
    if query is None:
        return []
    lists = []
    for mention in query.entities:
        node = graph.node_for_lemma(mention.lemma)
        if node is not None and node.frame_indices:
            lists.append(node.frame_indices)
    return lists


def graph_score_raw(frame: int, appearances: Sequence[Sequence[int]], decay: float) -> float:
    """Appearance-proximity relevance of `frame` to the query entities whose
    ascending appearance frames `appearances` holds."""
    score = 0.0
    for frames in appearances:
        # frames ascend, so the nearest appearance is one of the (one or
        # two) frames beside `frame`
        i = bisect_left(frames, frame)
        beside = frames[max(0, i - 1):i + 1]
        distance = min(abs(frame - beside[0]), abs(frame - beside[-1]))
        score += math.exp(-distance / decay)
    return score


def visual_score_raw(frame_embedding: Optional[Embedding],
                     query_embedding: Optional[Embedding]) -> float:
    """Cosine similarity mapped to [0, 1]; 0.5 when either side is missing
    or a zero vector (whose cosine is 0)."""
    if frame_embedding is None or query_embedding is None:
        return 0.5
    cos = cosine_similarity(frame_embedding, query_embedding)
    return (1.0 + max(-1.0, min(1.0, cos))) / 2.0


def temporal_score_raw(frame: int, ordered: Sequence[int], total_frames: int) -> float:
    """Coverage score for `frame` within its unexplored gap.

    `ordered` holds the selected frames in ascending order. The gap is
    bounded by the nearest selected frames (or the video edges); the score
    is gap_length/total_frames scaled by how central the frame sits in the
    gap. Already-selected frames score 0.
    """
    if total_frames < 1:
        raise ValueError(f"total_frames must be >= 1, got {total_frames}")
    if not ordered:
        raise ValueError("selected must be nonempty")
    i = bisect_left(ordered, frame)
    if i < len(ordered) and ordered[i] == frame:
        return 0.0
    left = ordered[i - 1] if i else -1
    right = ordered[i] if i < len(ordered) else total_frames
    gap_length = right - left
    center = (left + right) / 2.0
    centrality = 1.0 - abs(frame - center) / (gap_length / 2.0)
    return (gap_length / total_frames) * centrality


def normalize_scores(raw: Sequence[float]) -> list[float]:
    """Min-max normalize into [0, 1]; an all-equal list maps to 0.5s."""
    if not raw:
        raise ValueError("cannot normalize an empty list")
    if not all(map(math.isfinite, raw)):
        raise ValueError("raw scores must be finite")
    low, high = min(raw), max(raw)
    if high == low:
        return [0.5] * len(raw)
    span = high - low
    return [(x - low) / span for x in raw]


def select_frames(candidates: Sequence[Candidate], graph: VideoGraph,
                  query: Optional[QueryParse], selected: Sequence[int],
                  total_frames: int, cfg: SelectorConfig, expanded: bool = False,
                  query_embedding: Optional[Embedding] = None) -> list[int]:
    """Pick the top-k candidate frames by combined score; ties prefer the
    lower index.

    Candidates must be disjoint from `selected`, which may come in any
    order. Returns ascending frame indices; an empty candidate set returns
    [] (the caller treats that as an exhausted search).
    """
    if not candidates:
        return []
    overlap = {f for f, _ in candidates}.intersection(selected)
    if overlap:
        raise ValueError(f"candidates overlap already-selected frames: {sorted(overlap)}")
    appearances = _appearances(graph, query)
    decay = cfg.decay_len * (cfg.expanded_decay_multiplier if expanded else 1.0)
    raw_graph = [graph_score_raw(f, appearances, decay) for f, _ in candidates]
    raw_visual = [visual_score_raw(emb, query_embedding) for _, emb in candidates]
    ordered = sorted(selected)
    raw_temporal = [temporal_score_raw(f, ordered, total_frames) for f, _ in candidates]
    components = (normalize_scores(raw_graph), normalize_scores(raw_visual),
                  normalize_scores(raw_temporal))
    wg, wv, wt = cfg.weight_graph, cfg.weight_visual, cfg.weight_temporal
    ranked = sorted(
        (-(wg * g + wv * v + wt * t), frame)
        for (frame, _), g, v, t in zip(candidates, *components)
    )
    return sorted(frame for _, frame in ranked[: cfg.k])


def identify_segments(graph: VideoGraph, query: Optional[QueryParse], total_frames: int,
                      cfg: SelectorConfig, expanded: bool = False) -> list[tuple[int, int]]:
    """Frame windows worth searching, derived from query-entity appearances.

    Appearances within decay_len of each other cluster together; each cluster
    becomes a window padded by decay_len and clipped to the video. Expanded
    mode, or a query with no entities in the graph, yields one whole-video
    window.
    """
    if total_frames < 1:
        raise ValueError(f"total_frames must be >= 1, got {total_frames}")
    whole = [(0, total_frames - 1)]
    if expanded:
        return whole
    appearance_frames = set().union(*_appearances(graph, query))
    if not appearance_frames:
        return whole

    ordered = sorted(appearance_frames)
    clusters: list[list[int]] = [[ordered[0], ordered[0]]]
    for frame in ordered[1:]:
        if frame - clusters[-1][1] <= cfg.decay_len:
            clusters[-1][1] = frame
        else:
            clusters.append([frame, frame])

    windows: list[tuple[int, int]] = []
    for start, end in clusters:
        lo = max(0, start - cfg.decay_len)
        hi = min(total_frames - 1, end + cfg.decay_len)
        if windows and lo <= windows[-1][1]:
            windows[-1] = (windows[-1][0], max(windows[-1][1], hi))
        else:
            windows.append((lo, hi))
    return windows


def candidate_frames(windows: Sequence[tuple[int, int]], selected: Sequence[int]) -> list[int]:
    """Union of the windows minus already-selected frames, subsampled so each
    window contributes at most ~32 evenly strided candidates."""
    taken = set(selected)
    out: set[int] = set()
    for start, end in windows:
        length = end - start + 1
        stride = max(1, length // 32)
        out.update(range(start, end + 1, stride))
    return sorted(out - taken)
