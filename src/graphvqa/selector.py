"""Candidate-frame scoring and retrieval.

Each candidate frame gets three raw signals:

- graph score: sum over query entities of exp(-d / L), where d is the
  distance to the entity's nearest appearance frame and L the decay length
  (doubled in expanded mode). Entities absent from the graph contribute 0.
- visual score: cosine similarity between the frame embedding and the query
  embedding, mapped to [0, 1] via (1 + cos) / 2; degenerate vectors score a
  neutral 0.5.
- temporal score: coverage of unexplored gaps between already-selected
  frames, peaking at gap centers.

Raw components are min-max normalized across the candidate set of the
current round, then combined as a weighted sum. Ties break toward the lower
frame index.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import VideoGraph, cosine_similarity
from .parsing import QueryParse

Candidate = tuple[int, Optional[Sequence[float]]]


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
        weights = (self.weight_graph, self.weight_visual, self.weight_temporal)
        if any(w < 0 for w in weights):
            raise ValueError(f"weights must be nonnegative, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(weights)}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.decay_len < 1:
            raise ValueError(f"decay_len must be >= 1, got {self.decay_len}")
        if not self.expanded_decay_multiplier > 0:
            raise ValueError(
                f"expanded_decay_multiplier must be > 0, got {self.expanded_decay_multiplier}"
            )


@dataclass(frozen=True)
class FrameScore:
    """Normalized per-frame score breakdown."""

    frame_index: int
    s_graph: float
    s_visual: float
    s_temporal: float
    combined: float


def graph_score_raw(frame: int, graph: VideoGraph, query: Optional[QueryParse],
                    cfg: SelectorConfig, expanded: bool = False) -> float:
    """Appearance-proximity relevance of `frame` to the query entities."""
    if query is None:
        return 0.0
    decay = cfg.decay_len * (cfg.expanded_decay_multiplier if expanded else 1.0)
    score = 0.0
    for mention in query.entities:
        node = graph.node_for_lemma(mention.lemma)
        if node is None or not node.frame_indices:
            continue
        distance = min(abs(frame - f) for f in node.frame_indices)
        score += math.exp(-distance / decay)
    return score


def visual_score_raw(frame_embedding: Optional[Sequence[float]],
                     query_embedding: Optional[Sequence[float]]) -> float:
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
    if any(math.isnan(x) or math.isinf(x) for x in raw):
        raise ValueError("raw scores must be finite")
    low, high = min(raw), max(raw)
    if high == low:
        return [0.5] * len(raw)
    span = high - low
    return [(x - low) / span for x in raw]


def combined_score(components: tuple[float, float, float], cfg: SelectorConfig) -> float:
    """Weighted sum of the three normalized components."""
    for name, value in zip(("graph", "visual", "temporal"), components):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} component must be in [0, 1], got {value}")
    s_graph, s_visual, s_temporal = components
    return (
        cfg.weight_graph * s_graph
        + cfg.weight_visual * s_visual
        + cfg.weight_temporal * s_temporal
    )


def score_candidates(candidates: Sequence[Candidate], graph: VideoGraph,
                     query: Optional[QueryParse], selected: Sequence[int],
                     total_frames: int, cfg: SelectorConfig, expanded: bool = False,
                     query_embedding: Optional[Sequence[float]] = None) -> list[FrameScore]:
    """Score every candidate with normalized components."""
    raw_graph = [graph_score_raw(f, graph, query, cfg, expanded) for f, _ in candidates]
    raw_visual = [visual_score_raw(emb, query_embedding) for _, emb in candidates]
    ordered = sorted(selected)
    raw_temporal = [temporal_score_raw(f, ordered, total_frames) for f, _ in candidates]
    norm_graph = normalize_scores(raw_graph)
    norm_visual = normalize_scores(raw_visual)
    norm_temporal = normalize_scores(raw_temporal)
    return [
        FrameScore(
            frame_index=candidates[i][0],
            s_graph=norm_graph[i],
            s_visual=norm_visual[i],
            s_temporal=norm_temporal[i],
            combined=combined_score((norm_graph[i], norm_visual[i], norm_temporal[i]), cfg),
        )
        for i in range(len(candidates))
    ]


def select_frames(candidates: Sequence[Candidate], graph: VideoGraph,
                  query: Optional[QueryParse], selected: Sequence[int],
                  total_frames: int, cfg: SelectorConfig, expanded: bool = False,
                  query_embedding: Optional[Sequence[float]] = None) -> list[int]:
    """Pick the top-k candidate frames; ties prefer the lower index.

    Candidates must be disjoint from `selected`. Returns ascending frame
    indices; an empty candidate set returns [] (the caller treats that as an
    exhausted search).
    """
    if not candidates:
        return []
    overlap = {f for f, _ in candidates}.intersection(selected)
    if overlap:
        raise ValueError(f"candidates overlap already-selected frames: {sorted(overlap)}")
    scores = score_candidates(
        candidates, graph, query, selected, total_frames, cfg, expanded, query_embedding
    )
    ranked = sorted(scores, key=lambda s: (-s.combined, s.frame_index))
    return sorted(s.frame_index for s in ranked[: cfg.k])


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
    if expanded or query is None:
        return whole
    appearance_frames: set[int] = set()
    for mention in query.entities:
        node = graph.node_for_lemma(mention.lemma)
        if node is not None:
            appearance_frames.update(node.frame_indices)
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
