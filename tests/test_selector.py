from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvqa.errors import DimensionError
from graphvqa.gateway import pseudo_embedding
from graphvqa.graph import FrameRecord, VideoGraph
from graphvqa.parsing import default_lexicon, parse_caption, parse_question
from graphvqa.selector import (
    SelectorConfig,
    candidate_frames,
    combined_score,
    graph_score_raw,
    identify_segments,
    normalize_scores,
    score_candidates,
    select_frames,
    temporal_score_raw,
    visual_score_raw,
)

LEX = default_lexicon()
CFG = SelectorConfig()


def graph_with(entity_frames: dict[str, list[int]]) -> VideoGraph:
    graph = VideoGraph()
    for lemma, frames in entity_frames.items():
        for frame in frames:
            if frame not in graph.processed_frames:
                graph.update_graph(
                    [FrameRecord(frame)],
                    [parse_caption(f"the {lemma} sits", frame, LEX)],
                )
            else:
                graph.upsert_entity(
                    parse_caption(f"the {lemma} sits", frame, LEX).mentions[0], frame
                )
    return graph


def query_for(*lemmas):
    return parse_question("what about the " + " and the ".join(lemmas) + "?", [], LEX)


# -- graph score -----------------------------------------------------------------

def test_graph_score_at_appearance_frame():
    graph = graph_with({"dog": [10]})
    assert graph_score_raw(10, graph, query_for("dog"), CFG) == pytest.approx(1.0)


def test_graph_score_absent_entity_zero():
    graph = graph_with({"dog": [10]})
    assert graph_score_raw(10, graph, query_for("unicorn"), CFG) == 0.0


def test_graph_score_two_entities_sum():
    graph = graph_with({"dog": [20], "person": [36]})
    score = graph_score_raw(20, graph, query_for("dog", "person"), CFG)
    assert score == pytest.approx(1.0 + math.exp(-1.0), abs=1e-9)


def test_graph_score_expanded_doubles_decay():
    graph = graph_with({"dog": [0]})
    narrow = graph_score_raw(32, graph, query_for("dog"), CFG, expanded=False)
    wide = graph_score_raw(32, graph, query_for("dog"), CFG, expanded=True)
    assert narrow == pytest.approx(math.exp(-2.0))
    assert wide == pytest.approx(math.exp(-1.0))


# -- visual score ------------------------------------------------------------------

def test_visual_score_identical_vectors():
    v = [0.3, -0.2, 0.9]
    assert visual_score_raw(v, v) == pytest.approx(1.0)


def test_visual_score_antiparallel():
    v = [0.3, -0.2, 0.9]
    assert visual_score_raw(v, [-x for x in v]) == pytest.approx(0.0)


def test_visual_score_orthogonal():
    assert visual_score_raw([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)


def test_visual_score_zero_norm_neutral():
    assert visual_score_raw([0.0, 0.0], [1.0, 0.0]) == 0.5


def test_visual_score_missing_vector_neutral():
    assert visual_score_raw(None, [1.0]) == 0.5
    assert visual_score_raw([1.0], None) == 0.5


def test_visual_score_dim_mismatch():
    with pytest.raises(DimensionError):
        visual_score_raw([1.0], [1.0, 0.0])


# -- temporal score -----------------------------------------------------------------

def test_temporal_score_selected_frame_is_zero():
    assert temporal_score_raw(10, [10, 50], 100) == 0.0


def test_temporal_score_symmetric_about_gap_center():
    selected = [0, 99]
    center = (0 + 99) / 2
    left = temporal_score_raw(40, selected, 100)
    right = temporal_score_raw(59, selected, 100)  # 40 and 59 mirror about 49.5
    assert left == pytest.approx(right)
    assert abs(40 - center) == abs(59 - center)


def test_temporal_score_center_is_argmax():
    selected = [0, 99]
    total = 100
    scores = {f: temporal_score_raw(f, selected, total) for f in range(total)}
    best = max(scores, key=lambda f: (scores[f], -f))
    assert best in (49, 50)
    assert scores[best] >= max(scores.values()) - 1e-12


def test_temporal_score_validates_inputs():
    with pytest.raises(ValueError):
        temporal_score_raw(0, [], 10)
    with pytest.raises(ValueError):
        temporal_score_raw(0, [1], 0)


# -- normalization -------------------------------------------------------------------

def test_normalize_min_max():
    assert normalize_scores([2, 4, 6]) == [0.0, 0.5, 1.0]


def test_normalize_degenerate_all_equal():
    assert normalize_scores([3, 3, 3]) == [0.5, 0.5, 0.5]


def test_normalize_two_point():
    assert normalize_scores([0, 1]) == [0.0, 1.0]


def test_normalize_rejects_nonfinite_and_empty():
    with pytest.raises(ValueError):
        normalize_scores([1.0, float("nan")])
    with pytest.raises(ValueError):
        normalize_scores([float("inf"), 0.0])
    with pytest.raises(ValueError):
        normalize_scores([])


def test_normalize_scale_invariant_exact():
    rng = random.Random(5)
    raw = [rng.uniform(0, 10) for _ in range(50)]
    for scale in (2.0, 4.0, 0.5, 1024.0):
        assert normalize_scores([scale * x for x in raw]) == normalize_scores(raw)


# -- combined score ---------------------------------------------------------------------

def test_combined_score_default_weights():
    assert combined_score((1.0, 0.5, 0.0), CFG) == pytest.approx(0.65, abs=1e-12)


def test_combined_score_endpoints():
    assert combined_score((0.0, 0.0, 0.0), CFG) == 0.0
    assert combined_score((1.0, 1.0, 1.0), CFG) == pytest.approx(1.0, abs=1e-12)


def test_combined_score_rejects_out_of_range():
    with pytest.raises(ValueError):
        combined_score((1.2, 0.0, 0.0), CFG)
    with pytest.raises(ValueError):
        combined_score((0.0, -0.1, 0.0), CFG)


def test_selector_config_validation():
    with pytest.raises(ValueError):
        SelectorConfig(weight_graph=0.6)  # no longer sums to 1
    with pytest.raises(ValueError):
        SelectorConfig(weight_graph=-0.1, weight_visual=0.9, weight_temporal=0.2)
    with pytest.raises(ValueError):
        SelectorConfig(k=0)


# -- select_frames -------------------------------------------------------------------------

def test_select_returns_all_when_fewer_than_k():
    graph = graph_with({"dog": [10]})
    picked = select_frames(
        [(5, None), (20, None)], graph, query_for("dog"), [10], 60, CFG
    )
    assert picked == [5, 20]


def test_select_empty_candidates():
    graph = VideoGraph()
    assert select_frames([], graph, None, [0], 10, CFG) == []


def test_select_tie_breaks_to_lower_index():
    graph = VideoGraph()  # no query entities: graph component all equal
    # symmetric candidates around the center of the sole gap tie exactly
    picked = select_frames(
        [(40, None), (59, None)], graph, None, [0, 99], 100, SelectorConfig(k=1)
    )
    assert picked == [40]


def test_select_rejects_overlapping_candidates():
    graph = VideoGraph()
    with pytest.raises(ValueError):
        select_frames([(10, None)], graph, None, [10], 60, CFG)


def test_select_disjoint_and_budgeted():
    rng = random.Random(11)
    graph = graph_with({"dog": [30, 90], "person": [140]})
    query = query_for("dog", "person")
    for _ in range(25):
        selected = sorted(rng.sample(range(200), rng.randint(1, 8)))
        pool = [f for f in range(200) if f not in selected]
        candidates = [
            (f, pseudo_embedding(f"frame:{f}", 8)) for f in rng.sample(pool, 40)
        ]
        k = rng.randint(1, 5)
        cfg = SelectorConfig(k=k)
        picked = select_frames(candidates, graph, query, selected, 200, cfg,
                               query_embedding=pseudo_embedding("q", 8))
        assert len(picked) <= k
        assert not set(picked) & set(selected)
        assert picked == sorted(picked)


def brute_force_oracle(candidates, graph, query, selected, total, cfg, expanded, query_embedding):
    """Independent scoring + full sort + top-k, mirroring the contract."""
    decay = cfg.decay_len * (cfg.expanded_decay_multiplier if expanded else 1.0)
    raw_g, raw_v, raw_t = [], [], []
    for frame, emb in candidates:
        total_g = 0.0
        for m in query.entities if query else []:
            node = graph.node_for_lemma(m.lemma)
            if node is None or not node.frame_indices:
                continue
            d = min(abs(frame - f) for f in node.frame_indices)
            total_g += math.exp(-d / decay)
        raw_g.append(total_g)
        if emb is None or query_embedding is None:
            raw_v.append(0.5)
        else:
            nf = math.sqrt(sum(x * x for x in emb))
            nq = math.sqrt(sum(x * x for x in query_embedding))
            if nf == 0.0 or nq == 0.0:
                raw_v.append(0.5)
            else:
                cos = sum(x * y for x, y in zip(emb, query_embedding)) / (nf * nq)
                raw_v.append((1.0 + max(-1.0, min(1.0, cos))) / 2.0)
        ordered = sorted(selected)
        if frame in ordered:
            raw_t.append(0.0)
        else:
            lo = max((s for s in ordered if s < frame), default=-1)
            hi = min((s for s in ordered if s > frame), default=total)
            gap = hi - lo
            centrality = 1.0 - abs(frame - (lo + hi) / 2.0) / (gap / 2.0)
            raw_t.append((gap / total) * centrality)

    def norm(values):
        lo, hi = min(values), max(values)
        if hi == lo:
            return [0.5] * len(values)
        return [(v - lo) / (hi - lo) for v in values]

    ng, nv, nt = norm(raw_g), norm(raw_v), norm(raw_t)
    combined = [
        cfg.weight_graph * ng[i] + cfg.weight_visual * nv[i] + cfg.weight_temporal * nt[i]
        for i in range(len(candidates))
    ]
    order = sorted(range(len(candidates)), key=lambda i: (-combined[i], candidates[i][0]))
    return sorted(candidates[i][0] for i in order[: cfg.k])


def test_select_matches_brute_force_oracle():
    rng = random.Random(77)
    for trial in range(30):
        graph = graph_with({
            "dog": sorted(rng.sample(range(150), rng.randint(1, 4))),
            "person": sorted(rng.sample(range(150), rng.randint(1, 4))),
        })
        query = query_for("dog", "person")
        selected = sorted(rng.sample(range(150), rng.randint(1, 6)))
        pool = [f for f in range(150) if f not in selected]
        count = rng.randint(2, 60)
        candidates = [
            (f, pseudo_embedding(f"frame:{f}", 8) if rng.random() > 0.2 else None)
            for f in rng.sample(pool, count)
        ]
        cfg = SelectorConfig(k=rng.randint(1, 5))
        expanded = rng.random() < 0.3
        qe = pseudo_embedding("query", 8)
        assert select_frames(candidates, graph, query, selected, 150, cfg, expanded, qe) == \
            brute_force_oracle(candidates, graph, query, selected, 150, cfg, expanded, qe)


def test_score_components_in_unit_range():
    graph = graph_with({"dog": [10, 40]})
    candidates = [(f, pseudo_embedding(str(f), 8)) for f in (3, 22, 57, 80)]
    scores = score_candidates(candidates, graph, query_for("dog"), [10], 100, CFG,
                              query_embedding=pseudo_embedding("q", 8))
    for s in scores:
        for value in (s.s_graph, s.s_visual, s.s_temporal, s.combined):
            assert 0.0 <= value <= 1.0
        weighted = (
            CFG.weight_graph * s.s_graph
            + CFG.weight_visual * s.s_visual
            + CFG.weight_temporal * s.s_temporal
        )
        assert abs(s.combined - weighted) <= 1e-12


# -- identify_segments -------------------------------------------------------------------

def test_segments_fallback_whole_video():
    graph = VideoGraph()
    assert identify_segments(graph, query_for("dog"), 120, CFG) == [(0, 119)]


def test_segments_cluster_and_pad():
    graph = graph_with({"dog": [10, 12, 200]})
    windows = identify_segments(graph, query_for("dog"), 400, CFG)
    assert windows == [(0, 28), (184, 216)]


def test_segments_expanded_whole_video():
    graph = graph_with({"dog": [10, 12, 200]})
    assert identify_segments(graph, query_for("dog"), 400, CFG, expanded=True) == [(0, 399)]


def test_segments_merge_overlapping_windows():
    graph = graph_with({"dog": [10], "person": [40]})
    windows = identify_segments(graph, query_for("dog", "person"), 100, CFG)
    assert windows == [(0, 56)]


def test_candidate_frames_strided_and_disjoint():
    pool = candidate_frames([(0, 319)], selected=[0, 160])
    assert 0 not in pool and 160 not in pool
    assert len(pool) <= 34
    assert pool == sorted(pool)
    small = candidate_frames([(5, 9)], selected=[])
    assert small == [5, 6, 7, 8, 9]


# -- hypothesis properties ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40))
def test_normalize_range_property(raw):
    normalized = normalize_scores(raw)
    assert all(0.0 <= v <= 1.0 for v in normalized)
    assert len(normalized) == len(raw)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=8, unique=True),
    st.integers(min_value=0, max_value=500),
)
def test_temporal_score_nonnegative_property(selected, frame):
    score = temporal_score_raw(frame, sorted(selected), 501)
    assert 0.0 <= score <= 1.0


def temporal_score_oracle(frame, selected, total_frames):
    """The temporal score as first written: sort, then scan for the gap."""
    ordered = sorted(selected)
    if frame in ordered:
        return 0.0
    left = max((s for s in ordered if s < frame), default=-1)
    right = min((s for s in ordered if s > frame), default=total_frames)
    gap_length = right - left
    center = (left + right) / 2.0
    centrality = 1.0 - abs(frame - center) / (gap_length / 2.0)
    return (gap_length / total_frames) * centrality


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=12),
    st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=400),
)
def test_temporal_score_matches_oracle_property(selected, frames, extra):
    total = max(selected + frames) + 1 + extra
    for frame in frames:
        assert temporal_score_raw(frame, sorted(selected), total) == \
            temporal_score_oracle(frame, selected, total)
    # score_candidates takes `selected` in any order and sorts it once
    candidates = [(f, None) for f in sorted(set(frames) - set(selected))]
    if candidates:
        scores = score_candidates(candidates, VideoGraph(), None, selected, total, CFG)
        expected = normalize_scores(
            [temporal_score_oracle(f, selected, total) for f, _ in candidates]
        )
        assert [s.s_temporal for s in scores] == expected
