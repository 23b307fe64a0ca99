"""Batch evaluation over QA sets: accuracy, frame usage, and breakdowns.

Sessions run on a bounded worker pool (at `parallel` 1, on the calling
thread), all on one gateway. The sessions on one video share a `FrameTable`,
so a frame another session already captioned, parsed and embedded is not
done again. Each transcript is appended as soon as every earlier item is
done, through one handle on the transcript file (`lines.Log`) that stays
open for the run, takes the file's lock for each record, mends the tail and
flushes the record. So two runs over the same inputs write byte-identical
transcripts and reports, and an interrupted run leaves its finished
prefix's transcripts, each line whole, and the previous report.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from .agent import AgentConfig, AgentSession, FrameTable, VideoAgent
from .errors import DataFormatError
from .gateway import ModelGateway
from .lines import Log
from .parsing import Lexicon
from .store import QAItem, VideoBundle, load_bundle, load_qa, replace_text, save_transcript

logger = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1


@dataclass
class EvalReport:
    """Aggregate metrics for one eval run."""

    n_items: int
    answered: int
    accuracy: float
    mean_frames_used: float
    mean_rounds: float
    per_category: dict[str, float]
    per_bucket: dict[str, float]
    failures: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"schema_version": REPORT_SCHEMA_VERSION, **asdict(self)}

    def render_text(self) -> str:
        lines = [
            f"items:            {self.n_items}",
            f"answered:         {self.answered}",
            f"failures:         {len(self.failures)}",
            f"accuracy:         {self.accuracy:.4f}",
            f"mean frames used: {self.mean_frames_used:.2f}",
            f"mean rounds:      {self.mean_rounds:.2f}",
        ]
        if self.per_category:
            lines.append("accuracy by category:")
            for name in sorted(self.per_category):
                lines.append(f"  {name:<12} {self.per_category[name]:.4f}")
        if self.per_bucket:
            lines.append("accuracy by entity-count bucket:")
            for name in sorted(self.per_bucket):
                lines.append(f"  {name:<12} {self.per_bucket[name]:.4f}")
        for failure in self.failures:
            lines.append(f"  FAILED {failure['item_id']}: {failure['error']}")
        return "\n".join(lines)


def bucket_by_entity_count(node_count: int, dataset_bucket: Optional[str] = None) -> str:
    """Entity-count bucket from the final graph; a dataset-provided bucket wins."""
    if dataset_bucket is not None:
        return dataset_bucket
    if node_count <= 3:
        return "Few"
    if node_count <= 6:
        return "Mid"
    return "Many"


@dataclass
class _ItemResult:
    item: QAItem
    item_id: str
    session: Optional[AgentSession] = None
    node_count: int = 0
    error: Optional[str] = None


def _run_item(index: int, item: QAItem, bundle: VideoBundle, gateway: ModelGateway,
              cfg: AgentConfig, lexicon: Optional[Lexicon], frames: FrameTable) -> _ItemResult:
    item_id = f"{item.video_id}#{index}"
    result = _ItemResult(item=item, item_id=item_id)
    try:
        agent = VideoAgent(bundle, gateway, cfg, lexicon, frames)
        result.session, graph = agent.run(item.question, item.options)
        result.node_count = len(graph.nodes)
    except Exception as exc:  # noqa: BLE001 - any per-item failure is reportable
        logger.error("item %s failed: %s", item_id, exc)
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def run_eval(qa_path: Union[str, Path], bundle_root: Union[str, Path],
             cfg: AgentConfig, gateway: ModelGateway,
             out_dir: Union[str, Path], parallel: int = 1,
             lexicon: Optional[Lexicon] = None) -> EvalReport:
    """Run every QA item, write transcripts and a report, return the report.

    Items whose sessions raise are counted as failures: included in n_items,
    excluded from accuracy. The QA file and every referenced bundle, whose
    manifest must name the item's video, must be resolvable up front,
    otherwise nothing runs. Every session takes its own view of `gateway`
    (see `VideoAgent.run`).
    """
    items = load_qa(qa_path)
    bundle_root = Path(bundle_root)
    out_dir = Path(out_dir)

    bundles: dict[str, VideoBundle] = {}
    for item in items:
        if item.video_id not in bundles:
            bundle_dir = bundle_root / item.video_id
            if not bundle_dir.is_dir():
                raise DataFormatError(
                    f"bundle directory for video {item.video_id!r} not found under {bundle_root}"
                )
            bundles[item.video_id] = load_bundle(bundle_dir, item.video_id)
    tables = {video_id: FrameTable() for video_id in bundles}

    def runner(pair):
        index, item = pair
        return _run_item(index, item, bundles[item.video_id], gateway, cfg, lexicon,
                         tables[item.video_id])

    transcript_path = out_dir / "transcripts.jsonl"
    replace_text(transcript_path, "")
    results = []
    with Log(transcript_path, DataFormatError) as transcripts, \
            ThreadPoolExecutor(max_workers=parallel) as pool:
        # pool.map yields in input order, so transcripts are appended in order
        for result in (pool.map if parallel > 1 else map)(runner, enumerate(items)):
            if result.session is not None:
                save_transcript(result.session, transcripts)
            results.append(result)

    report = _aggregate(results)
    replace_text(
        out_dir / "report.json",
        json.dumps(report.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n",
    )
    return report


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _aggregate(results: Sequence[_ItemResult]) -> EvalReport:
    completed = [r for r in results if r.session is not None]
    failures = [
        {"item_id": r.item_id, "error": r.error} for r in results if r.error is not None
    ]

    scored: list[tuple[bool, str, str]] = []  # (correct, category, bucket)
    for r in completed:
        if r.item.answer_index is None:
            continue
        correct = r.session.final_answer == r.item.answer_index
        bucket = bucket_by_entity_count(r.node_count, r.item.entity_count_bucket)
        scored.append((correct, r.item.category or "", bucket))

    categories = sorted({c for _, c, _ in scored if c})
    buckets = sorted({b for _, _, b in scored})

    return EvalReport(
        n_items=len(results),
        answered=len(completed),
        accuracy=_mean([ok for ok, _, _ in scored]),
        mean_frames_used=_mean([len(r.session.selected_frames) for r in completed]),
        mean_rounds=_mean([len(r.session.rounds) for r in completed]),
        per_category={c: _mean([ok for ok, cat, _ in scored if cat == c]) for c in categories},
        per_bucket={b: _mean([ok for ok, _, bucket in scored if bucket == b]) for b in buckets},
        failures=failures,
    )
