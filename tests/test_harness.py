from __future__ import annotations

import errno
import json
import pathlib

import pytest

from conftest import make_bundle, scripted_gateway
from graphvqa import harness
from graphvqa.agent import AgentConfig
from graphvqa.errors import DataFormatError
from graphvqa.gateway import ScriptEntry
from graphvqa.harness import bucket_by_entity_count, run_eval
from graphvqa.store import QAItem, load_transcripts, save_bundle, save_qa

OPTIONS = ["a", "b", "c", "d", "e"]
LETTERS = "ABCDE"


def write_suite(tmp_path, items, bundles):
    root = tmp_path / "bundles"
    for bundle in bundles:
        save_bundle(bundle, root / bundle.video_id)
    qa_path = save_qa(items, tmp_path / "qa")
    return qa_path, root


CONFIDENT = "answer: A, confidence: 3"


def replying(reply):
    """One scripted gateway for a whole eval, giving every prompt `reply`."""
    return scripted_gateway([ScriptEntry(reply=reply)])


def keyed_gateway(items, reply_for_item):
    """One scripted gateway for a whole eval: each item's reply is keyed by
    its question's line in the prompt, so the catch-all is never reached."""
    return scripted_gateway(
        [ScriptEntry(reply=reply_for_item(item), contains=f"Question: {item.question}\n")
         for item in items] + [ScriptEntry(reply="unreachable")]
    )


def interrupted_at(question, error):
    """A gateway that answers every session at once, but whose chat raises
    `error` in the session that asks `question`."""
    gateway = replying(CONFIDENT)

    def chat(messages):
        if f"Question: {question}\n" in messages[0][1]:
            raise error
        return CONFIDENT

    gateway.chat = chat  # each session's view copies it
    return gateway


def test_eval_accuracy_seven_of_ten(tmp_path):
    bundle = make_bundle(video_id="v0", total_frames=60)
    items = [
        QAItem("v0", f"question {i}?", OPTIONS, answer_index=i % 5)
        for i in range(10)
    ]

    def reply(item):
        index = int(item.question.split()[1].rstrip("?"))
        truth = item.answer_index
        chosen = truth if index < 7 else (truth + 1) % 5
        return f"answer: {LETTERS[chosen]}, confidence: 3"

    qa_path, root = write_suite(tmp_path, items, [bundle])
    report = run_eval(qa_path, root, AgentConfig(), keyed_gateway(items, reply), tmp_path / "out")
    assert report.n_items == 10
    assert report.answered == 10
    assert report.accuracy == pytest.approx(0.7)
    assert report.failures == []


def test_eval_all_confident_mean_frames_is_n(tmp_path):
    bundle = make_bundle(video_id="v0", total_frames=60)
    items = [QAItem("v0", f"q {i}?", OPTIONS, answer_index=0) for i in range(4)]
    qa_path, root = write_suite(tmp_path, items, [bundle])
    cfg = AgentConfig(initial_frames=5)
    report = run_eval(qa_path, root, cfg, replying(CONFIDENT), tmp_path / "out")
    assert report.mean_frames_used == pytest.approx(5.0)
    assert report.mean_rounds == pytest.approx(1.0)
    assert report.accuracy == pytest.approx(1.0)


def test_eval_category_keys_match_data(tmp_path):
    bundle = make_bundle(video_id="v0", total_frames=40)
    items = [
        QAItem("v0", "q1?", OPTIONS, answer_index=0, category="Causal"),
        QAItem("v0", "q2?", OPTIONS, answer_index=0, category="Causal"),
        QAItem("v0", "q3?", OPTIONS, answer_index=0, category="Temporal"),
        QAItem("v0", "q4?", OPTIONS, answer_index=0),
    ]
    qa_path, root = write_suite(tmp_path, items, [bundle])
    report = run_eval(qa_path, root, AgentConfig(), replying(CONFIDENT), tmp_path / "out")
    assert set(report.per_category) == {"Causal", "Temporal"}
    assert report.per_category["Causal"] == pytest.approx(1.0)


def test_eval_failures_counted_not_scored(tmp_path):
    good = make_bundle(video_id="good", total_frames=40)
    broken = make_bundle(video_id="broken", total_frames=40)
    broken.captions.clear()  # nothing captionable -> session raises
    items = [
        QAItem("good", "q?", OPTIONS, answer_index=0),
        QAItem("broken", "q?", OPTIONS, answer_index=0),
    ]
    qa_path, root = write_suite(tmp_path, items, [good, broken])
    report = run_eval(qa_path, root, AgentConfig(), replying(CONFIDENT), tmp_path / "out")
    assert report.n_items == 2
    assert report.answered == 1
    assert report.n_items == report.answered + len(report.failures)
    assert report.accuracy == pytest.approx(1.0)
    assert report.failures[0]["item_id"].startswith("broken")


def test_eval_missing_bundle_aborts(tmp_path):
    items = [QAItem("ghost", "q?", OPTIONS, answer_index=0)]
    qa_path = save_qa(items, tmp_path / "qa")
    with pytest.raises(DataFormatError):
        run_eval(qa_path, tmp_path / "bundles", AgentConfig(), replying("x"), tmp_path / "out")


def test_eval_writes_report_and_transcripts(tmp_path):
    bundle = make_bundle(video_id="v0", total_frames=40)
    items = [QAItem("v0", f"q {i}?", OPTIONS, answer_index=0) for i in range(3)]
    qa_path, root = write_suite(tmp_path, items, [bundle])
    out = tmp_path / "out"
    report = run_eval(qa_path, root, AgentConfig(), replying(CONFIDENT), out)
    records = load_transcripts(out / "transcripts.jsonl")
    assert len(records) == 3
    assert [r["question"] for r in records] == [i.question for i in items]
    on_disk = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert on_disk["accuracy"] == report.accuracy
    assert on_disk["n_items"] == 3


def test_failed_report_write_keeps_previous_report(tmp_path, monkeypatch):
    bundle = make_bundle(video_id="v0", total_frames=40)
    items = [QAItem("v0", f"q {i}?", OPTIONS, answer_index=0) for i in range(2)]
    qa_path, root = write_suite(tmp_path, items, [bundle])
    out = tmp_path / "out"
    run_eval(qa_path, root, AgentConfig(), replying(CONFIDENT), out)
    previous = (out / "report.json").read_bytes()

    write_text = pathlib.Path.write_text

    def disk_full_for_report(path, text, *args, **kwargs):
        if "report.json" not in path.name:  # the transcripts are emptied as usual
            return write_text(path, text, *args, **kwargs)
        with open(path, "w", encoding="utf-8") as handle:  # half the text, then the disk is full
            handle.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pathlib.Path, "write_text", disk_full_for_report)
    with pytest.raises(DataFormatError, match="cannot write .*report.json.*No space"):
        run_eval(qa_path, root, AgentConfig(), replying("answer: B, confidence: 3"), out)
    monkeypatch.undo()
    assert (out / "report.json").read_bytes() == previous
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "transcripts.jsonl"]
    # the eval got as far as the report: every transcript of the second run is there
    records = load_transcripts(out / "transcripts.jsonl")
    assert [r["final_answer"] for r in records] == [1, 1]


def test_eval_parallel_matches_serial(tmp_path):
    bundle = make_bundle(video_id="v0", total_frames=60)
    items = [QAItem("v0", f"q {i}?", OPTIONS, answer_index=i % 5) for i in range(6)]
    qa_path, root = write_suite(tmp_path, items, [bundle])

    def reply(item):
        return f"answer: {LETTERS[item.answer_index]}, confidence: 3"

    serial = run_eval(qa_path, root, AgentConfig(), keyed_gateway(items, reply),
                      tmp_path / "serial")
    threaded = run_eval(qa_path, root, AgentConfig(), keyed_gateway(items, reply),
                        tmp_path / "parallel", parallel=4)
    assert serial.to_dict() == threaded.to_dict()
    assert (tmp_path / "serial" / "transcripts.jsonl").read_bytes() == \
        (tmp_path / "parallel" / "transcripts.jsonl").read_bytes()


@pytest.mark.parametrize("parallel", [1, 3])
def test_interrupted_eval_keeps_the_finished_prefix(tmp_path, parallel):
    bundle = make_bundle(video_id="v0", total_frames=60)
    items = [QAItem("v0", f"q {i}?", OPTIONS, answer_index=0) for i in range(8)]
    qa_path, root = write_suite(tmp_path, items, [bundle])
    out = tmp_path / "out"
    run_eval(qa_path, root, AgentConfig(), replying(CONFIDENT), out, parallel=parallel)
    previous_report = (out / "report.json").read_bytes()

    with pytest.raises(KeyboardInterrupt):
        run_eval(qa_path, root, AgentConfig(), interrupted_at("q 4?", KeyboardInterrupt), out,
                 parallel=parallel)
    records = load_transcripts(out / "transcripts.jsonl")
    assert [r["question"] for r in records] == [f"q {i}?" for i in range(4)]
    assert (out / "report.json").read_bytes() == previous_report


def test_eval_parses_each_frame_of_a_video_once(tmp_path, monkeypatch):
    # serial, so that no two sessions miss the same frame at the same moment
    from graphvqa import agent

    bundles = [make_bundle(video_id=v, total_frames=60, seed=s) for v, s in (("v0", 1), ("v1", 2))]
    items = [QAItem(b.video_id, f"q {i}?", OPTIONS, answer_index=0)
             for b in bundles for i in range(3)]
    qa_path, root = write_suite(tmp_path, items, bundles)
    parses = []
    parse = agent.parse_caption
    monkeypatch.setattr(agent, "parse_caption",
                        lambda *args: parses.append(args[1]) or parse(*args))
    run_eval(qa_path, root, AgentConfig(), replying(CONFIDENT), tmp_path / "out")
    records = load_transcripts(tmp_path / "out" / "transcripts.jsonl")
    touched = {(r["video_id"], f) for r in records for f in r["selected_frames"]}
    assert len(parses) == len(touched) < sum(len(r["selected_frames"]) for r in records)


# -- buckets ---------------------------------------------------------------------

def test_bucket_boundaries():
    assert bucket_by_entity_count(2) == "Few"
    assert bucket_by_entity_count(3) == "Few"
    assert bucket_by_entity_count(4) == "Mid"
    assert bucket_by_entity_count(5) == "Mid"
    assert bucket_by_entity_count(6) == "Mid"
    assert bucket_by_entity_count(7) == "Many"
    assert bucket_by_entity_count(12) == "Many"


def test_bucket_dataset_annotation_wins():
    assert bucket_by_entity_count(2, dataset_bucket="Many") == "Many"


def test_eval_buckets_from_final_graphs(tmp_path):
    # two entities per caption, same pair everywhere -> Few
    few = make_bundle(video_id="few", total_frames=40)
    few.captions = {f: "the dog chases the ball" for f in range(40)}
    items = [
        QAItem("few", "q?", OPTIONS, answer_index=0),
        QAItem("few", "q2?", OPTIONS, answer_index=0, entity_count_bucket="Many"),
    ]
    qa_path, root = write_suite(tmp_path, items, [few])
    report = run_eval(qa_path, root, AgentConfig(), replying(CONFIDENT), tmp_path / "out")
    assert set(report.per_bucket) == {"Few", "Many"}


class Interrupted(BaseException):
    """Stops a session as an interrupt would: no `except Exception` catches it."""


@pytest.mark.parametrize("parallel", [1, 3])
def test_an_interrupted_eval_leaves_whole_records_and_closes_its_one_handle(
        tmp_path, monkeypatch, parallel):
    bundle = make_bundle(video_id="v0", total_frames=60)
    items = [QAItem("v0", f"q {i}?", OPTIONS, answer_index=0) for i in range(8)]
    qa_path, root = write_suite(tmp_path, items, [bundle])
    opened = []

    class CountedLog(harness.Log):
        def __init__(self, *args):
            super().__init__(*args)
            opened.append(self)

    monkeypatch.setattr(harness, "Log", CountedLog)
    out = tmp_path / "out"
    with pytest.raises(Interrupted):
        run_eval(qa_path, root, AgentConfig(), interrupted_at("q 5?", Interrupted), out,
                 parallel=parallel)
    assert len(opened) == 1 and opened[0]._handle.closed
    text = (out / "transcripts.jsonl").read_bytes()
    assert text.endswith(b"\n") and len(text.splitlines()) == 5
    assert [r["question"] for r in load_transcripts(out / "transcripts.jsonl")] == \
        [f"q {i}?" for i in range(5)]
