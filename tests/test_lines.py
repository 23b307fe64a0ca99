"""Line files: one comment rule for every kind, logs that stay readable
after an append is cut off at any byte, and appends from several processes
that lose no record."""

from __future__ import annotations

import base64
import fcntl
import multiprocessing
import re
import struct
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import append_transcript, make_bundle
from graphvqa.agent import AgentSession, RoundLog, Termination
from graphvqa.errors import DataFormatError, GatewayConfigError, LexiconError
from graphvqa.gateway import ResponseCache, load_script
from graphvqa.graph import Embedding
from graphvqa.lines import Log, read_lines, read_log
from graphvqa.parsing import load_lexicon
from graphvqa.store import load_bundle, load_qa, load_transcripts, save_bundle

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# A cache value is a text, a vector, or (as older files hold) a whole reply;
# never null, which fails to load, nor a reply shaped as a vector's record.
cache_values = (
    json_values.filter(lambda value: value is not None
                       and not (isinstance(value, dict) and value.keys() == {"f64"}))
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
               max_size=4).map(Embedding)
)


def cache_record(value):
    """The value of `value`'s cache line: a vector as base64 of its
    little-endian doubles, anything else as itself."""
    if isinstance(value, Embedding):
        return {"f64": base64.b64encode(struct.pack(f"<{len(value)}d", *value)).decode("ascii")}
    return value


def session(question: str) -> AgentSession:
    return AgentSession(
        video_id="v", question=question, options=["a", "b"], selected_frames=[3],
        rounds=[RoundLog(1, [3], 0, 3, "", "d" * 64)], final_answer=0,
        terminated_by=Termination.CONFIDENT, final_graph_version=1,
    )


def complete_lines(whole: bytes, cut: int) -> int:
    """How many lines of `whole` are still whole (bar their newline) in `whole[:cut]`."""
    ends = [i for i, byte in enumerate(whole) if byte == ord("\n")]
    return sum(end <= cut for end in ends)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(max_size=12), min_size=1, max_size=4), st.text(max_size=12), st.data())
def test_transcripts_stay_readable_after_a_cut_at_any_byte(questions, last, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "transcripts.jsonl"
        for question in questions:
            append_transcript(session(question), path)
        whole = path.read_bytes()
        cut = data.draw(st.integers(0, len(whole)), label="cut")
        path.write_bytes(whole[:cut])
        append_transcript(session(last), path)
        kept = questions[:complete_lines(whole, cut)]
        assert [r["question"] for r in load_transcripts(path)] == kept + [last]


@settings(max_examples=150, deadline=None)
@given(st.lists(cache_values, min_size=1, max_size=4), cache_values, st.data())
def test_cache_stays_readable_after_a_cut_at_any_byte(values, last, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        cache = ResponseCache(path)
        for i, value in enumerate(values):
            cache.put(f"k{i}", value)
        whole = path.read_bytes()
        cut = data.draw(st.integers(0, len(whole)), label="cut")
        path.write_bytes(whole[:cut])
        ResponseCache(path).put("last", last)
        kept = [{f"k{i}": cache_record(value)}
                for i, value in enumerate(values[:complete_lines(whole, cut)])]
        assert [record for _, record in read_log(path, DataFormatError)] == \
            kept + [{"last": cache_record(last)}]
        reloaded = ResponseCache(path)
        for record in kept:
            ((key, _),) = record.items()
            assert reloaded.get(key) == values[int(key[1:])]


def test_every_text_file_skips_blank_and_indented_comment_lines(tmp_path):
    bundle_dir = save_bundle(make_bundle(video_id="v", total_frames=4), tmp_path / "v")
    captions = bundle_dir / "captions"
    captions.write_text("  # a note\n\n" + captions.read_text(encoding="utf-8"), encoding="utf-8")
    assert load_bundle(bundle_dir).captions == make_bundle(video_id="v", total_frames=4).captions

    qa = tmp_path / "qa"
    qa.write_text('\t# a note\n   \n{"video_id": "v", "question": "q?", "options": ["a", "b"]}\n',
                  encoding="utf-8")
    assert [item.question for item in load_qa(qa)] == ["q?"]

    script = tmp_path / "script.jsonl"
    script.write_text('  # a note\n{"reply": "answer: A"}\n', encoding="utf-8")
    assert [entry.reply for entry in load_script(script)] == ["answer: A"]

    lexicon = tmp_path / "lexicon"
    lexicon.mkdir()
    for name, entry in [("spatial_preps.txt", "on"), ("interaction_verbs.txt", "talk"),
                        ("action_verbs.txt", "hold"), ("state_verbs.tsv", "become\t*"),
                        ("type_gazetteer.tsv", "person\tPerson")]:
        (lexicon / name).write_text(f"  # a note\n\n{entry}\n", encoding="utf-8")
    assert load_lexicon(lexicon).spatial_preps == frozenset({"on"})


def test_logs_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('# a note\n\n  # another\n{"k1": 1}\n\n', encoding="utf-8")
    assert ResponseCache(path).get("k1") == 1
    assert read_log(path, DataFormatError) == [(4, {"k1": 1})]


def test_text_lines_end_at_newline_only(tmp_path):
    path = tmp_path / "spatial_preps.txt"
    path.write_bytes("on under\r\nnear\rby\x0cat\n".encode("utf-8"))
    assert read_lines(path, LexiconError) == [(1, "on under"), (2, "near"), (3, "by\x0cat")]


TAILS = [
    (b'{"k2": 2}', b'{"k1": 1}\n{"k2": 2}\n{"k3": 3}\n'),  # whole: ended
    (b'{"k2": 2', b'{"k1": 1}\n{"k3": 3}\n'),  # torn: cut off
    ("{\"k2\": \"é".encode("utf-8")[:-1], b'{"k1": 1}\n{"k3": 3}\n'),  # torn mid-character
    (b"# a note", b'{"k1": 1}\n# a note\n{"k3": 3}\n'),  # a comment is whole
]


def append(path, record) -> None:
    """Append one record through a `Log` opened for it, as a cache put does."""
    with Log(path, DataFormatError) as log:
        log.append(record)


@pytest.mark.parametrize("tail,mended", TAILS)
def test_append_mends_an_unterminated_tail_first(tmp_path, tail, mended):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"k1": 1}\n' + tail)
    append(path, {"k3": 3})
    assert path.read_bytes() == mended


@pytest.mark.parametrize("tail,mended", TAILS)
def test_a_held_log_mends_the_tail_at_each_append_and_flushes_each_line(tmp_path, tail, mended):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"k1": 1}\n' + tail)
    with Log(path, DataFormatError) as log:
        assert path.read_bytes() == b'{"k1": 1}\n' + tail  # opening writes nothing
        log.append({"k3": 3})
        assert path.read_bytes() == mended
        with path.open("ab") as other:  # another writer leaves the same tail
            other.write(tail)
        log.append({"k4": 4})
        kept = tail + b"\n" if tail in mended else b""  # as the first append mended it
        assert path.read_bytes() == mended + kept + b'{"k4": 4}\n'
    with pytest.raises(ValueError, match="closed file"):
        log.append({"k5": 5})


def test_a_held_log_raises_the_callers_error(tmp_path):
    with pytest.raises(DataFormatError, match=re.escape(f"cannot append to {tmp_path}")):
        Log(tmp_path, DataFormatError)


def test_append_reads_only_the_last_byte_of_a_file_ending_in_a_newline(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"not json\n" * 100)
    reads = []

    class Spy:
        def __init__(self, handle):
            self.handle = handle

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return self.handle.__exit__(*exc_info)

        def read(self, *args):
            reads.append(self.handle.read(*args))
            return reads[-1]

    open_path = Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kw: Spy(open_path(self, *args, **kw)))
    append(path, {"k": 1})
    monkeypatch.undo()
    assert reads == [b"\n"]
    assert path.read_bytes().endswith(b'not json\n{"k": 1}\n')


def test_unreadable_paths_raise_the_callers_error(tmp_path):
    for error in (LexiconError, DataFormatError, GatewayConfigError):
        with pytest.raises(error, match=re.escape(f"cannot read {tmp_path}")):
            read_lines(tmp_path, error)
    with pytest.raises(DataFormatError, match=re.escape(f"cannot read {tmp_path}")):
        read_log(tmp_path, DataFormatError)
    with pytest.raises(DataFormatError, match=re.escape(f"cannot append to {tmp_path}")):
        append(tmp_path, {"k": 1})
    (tmp_path / "bad").write_bytes(b"\xff\n")
    with pytest.raises(LexiconError, match="bad: not valid UTF-8"):
        read_lines(tmp_path / "bad", LexiconError)
    with pytest.raises(DataFormatError, match="bad:1: invalid JSON"):
        read_log(tmp_path / "bad", DataFormatError)



def write_half_a_line_and_pause(path: str, ready) -> None:
    """Append one line in two writes under the appenders' lock, setting
    `ready` once the first half is on disk and pausing before the second."""
    with open(path, "ab") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        handle.write(b'{"first": ')
        handle.flush()
        ready.set()
        time.sleep(0.5)
        handle.write(b"1}\n")


def test_append_waits_for_another_process_mid_line(tmp_path):
    path = tmp_path / "log.jsonl"
    spawn = multiprocessing.get_context("spawn")
    ready = spawn.Event()
    child = spawn.Process(target=write_half_a_line_and_pause, args=(str(path), ready))
    child.start()
    try:
        assert ready.wait(timeout=60)
        append(path, {"second": 2})
    finally:
        child.join(timeout=60)
    assert not child.is_alive() and child.exitcode == 0
    assert [record for _, record in read_log(path, DataFormatError)] == [
        {"first": 1}, {"second": 2},
    ]


def test_a_held_log_waits_for_another_process_mid_line(tmp_path):
    path = tmp_path / "log.jsonl"
    spawn = multiprocessing.get_context("spawn")
    ready = spawn.Event()
    with Log(path, DataFormatError) as log:
        child = spawn.Process(target=write_half_a_line_and_pause, args=(str(path), ready))
        child.start()
        try:
            assert ready.wait(timeout=60)
            log.append({"second": 2})
        finally:
            child.join(timeout=60)
    assert not child.is_alive() and child.exitcode == 0
    assert [record for _, record in read_log(path, DataFormatError)] == [
        {"first": 1}, {"second": 2},
    ]


WRITERS, RECORDS = 4, 500


def append_many(path: str, writer: int, start) -> None:
    start.wait(timeout=60)
    with Log(path, DataFormatError) as log:
        for i in range(RECORDS):
            log.append({"writer": writer, "i": i, "pad": "x" * 5000})


def test_processes_appending_to_one_log_lose_no_record(tmp_path):
    path = tmp_path / "log.jsonl"
    spawn = multiprocessing.get_context("spawn")
    start = spawn.Barrier(WRITERS)
    writers = [spawn.Process(target=append_many, args=(str(path), writer, start))
               for writer in range(WRITERS)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
    assert [(w.is_alive(), w.exitcode) for w in writers] == [(False, 0)] * WRITERS
    records = [record for _, record in read_log(path, DataFormatError)]
    assert sorted((r["writer"], r["i"]) for r in records) == [
        (writer, i) for writer in range(WRITERS) for i in range(RECORDS)
    ]
