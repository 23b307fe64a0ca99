"""Bundle loading and persistence for graphs and session transcripts.

On-disk bundle layout (one directory per video; line files are read by `lines`):

    manifest     JSON object: a `Manifest`'s fields
    captions     one `frame_index<TAB>caption` per line (optional file)
    embeddings   one `frame_index<TAB>space-separated finite floats` per line
                 (optional file)
    qa           one JSON object per line: a `QAItem`'s fields (optional file)

A frame appears at most once in captions and at most once in embeddings.

Each manifest, QA, graph and transcript record is its dataclass's fields
under their own names (a QA line leaves out its null ones); only
`schema_version` and values derived from fields are added, so adding a field
changes the schema. Manifests, QA lines and chat script entries are read by
`read_record`: a field with a default may be absent, and each value must be
of its field's annotated JSON type (a number is not a string, nor null an
option), so nothing is coerced.
Graphs serialize to a single JSON document with an explicit schema_version
(2; version 1 documents still load, and their coherence settings and caption
snippets are ignored) and load back from the same fields. Floats survive
exactly: JSON rendering uses repr, which round-trips every finite double.
Transcripts are logs (see `lines`) of one JSON record per session, keyed by
video_id and the question's sha256. `eval` streams its sessions' records
through one locked handle (`lines.Log`), held open for the whole run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Container, Optional, Sequence, Union

from .errors import DataFormatError, DimensionError, SchemaVersionError, check_field_types
from .graph import (
    Embedding, EntityNode, GraphConfig, RelationEdge, VideoGraph, all_finite, json_vector,
)
from .lines import Log, parse_object, read_lines, read_log, read_objects
from .parsing import EntityType, RelationCategory

GRAPH_SCHEMA_VERSION = 2
READABLE_GRAPH_SCHEMAS = (1, 2)
TRANSCRIPT_SCHEMA_VERSION = 1

CATEGORIES = ("Causal", "Temporal", "Descriptive")
BUCKETS = ("Few", "Mid", "Many")


@dataclass
class Manifest:
    """What a bundle's video is: the fields of its manifest file."""

    video_id: str
    total_frames: int
    fps: Optional[float] = None
    embedding_dim: Optional[int] = None

    def validate(self) -> "Manifest":
        check_field_types(self, DataFormatError, "field {!r}")
        if self.total_frames < 1:
            raise DataFormatError(f"field 'total_frames' must be >= 1, got {self.total_frames}")
        if self.fps is not None and not 0 < self.fps < math.inf:
            raise DataFormatError(f"field 'fps' must be finite and > 0, got {self.fps}")
        if self.embedding_dim is not None and self.embedding_dim < 1:
            raise DataFormatError(f"field 'embedding_dim' must be >= 1, got {self.embedding_dim}")
        return self


@dataclass
class VideoBundle(Manifest):
    """A video's manifest and precomputed inputs: captions and embeddings by
    frame.

    Each vector is an `Embedding`, made once here (by `load_bundle`, or from
    the sequences a hand-built bundle is given) and shared from then on."""

    captions: dict[int, str] = field(default_factory=dict)
    embeddings: dict[int, Embedding] = field(default_factory=dict)

    def __post_init__(self):
        self.embeddings = {
            frame: vector if isinstance(vector, Embedding) else Embedding(vector)
            for frame, vector in self.embeddings.items()
        }

    def validate(self) -> "VideoBundle":
        super().validate()
        for frame in self.captions:
            if not 0 <= frame < self.total_frames:
                raise DataFormatError(
                    f"caption frame {frame} outside [0, {self.total_frames})"
                )
        dim = self.embedding_dim
        reference_frame = None
        for frame, vector in sorted(self.embeddings.items()):
            if not 0 <= frame < self.total_frames:
                raise DataFormatError(
                    f"embedding frame {frame} outside [0, {self.total_frames})"
                )
            if dim is None:
                dim, reference_frame = len(vector), frame
            elif len(vector) != dim:
                origin = (
                    f"frame {reference_frame}" if reference_frame is not None else "manifest"
                )
                raise DimensionError(
                    f"embedding dim mismatch: frame {frame} has {len(vector)}, "
                    f"{origin} has {dim}"
                )
        if self.embeddings and self.embedding_dim is None:
            self.embedding_dim = dim
        return self


@dataclass
class QAItem:
    """One multiple-choice question tied to a video bundle."""

    video_id: str
    question: str
    options: list[str]
    answer_index: Optional[int] = None
    category: Optional[str] = None
    entity_count_bucket: Optional[str] = None

    def validate(self) -> "QAItem":
        check_field_types(self, DataFormatError)
        if not self.question:
            raise DataFormatError("question must be nonempty")
        if not 2 <= len(self.options) <= 5:
            raise DataFormatError(
                f"expected 2..5 options, got {len(self.options)} for {self.question!r}"
            )
        if self.answer_index is not None and not 0 <= self.answer_index < len(self.options):
            raise DataFormatError(
                f"answer_index {self.answer_index} out of range for {len(self.options)} options"
            )
        if self.category is not None and self.category not in CATEGORIES:
            raise DataFormatError(f"unknown category {self.category!r}")
        if self.entity_count_bucket is not None and self.entity_count_bucket not in BUCKETS:
            raise DataFormatError(f"unknown entity_count_bucket {self.entity_count_bucket!r}")
        return self


# ---------------------------------------------------------------------------
# Records read by field
# ---------------------------------------------------------------------------

def _build(cls, obj, defaults: bool = False, **convert):
    """An instance of the dataclass `cls` from the keys of `obj` named after
    its fields, read in field order, each value passed through its converter
    in `convert` if it has one. Other keys are ignored, as version 1 needs.
    With `defaults`, a field that has a default may be absent and keeps it;
    otherwise every field is required."""
    values = {}
    for spec in fields(cls):
        if defaults and spec.name not in obj and (
                spec.default is not MISSING or spec.default_factory is not MISSING):
            continue
        value = obj[spec.name]
        values[spec.name] = convert[spec.name](value) if spec.name in convert else value
    return cls(**values)


def read_record(cls, obj: dict, where, error: type):
    """The dataclass `cls` read from the JSON object `obj` (see `_build`): a
    field with a default may be absent, and the record's `validate` checks
    it, each field's value of its annotated type first. A missing field or a
    failed check raises `error` naming `where`."""
    try:
        return _build(cls, obj, defaults=True).validate()
    except KeyError as exc:
        raise error(f"{where}: missing required field {exc}") from exc
    except error as exc:
        raise error(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Bundle I/O
# ---------------------------------------------------------------------------

def load_bundle(directory: Union[str, Path], video_id: Optional[str] = None) -> VideoBundle:
    """Load and validate a bundle directory. Errors name file and line. When
    `video_id` is given, the manifest must name that video."""
    directory = Path(directory)
    manifest_path = directory / "manifest"
    if not manifest_path.is_file():
        raise DataFormatError(f"missing manifest file in {directory}")
    manifest = read_record(
        Manifest, parse_object(manifest_path.read_bytes(), manifest_path, DataFormatError),
        manifest_path, DataFormatError,
    )
    if video_id is not None and manifest.video_id != video_id:
        raise DataFormatError(
            f"{manifest_path}: names video {manifest.video_id!r}, not {video_id!r}"
        )
    bundle = VideoBundle(**vars(manifest))

    captions_path = directory / "captions"
    if captions_path.is_file():
        for line_no, line in read_lines(captions_path, DataFormatError):
            frame, text = _frame_line(captions_path, line_no, line, bundle.total_frames,
                                      bundle.captions, "caption")
            bundle.captions[frame] = text

    embeddings_path = directory / "embeddings"
    if embeddings_path.is_file():
        for line_no, line in read_lines(embeddings_path, DataFormatError):
            frame, text = _frame_line(embeddings_path, line_no, line, bundle.total_frames,
                                      bundle.embeddings, "floats")
            try:
                vector = Embedding(map(float, text.split()))
            except ValueError as exc:
                raise DataFormatError(
                    f"{embeddings_path}:{line_no}: bad float: {exc}"
                ) from exc
            if not vector:
                raise DataFormatError(f"{embeddings_path}:{line_no}: empty vector")
            if not all_finite(vector):
                raise DataFormatError(f"{embeddings_path}:{line_no}: non-finite value")
            bundle.embeddings[frame] = vector

    return bundle.validate()


def save_bundle(bundle: VideoBundle, directory: Union[str, Path]) -> Path:
    """Write a bundle directory in the documented layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {spec.name: getattr(bundle, spec.name) for spec in fields(Manifest)}
    (directory / "manifest").write_text(
        json.dumps(manifest, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    if bundle.captions:
        for frame, text in bundle.captions.items():
            if "\n" in text or "\r" in text:
                raise DataFormatError(
                    f"caption for frame {frame} contains a newline; captions are one-line records"
                )
        lines = [f"{frame}\t{text}" for frame, text in sorted(bundle.captions.items())]
        (directory / "captions").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if bundle.embeddings:
        lines = [
            f"{frame}\t" + " ".join(repr(x) for x in vector)
            for frame, vector in sorted(bundle.embeddings.items())
        ]
        (directory / "embeddings").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return directory


def _frame_line(path: Path, line_no: int, line: str, total_frames: int, seen: Container[int],
                expected: str) -> tuple[int, str]:
    """Split a `frame_index<TAB>rest` line. The index must be decimal digits
    ("²" is a digit that `int` rejects) naming a frame below `total_frames`
    that is not in `seen`, the frames of the file's earlier lines."""
    head, tab, text = line.partition("\t")
    head = head.strip()
    try:
        frame = int(head) if tab and head.isdecimal() else -1
    except ValueError:  # more digits than int() converts
        frame = -1
    if frame < 0:
        raise DataFormatError(f"{path}:{line_no}: expected frame_index<TAB>{expected}")
    if frame >= total_frames:
        raise DataFormatError(f"{path}:{line_no}: frame {frame} >= total_frames {total_frames}")
    if frame in seen:
        raise DataFormatError(f"{path}:{line_no}: frame {frame} given twice")
    return frame, text


def load_qa(path: Union[str, Path]) -> list[QAItem]:
    """Read QA items, one `QAItem` per line (see `read_record`)."""
    return [read_record(QAItem, obj, f"{path}:{line_no}", DataFormatError)
            for line_no, obj in read_objects(path, DataFormatError)]


def save_qa(items: Sequence[QAItem], path: Union[str, Path]) -> Path:
    """Write QA items, one record per line: each item's fields that are not None."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps({name: value for name, value in asdict(item).items() if value is not None},
                   sort_keys=True, ensure_ascii=False)
        for item in items
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Graph serialization
# ---------------------------------------------------------------------------

def replace_text(path: Path, text: str) -> None:
    """Write `path`, making its directory if need be, through a temporary
    file beside it and `os.replace`, so a failed write leaves the previous
    file whole. Any fault raises DataFormatError."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise DataFormatError(f"cannot write {path}: {exc}") from exc


def _fields(record) -> dict:
    """A dataclass instance's fields by name, read shallowly: a graph's frame
    lists are written as they are, not copied as `dataclasses.asdict` would.
    A field holding a dataclass becomes its fields, one holding a list of
    them (a session's rounds) the list of their fields, and one holding a
    dict of them (a graph's nodes or edges by id) the list of their fields
    in key order."""
    record_fields = {}
    for spec in fields(record):
        value = getattr(record, spec.name)
        if is_dataclass(value):
            value = _fields(value)
        elif isinstance(value, dict):
            value = [_fields(item) for _, item in sorted(value.items())]
        elif isinstance(value, list) and value and is_dataclass(value[0]):
            value = [_fields(item) for item in value]
        record_fields[spec.name] = value
    return record_fields


def save_graph(graph: VideoGraph) -> bytes:
    """Serialize a graph to a UTF-8 JSON document (exact float round-trip)."""
    payload = {"schema_version": GRAPH_SCHEMA_VERSION, **_fields(graph)}
    return (json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")


def _ascending(frames: list) -> list[int]:
    """`frames` as a list, which must ascend strictly: the graph searches
    its frame lists by bisection."""
    frames = list(frames)
    if any(a >= b for a, b in zip(frames, frames[1:])):
        raise ValueError(f"frame indices not strictly ascending: {frames}")
    return frames


def _feature(node_id, value) -> Optional[Embedding]:
    """A node's saved feature: null, or a vector (`graph.json_vector`)."""
    if value is None:
        return None
    vector = json_vector(value)
    if vector is None:
        raise DataFormatError(f"malformed graph payload: node {node_id!r} feature must be "
                              f"null or a nonempty list of finite numbers")
    return vector


def _node(obj) -> EntityNode:
    return _build(EntityNode, obj, entity_type=EntityType, frame_indices=_ascending,
                  feature=partial(_feature, obj["id"]),
                  state_history=lambda pairs: [(frame, label) for frame, label in pairs],
                  aliases=list)


def _edge(obj) -> RelationEdge:
    return _build(RelationEdge, obj, category=RelationCategory, frame_indices=_ascending)


def load_graph(blob: bytes) -> VideoGraph:
    """Parse bytes produced by save_graph back into a structurally equal graph."""
    try:
        payload = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # also invalid UTF-8
        raise DataFormatError(f"unreadable graph payload: {exc}") from exc
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise DataFormatError("graph payload missing schema_version")
    if payload["schema_version"] not in READABLE_GRAPH_SCHEMAS:
        raise SchemaVersionError(payload["schema_version"], READABLE_GRAPH_SCHEMAS)
    try:
        return _build(VideoGraph, payload, config=partial(_build, GraphConfig),
                      nodes=lambda objs: {node.id: node for node in map(_node, objs)},
                      edges=lambda objs: {edge.id: edge for edge in map(_edge, objs)},
                      processed_frames=_ascending)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed graph payload: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------

def question_digest(question: str) -> str:
    return hashlib.sha256(question.encode("utf-8")).hexdigest()


def transcript_record(session) -> dict:
    """Build the JSON record for a terminated session: its fields (see
    `_fields`), each round as its fields, and the values derived from them."""
    if session.terminated_by is None:
        raise ValueError("cannot persist a session that has not terminated")
    return {
        **_fields(session),
        "schema_version": TRANSCRIPT_SCHEMA_VERSION,
        "question_sha256": question_digest(session.question),
        "frames_used": len(session.selected_frames),
    }


def save_transcript(session, log: Log) -> None:
    """Append one session record to an open transcript log (see `lines`)."""
    log.append(transcript_record(session))


def load_transcripts(path: Union[str, Path]) -> list[dict]:
    """Read a transcript file's records (a torn tail is dropped, see `lines`)."""
    records = [record for _, record in read_log(path, DataFormatError)]
    for record in records:
        version = record.get("schema_version") if isinstance(record, dict) else None
        if version != TRANSCRIPT_SCHEMA_VERSION:
            raise SchemaVersionError(version, TRANSCRIPT_SCHEMA_VERSION)
    return records

