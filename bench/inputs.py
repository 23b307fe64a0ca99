"""Seeded benchmark inputs: videos, captions, embeddings and QA items.

Every input comes from a fixed pool, so the reference outcomes stored in
``reference.json`` hold for any ``--seed``; the seed picks which pool
videos a run uses.

- Captions are drawn from the shipped gazetteer and lexicon files, so
  Spatial, Interaction and Action triples and ``becomes <state>`` events
  all occur. Each video has a cast sized for the Few, Mid or Many
  entity-count bucket; each scene of ``SCENE_LEN`` frames stages a few
  cast members in one location.
- Videos that share a *shape* (the eval videos of one bucket) are the
  same script with different words: which slot speaks, acts or moves in
  each frame is drawn from the shape, and each video maps the slots to its
  own nouns and verbs. Seeds therefore change the words
  and videos of a run but not how much work it is, so the spread between
  runs measures the machine rather than the draw.
- Frame embeddings drift smoothly within a scene (cosine about 0.88 from
  first to last frame), so ``VideoGraph.upsert_entity`` takes its
  similarity-merge path. A remote embedding request names only the frame
  number, so the embedding of frame N is the same for every video.
- The stub answers chat from the ``Question:`` line and the number of
  ``frame N:`` lines alone (``chat_reply``). The phrase a question ends
  with sets its class: confident after 1, 2 or 3 rounds, or never (the
  session ends at the round limit). A run asks as many questions of each
  class: the mix is an assumption of the benchmark, chosen so that every
  way a session can end is timed, not a share measured from users or
  reported by the source paper.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np

POOL_SEED = 20250127
SCENE_LEN = 500
EVAL_FRAMES = 20_000
BUCKETS = ("Few", "Mid", "Many")
EVAL_VIDEOS_PER_BUCKET = 3
QUESTIONS_PER_VIDEO = 12
EMBED_DIM = 256
OPTIONS = 5
# Frames in the prompt at which a question's session turns confident, by
# class; None never does. 5 initial frames, then 3 more per retrieval round.
CONFIDENT_AT = (5, 8, 11, None)
CLASS_PHRASES = ("at the start", "in the middle", "near the end", "at any point")

BUCKET_CAST = {"Few": (1, 1, 0), "Mid": (2, 2, 1), "Many": (5, 4, 2)}  # persons, objects, groups
LOCATIONS = {"Few": 1, "Mid": 3, "Many": 3}
OBJECTS = (
    "cup", "ball", "book", "sword", "toy", "box", "phone", "bag", "chair", "table",
    "bottle", "hat", "key", "lamp", "dog", "cat", "bike", "guitar", "basket", "plate",
)
STATES = ("angry", "happy", "sad", "excited", "tired", "calm", "scared", "curious")
FIXED_STATE_VERBS = ("smiles", "cries", "yawns", "frowns")
SPATIAL = ("in", "on", "near", "under", "behind", "beside", "inside", "above")
QUESTION_WORDS = (("first", "later", "again"), ("color", "size", "shape"))

_FRAME_LINE = re.compile(r"^frame \d+:", re.MULTILINE)
_QUESTION_LINE = re.compile(r"^Question: (.*)$", re.MULTILINE)


def _digest(*parts) -> bytes:
    return hashlib.sha256("\x00".join(str(p) for p in parts).encode("utf-8")).digest()


def _rng(*parts) -> random.Random:
    return random.Random(int.from_bytes(_digest(POOL_SEED, *parts)[:8], "big"))


def _third_person(verb: str) -> str:
    if verb.endswith(("s", "sh", "ch", "x", "z")):
        return verb + "es"
    if verb.endswith("y") and verb[-2] not in "aeiou":
        return verb[:-1] + "ies"
    return verb + "s"


def _words(path: Path) -> list[str]:
    return [
        line.strip() for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


class Vocabulary:
    """Nouns and verbs read from the package's shipped lexicon files."""

    def __init__(self, data_dir: Path):
        gazetteer: dict[str, list[str]] = {}
        for line in _words(data_dir / "type_gazetteer.tsv"):
            lemma, kind = line.split("\t")
            gazetteer.setdefault(kind, []).append(lemma)
        self.persons = sorted(gazetteer["Person"])
        self.groups = sorted(gazetteer["Group"])
        self.locations = sorted(gazetteer["Location"])
        self.interaction = sorted(_words(data_dir / "interaction_verbs.txt"))
        self.action = sorted(_words(data_dir / "action_verbs.txt"))
        self.spatial = [p for p in SPATIAL if p in _words(data_dir / "spatial_preps.txt")]


class Video:
    """One pool video: a cast, and captions staged scene by scene."""

    def __init__(self, video_id: str, bucket: str, vocab: Vocabulary, shape: str):
        self.video_id = video_id
        self.bucket = bucket
        self.shape = shape
        rng = _rng("words", video_id)
        n_persons, n_objects, n_groups = BUCKET_CAST[bucket]
        self.actors = rng.sample(vocab.persons, n_persons) + rng.sample(vocab.groups, n_groups)
        self.objects = rng.sample(OBJECTS, n_objects)
        self.locations = rng.sample(vocab.locations, LOCATIONS[bucket])
        # Verb and adjective lists in this video's own order: a slot index
        # drawn from the shape picks a different word in each video.
        self.interaction = rng.sample(vocab.interaction, len(vocab.interaction))
        self.action = rng.sample(vocab.action, len(vocab.action))
        self.spatial = rng.sample(vocab.spatial, len(vocab.spatial))
        self.states = rng.sample(STATES, len(STATES))
        self.fixed_states = rng.sample(FIXED_STATE_VERBS, len(FIXED_STATE_VERBS))

    def caption(self, frame: int) -> str:
        """Caption of `frame`: a seeded function of (video, frame)."""
        scene = _rng("scene", self.shape, frame // SCENE_LEN)
        location = self.locations[scene.randrange(len(self.locations))]
        thing = self.objects[scene.randrange(len(self.objects))]
        rng = _rng("frame", self.shape, frame)
        n = len(self.actors)
        a = rng.randrange(n)
        actor = self.actors[a]
        other = self.actors[(a + 1 + rng.randrange(n - 1)) % n] if n > 1 else None
        pick = lambda words: words[rng.randrange(len(words))]  # noqa: E731
        kind = rng.randrange(6)
        if kind == 0 and other:
            text = f"the {actor} {_third_person(pick(self.interaction))} the {other}"
        elif kind in (0, 1):
            text = f"the {actor} {_third_person(pick(self.action))} the {thing}"
        elif kind == 2:
            text = f"the {thing} is {pick(self.spatial)} the {location}"
        elif kind == 3:
            text = f"the {actor} {_third_person(pick(self.action))} the {thing} and becomes {pick(self.states)}"
        elif kind == 4:
            text = f"the {actor} {pick(self.fixed_states)} in the {location}"
        else:
            text = f"the {actor} is {pick(self.spatial)} the {location}"
        if rng.random() < 0.3 and other:
            text += f", while the {other} {_third_person(pick(self.interaction))} the {actor}"
        return text


def eval_videos(vocab: Vocabulary) -> list[Video]:
    return [Video(f"ev{i}", BUCKETS[i % 3], vocab, shape=BUCKETS[i % 3])
            for i in range(EVAL_VIDEOS_PER_BUCKET * len(BUCKETS))]


def frame_embeddings(frames, dim: int = EMBED_DIM) -> np.ndarray:
    """Unit vectors for frame indices; within a scene they drift smoothly.

    Frame f of scene s = f // SCENE_LEN is base_s + 0.5 t dir_s + noise, with
    t the frame's position in the scene, so frames of one scene stay close.
    A frame's vector does not depend on which other frames are asked for.
    """
    frames = np.asarray(frames, dtype=np.int64)
    out = np.empty((len(frames), dim))
    scenes = frames // SCENE_LEN
    for s in np.unique(scenes):
        rows = np.nonzero(scenes == s)[0]
        seed = int.from_bytes(_digest(POOL_SEED, "emb", s)[:8], "big")
        block = np.random.Generator(np.random.PCG64(seed)).random((SCENE_LEN + 2, dim)) * 2.0 - 1.0
        base, direction, noise = block[0], block[1], block[2:]
        offsets = frames[rows] % SCENE_LEN
        t = offsets / SCENE_LEN
        out[rows] = base + 0.5 * t[:, None] * direction + 0.05 * noise[offsets]
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def text_embedding(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Unit vector for a query text, keyed by its word count and last three
    words only, so a question slot is embedded alike in every video of a
    shape (the words in between differ from video to video)."""
    words = text.split()
    key = f"{len(words)}:{' '.join(words[-3:])}"
    gen = np.random.Generator(np.random.PCG64(int.from_bytes(_digest(POOL_SEED, "text", key)[:8], "big")))
    vector = gen.random(dim) * 2.0 - 1.0
    return vector / np.linalg.norm(vector)


# ---------------------------------------------------------------------------
# Questions and the stub's chat rule
# ---------------------------------------------------------------------------

def question_class(question: str) -> int:
    for index, phrase in enumerate(CLASS_PHRASES):
        if question.endswith(f" {phrase}?"):
            return index
    return len(CLASS_PHRASES) - 1


def question_answer(question: str) -> int:
    return _digest("answer", question)[0] % OPTIONS


def chat_reply(prompt: str) -> str:
    """The stub's reply: a function of the Question line and frame count only."""
    match = _QUESTION_LINE.search(prompt)
    question = match.group(1) if match else ""
    frames = len(_FRAME_LINE.findall(prompt))
    need = CONFIDENT_AT[question_class(question)]
    if need is not None and frames >= need:
        confidence, missing = 3, "none"
    else:
        confidence, missing = (2 if frames >= 8 else 1), "what happens next"
    letter = chr(ord("A") + question_answer(question))
    return (f"The captions so far point one way.\nanswer: {letter}\n"
            f"confidence: {confidence}\nmissing: {missing}")


def questions_for(video: Video) -> list[dict]:
    """QA records about objects that appear in the video's captions; slot i
    has class i % 4, and videos of one shape ask the same slots in their
    own words."""
    rng = _rng("qa", video.shape)
    items: list[dict] = []
    seen: set[tuple] = set()
    while len(items) < QUESTIONS_PER_VIDEO:
        slot = len(items)
        t, kind, w = rng.randrange(len(video.objects)), rng.randrange(3), rng.randrange(len(video.action))
        states = rng.sample(range(len(STATES)), OPTIONS)
        answer = rng.randrange(OPTIONS)
        if (t, kind, w % 3 if kind else w, slot % 4) in seen:
            continue
        seen.add((t, kind, w % 3 if kind else w, slot % 4))
        thing, phrase = video.objects[t], CLASS_PHRASES[slot % 4]
        if kind == 0:
            category, question = "Causal", f"why does someone {video.action[w]} the {thing} {phrase}?"
        elif kind == 1:
            category, question = "Temporal", f"what is done with the {thing} {QUESTION_WORDS[0][w % 3]} {phrase}?"
        else:
            category, question = "Descriptive", f"which {QUESTION_WORDS[1][w % 3]} is the {thing} {phrase}?"
        items.append({
            "video_id": video.video_id,
            "question": question,
            "options": [f"it was {video.states[i]}" for i in states],
            "answer_index": answer,
            "category": category,
        })
    return items


# ---------------------------------------------------------------------------
# Seeded selection and files on disk
# ---------------------------------------------------------------------------

def eval_selection(seed: int, videos: list[Video]) -> list[dict]:
    """QA items for one run: from one seeded pool video of each bucket, the
    first question of each class (slots 0-3), in slot order."""
    rng = random.Random(seed)
    chosen = [rng.choice([v for v in videos if v.bucket == bucket]) for bucket in BUCKETS]
    questions = [questions_for(v) for v in chosen]
    return [q[slot] for slot in range(len(CLASS_PHRASES)) for q in questions]


def write_manifest(directory: Path, video_id: str, total_frames: int) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"video_id": video_id, "total_frames": total_frames, "fps": None,
                "embedding_dim": EMBED_DIM}
    (directory / "manifest").write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")


def write_qa(path: Path, items: list[dict]) -> None:
    path.write_text("".join(json.dumps(i, sort_keys=True) + "\n" for i in items), encoding="utf-8")
