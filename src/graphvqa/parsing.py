"""Rule-based extraction of entities, relation triples, and state events from frame captions.

The pipeline is deliberately model-free so extraction is deterministic and
auditable: every decision traces back to a lexicon file or a rule below.

One pass over the text tokenizes on word boundaries, keeping character
offsets; lemmatizes each token with a small suffix table (-ies, -es, -s,
-ing, -ed), preferring candidates that land on a known lexicon word; and
decides once whether the token is a noun: listed in the type gazetteer, or
neither a stopword nor in any verb/preposition lexicon. Every step below
reads that one token list.

1. Mentions = the noun tokens, typed from the gazetteer when they are made
   (a lemma it does not list is an Object). Duplicate lemmas in one text
   collapse to the first occurrence.
2. Triples = (subject, predicate, object) where the predicate token sits
   strictly between the two nearest noun occurrences in the same sentence.
   A spatial preposition whose nearest preceding content token is an
   interaction/action verb is treated as that verb's particle ("plays with",
   "barks at") and emits no triple of its own.
3. State events = (clause subject, state label) for each state-verb token.
   Complement-valued state verbs ("become", "get", ...) take the following
   content word as the label; fixed-label verbs ("smile" -> "happy") carry
   their label from the lexicon.

Pronouns are dropped, never resolved; cross-caption identity is the graph's
job (lemma merging).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .errors import LexiconError


class EntityType(str, Enum):
    PERSON = "Person"
    LOCATION = "Location"
    OBJECT = "Object"
    GROUP = "Group"
    UNKNOWN = "Unknown"


class RelationCategory(str, Enum):
    SPATIAL = "Spatial"
    INTERACTION = "Interaction"
    ACTION = "Action"


# Marker used in state_verbs files for complement-valued verbs.
COMPLEMENT_LABEL = "*"

# Tokens never eligible as mentions. Lexicon membership always wins over this
# list, so a word can be promoted to predicate status by a lexicon file.
STOPWORDS = frozenset("""
a an the this that these those my your his her its our their
i you he she it we they me him us them myself yourself himself herself itself
ourselves themselves who whom whose which what when where why how
someone somebody something anyone anybody anything everyone everybody
everything nobody nothing none
is am are was were be been being do does did doing done have has had having
will would shall should can could may might must
don't doesn't didn't isn't aren't wasn't weren't can't couldn't won't
wouldn't shouldn't hasn't haven't hadn't
and or but so because if then than as while after before since until unless
though although yet nor
of to for about
not never always often sometimes usually again too also just only very really
quite almost nearly now later soon early late here there away back
quickly slowly suddenly loudly quietly happily angrily sadly together
yes no oh okay ok please
angry happy sad excited scared afraid upset calm tired bored curious
surprised worried nervous proud young old big small little large tall short
long wide narrow new red blue green yellow black white brown gray grey pink
purple orange good bad nice fine beautiful pretty ugly hot cold warm dark
bright other another such same different few many much more most several own
one two three first second third
""".split())

# Determiners and degree adverbs skipped when resolving a state verb's
# complement ("becomes very angry" -> "angry").
_COMPLEMENT_SKIP = frozenset(
    "a an the this that his her its their my your our very really quite so too "
    "rather somewhat extremely more most".split()
)

# Clause coordinators: followed by a verb they continue the clause (shared
# subject), followed by a mention they start a new one. Commas act the same
# way via the token's comma_before flag.
_COORDINATORS = frozenset({"and", "but", "then", "or", "so", "while"})

_TOKEN_RE = re.compile(r"[^\W\d_]+(?:['’-][^\W\d_]+)*", re.UNICODE)
_SENTENCE_BREAK_RE = re.compile(r"[.!?;]")


@dataclass(frozen=True)
class Lexicon:
    """Predicate lexicons and the entity-type gazetteer.

    The four predicate sets (spatial_preps, interaction_verbs, action_verbs,
    state_verbs keys) are pairwise disjoint; conflicts are rejected at load
    time. All entries are lowercase and lookups are case-insensitive.
    """

    spatial_preps: frozenset[str]
    interaction_verbs: frozenset[str]
    action_verbs: frozenset[str]
    state_verbs: Mapping[str, str]
    type_gazetteer: Mapping[str, EntityType]

    def __post_init__(self):
        sets = [
            ("spatial_preps", set(self.spatial_preps)),
            ("interaction_verbs", set(self.interaction_verbs)),
            ("action_verbs", set(self.action_verbs)),
            ("state_verbs", set(self.state_verbs)),
        ]
        for i, (name_a, set_a) in enumerate(sets):
            for name_b, set_b in sets[i + 1:]:
                clash = set_a & set_b
                if clash:
                    raise LexiconError(
                        f"lexicon sets {name_a} and {name_b} overlap: {sorted(clash)}"
                    )

    def predicate_category(self, lemma: str) -> Optional[RelationCategory]:
        lemma = lemma.lower()
        if lemma in self.spatial_preps:
            return RelationCategory.SPATIAL
        if lemma in self.interaction_verbs:
            return RelationCategory.INTERACTION
        if lemma in self.action_verbs:
            return RelationCategory.ACTION
        return None

    def is_verb(self, lemma: str) -> bool:
        lemma = lemma.lower()
        return (
            lemma in self.interaction_verbs
            or lemma in self.action_verbs
            or lemma in self.state_verbs
        )

    def is_predicate_word(self, lemma: str) -> bool:
        lemma = lemma.lower()
        return lemma in self.spatial_preps or self.is_verb(lemma)

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        """Every known lemma; used to steer suffix-rule lemmatization."""
        return frozenset(
            set(self.spatial_preps)
            | set(self.interaction_verbs)
            | set(self.action_verbs)
            | set(self.state_verbs)
            | set(self.type_gazetteer)
        )


@dataclass(frozen=True)
class Mention:
    """One extracted entity reference within a single text."""

    surface: str
    lemma: str
    entity_type: EntityType
    char_span: tuple[int, int]


@dataclass(frozen=True)
class ExtractedTriple:
    subject: Mention
    predicate: str
    category: RelationCategory
    object: Mention


@dataclass(frozen=True)
class CaptionParse:
    """Everything extracted from one frame caption."""

    frame_index: int
    mentions: tuple[Mention, ...]
    triples: tuple[ExtractedTriple, ...]
    state_events: tuple[tuple[Mention, str], ...]


@dataclass(frozen=True)
class QueryParse:
    """Question-side extraction: the entities to look for."""

    entities: tuple[Mention, ...]
    raw_question: str


# ---------------------------------------------------------------------------
# Lexicon loading
# ---------------------------------------------------------------------------

def _read_lines(path: Path) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise LexiconError(f"lexicon file {path} is not valid UTF-8: {exc}") from exc
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def _load_token_set(path: Path) -> frozenset[str]:
    tokens = set()
    for line in _read_lines(path):
        if "\t" in line or " " in line:
            raise LexiconError(f"{path.name}: expected one token per line, got {line!r}")
        tokens.add(line.lower())
    return frozenset(tokens)


def _load_state_verbs(path: Path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise LexiconError(f"{path.name}: expected lemma<TAB>state_label, got {line!r}")
        mapping[parts[0].lower()] = parts[1].lower()
    return mapping


def _load_gazetteer(path: Path) -> dict[str, EntityType]:
    mapping: dict[str, EntityType] = {}
    valid = {t.value: t for t in EntityType if t is not EntityType.UNKNOWN}
    for line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"{path.name}: expected lemma<TAB>type, got {line!r}")
        lemma, type_name = parts[0].lower(), parts[1]
        if type_name not in valid:
            raise LexiconError(f"{path.name}: unknown entity type {type_name!r} for {lemma!r}")
        mapping[lemma] = valid[type_name]
    return mapping


def load_lexicon(directory: str | Path) -> Lexicon:
    """Load a lexicon from a directory of plain-text files.

    Expected files: spatial_preps.txt, interaction_verbs.txt, action_verbs.txt,
    state_verbs.tsv, type_gazetteer.tsv. UTF-8, one entry per line, `#` starts
    a comment line.
    """
    directory = Path(directory)
    return Lexicon(
        spatial_preps=_load_token_set(directory / "spatial_preps.txt"),
        interaction_verbs=_load_token_set(directory / "interaction_verbs.txt"),
        action_verbs=_load_token_set(directory / "action_verbs.txt"),
        state_verbs=_load_state_verbs(directory / "state_verbs.tsv"),
        type_gazetteer=_load_gazetteer(directory / "type_gazetteer.tsv"),
    )


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package."""
    data_dir = resources.files("graphvqa") / "data"
    with resources.as_file(data_dir) as path:
        return load_lexicon(path)



# ---------------------------------------------------------------------------
# Tokenization and lemmatization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    text: str
    lower: str
    lemma: str
    start: int
    end: int
    sentence: int
    comma_before: bool
    is_noun: bool


def lemmatize(token: str, vocabulary: Iterable[str] = ()) -> str:
    """Singularize/normalize a lowercase token with a small suffix table.

    Candidates produced by a rule are checked against `vocabulary`; the first
    known candidate wins, otherwise the rule's primary candidate is used.
    """
    token = token.lower()
    vocab = vocabulary if isinstance(vocabulary, (set, frozenset)) else frozenset(vocabulary)
    if token in vocab:
        return token

    candidates: list[str] = []
    if token.endswith("ies") and len(token) > 4:
        candidates.append(token[:-3] + "y")
    elif token.endswith("es") and len(token) > 3:
        if token[-3] in "hsxzo":  # watches, classes, boxes, buzzes, goes
            candidates.extend([token[:-2], token[:-1]])
        else:  # takes, becomes
            candidates.extend([token[:-1], token[:-2]])
    elif token.endswith("s") and not token.endswith("ss") and len(token) > 3:
        candidates.append(token[:-1])
    elif token.endswith("ing") and len(token) > 4:
        stem = token[:-3]
        candidates.append(stem)
        candidates.append(stem + "e")
        if len(stem) > 2 and stem[-1] == stem[-2]:
            candidates.append(stem[:-1])
    elif token.endswith("ed") and len(token) > 3:
        stem = token[:-2]
        candidates.append(stem)
        candidates.append(stem + "e" if not stem.endswith("e") else stem[:-1])
        if len(stem) > 2 and stem[-1] == stem[-2]:
            candidates.append(stem[:-1])

    for candidate in candidates:
        if candidate in vocab:
            return candidate
    return candidates[0] if candidates else token


def _analyze(text: str, lex: Lexicon) -> list[_Token]:
    """The one pass over a text that every extraction step reads."""
    vocab = lex.vocabulary
    breaks = [m.start() for m in _SENTENCE_BREAK_RE.finditer(text)]
    tokens = []
    sentence = 0
    previous_end = 0
    for match in _TOKEN_RE.finditer(text):
        while sentence < len(breaks) and match.start() > breaks[sentence]:
            sentence += 1
        word = match.group()
        lower = word.lower()
        # a match ends in a letter, so the only suffix to strip is a possessive 's
        if lower.endswith(("'s", "’s")):
            word, lower = word[:-2], lower[:-2]
        lemma = lemmatize(lower, vocab)
        # a noun: listed in the gazetteer, or neither a stopword nor a predicate word
        is_noun = lemma in lex.type_gazetteer or not (
            lower in STOPWORDS or lemma in STOPWORDS or lex.is_predicate_word(lemma)
        )
        tokens.append(_Token(
            word, lower, lemma, match.start(), match.start() + len(word), sentence,
            "," in text[previous_end:match.start()], is_noun,
        ))
        previous_end = match.end()
    return tokens


# ---------------------------------------------------------------------------
# Extraction operations
# ---------------------------------------------------------------------------

def _mentions(tokens: Sequence[_Token], lex: Lexicon) -> dict[str, Mention]:
    """One typed mention per noun lemma, at its first occurrence."""
    by_lemma: dict[str, Mention] = {}
    for token in tokens:
        if token.is_noun and token.lemma not in by_lemma:
            by_lemma[token.lemma] = Mention(
                surface=token.text,
                lemma=token.lemma,
                entity_type=lex.type_gazetteer.get(token.lemma, EntityType.OBJECT),
                char_span=(token.start, token.end),
            )
    return by_lemma


def extract_mentions(caption: str, lex: Optional[Lexicon] = None) -> list[Mention]:
    """Extract entity mentions from a caption.

    Deterministic: duplicate lemmas collapse to one mention keeping the first
    span. Empty caption yields an empty list. Each mention is typed from the
    gazetteer; a lemma the gazetteer does not list is an Object.
    """
    lex = lex or default_lexicon()
    return list(_mentions(_analyze(caption, lex), lex).values())


def _absorbed_by_verb(tokens: Sequence[_Token], index: int, lex: Lexicon) -> bool:
    """True if the spatial prep at `index` rides on a preceding verb.

    Scans left within the sentence, skipping stopwords; a hit on an
    interaction/action verb means the prep is the verb's particle.
    """
    sentence = tokens[index].sentence
    for j in range(index - 1, -1, -1):
        tok = tokens[j]
        if tok.sentence != sentence:
            return False
        if tok.lower in STOPWORDS and not lex.is_predicate_word(tok.lemma):
            continue
        category = lex.predicate_category(tok.lemma)
        return category in (RelationCategory.INTERACTION, RelationCategory.ACTION)
    return False


def _nearest_noun(tokens: Sequence[_Token], index: int, step: int) -> Optional[_Token]:
    """The first noun from `index` in direction `step` (-1 or 1), within its sentence."""
    sentence = tokens[index].sentence
    j = index + step
    while 0 <= j < len(tokens) and tokens[j].sentence == sentence:
        if tokens[j].is_noun:
            return tokens[j]
        j += step
    return None


def _triples(tokens: Sequence[_Token], by_lemma: Mapping[str, Mention],
             lex: Lexicon) -> list[ExtractedTriple]:
    """Relation triples linking mention pairs through lexicon predicates.

    Subject is the nearest noun left of the predicate, object the nearest on
    the right, both within the predicate's sentence. Output is ordered by
    predicate position; exact duplicates are collapsed.
    """
    triples: list[ExtractedTriple] = []
    emitted: set[tuple[str, str, str]] = set()
    for i, tok in enumerate(tokens):
        category = lex.predicate_category(tok.lemma)
        if category is None:
            continue
        if category is RelationCategory.SPATIAL and _absorbed_by_verb(tokens, i, lex):
            continue
        left = _nearest_noun(tokens, i, -1)
        right = _nearest_noun(tokens, i, 1)
        if left is None or right is None or left.lemma == right.lemma:
            continue
        key = (left.lemma, tok.lemma, right.lemma)
        if key in emitted:
            continue
        emitted.add(key)
        triples.append(ExtractedTriple(by_lemma[left.lemma], tok.lemma, category, by_lemma[right.lemma]))
    return triples


def _state_label(tokens: Sequence[_Token], index: int, lex: Lexicon) -> Optional[str]:
    """Resolve the label for the state verb at `index`, or None to skip."""
    mapped = lex.state_verbs[tokens[index].lemma]
    if mapped != COMPLEMENT_LABEL:
        return mapped
    sentence = tokens[index].sentence
    for tok in tokens[index + 1:]:
        if tok.sentence != sentence:
            return None
        if tok.lower in _COMPLEMENT_SKIP:
            continue
        # a noun complement ("gets the toy") is an object, not a state
        if tok.is_noun:
            return None
        return tok.lower
    return None


def _state_events(
    tokens: Sequence[_Token], by_lemma: Mapping[str, Mention], lex: Lexicon
) -> list[tuple[Mention, str]]:
    """Clause-subject tracking: the first mention before any verb owns the
    clause; a coordinator followed by a verb continues it, followed by a
    mention starts a fresh clause."""
    events: list[tuple[Mention, str]] = []
    seen: set[tuple[str, str]] = set()
    subject: Optional[Mention] = None
    seen_verb = False
    sentence = -1
    for i, tok in enumerate(tokens):
        if tok.sentence != sentence:
            sentence = tok.sentence
            subject, seen_verb = None, False
        elif tok.comma_before and tok.lower not in _COORDINATORS and not lex.is_verb(tok.lemma):
            subject, seen_verb = None, False
        if tok.lower in _COORDINATORS:
            nxt = next(
                (t for t in tokens[i + 1:] if t.sentence == sentence and t.lower not in STOPWORDS),
                None,
            )
            if nxt is not None and not lex.is_verb(nxt.lemma):
                subject, seen_verb = None, False
            continue
        if tok.is_noun:
            if not seen_verb:
                subject = by_lemma[tok.lemma]
            continue
        if tok.lemma in lex.state_verbs:
            seen_verb = True
            if subject is None:
                continue
            label = _state_label(tokens, i, lex)
            if label and (subject.lemma, label) not in seen:
                seen.add((subject.lemma, label))
                events.append((subject, label))
        elif lex.is_predicate_word(tok.lemma):
            seen_verb = True
    return events


def parse_caption(caption: str, frame_index: int, lex: Optional[Lexicon] = None) -> CaptionParse:
    """Full per-caption extraction: mentions, triples, and state events."""
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    lex = lex or default_lexicon()
    tokens = _analyze(caption, lex)
    by_lemma = _mentions(tokens, lex)
    return CaptionParse(
        frame_index=frame_index,
        mentions=tuple(by_lemma.values()),
        triples=tuple(_triples(tokens, by_lemma, lex)),
        state_events=tuple(_state_events(tokens, by_lemma, lex)),
    )


def parse_question(question: str, options: Sequence[str], lex: Optional[Lexicon] = None) -> QueryParse:
    """Extract query entities from a question plus options.

    Entities are the union over question and option texts, deduplicated by
    lemma (question first).
    """
    if not question:
        raise ValueError("question must be nonempty")
    if len(options) > 5:
        raise ValueError(f"at most 5 options supported, got {len(options)}")
    lex = lex or default_lexicon()

    entities: dict[str, Mention] = {}
    for text in [question, *options]:
        for lemma, mention in _mentions(_analyze(text, lex), lex).items():
            entities.setdefault(lemma, mention)
    return QueryParse(tuple(entities.values()), question)
