"""Rule-based extraction of entities, relation triples, and state events from frame captions.

The pipeline is deliberately model-free so extraction is deterministic and
auditable: every decision traces back to a lexicon file or a rule below.

One pass over the text yields its sentences (the runs between the breaks
. ! ? ;), each a list of tokens. It tokenizes on word boundaries, keeping
character offsets into the whole text; lemmatizes each token with a small
suffix table (-ies, -es, -s, -ing, -ed), preferring candidates that land on
a known lexicon word; looks the lemma up once in the one word-role table,
`Lexicon.roles`, so each token carries its role; and decides once whether
the token is a noun: listed in the type gazetteer, or neither a stopword nor
a word with a role. Every step below reads those sentences one at a time,
never the lexicon's predicate sets, so no fact spans a sentence break.

1. Mentions = the noun tokens, typed from the gazetteer when they are made
   (a lemma it does not list is an Object). Duplicate lemmas in one text
   collapse to the first occurrence.
2. Triples = (subject, predicate, object) where the predicate token sits
   strictly between the two nearest noun occurrences in its sentence.
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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import AbstractSet, Mapping, Optional, Sequence

from .errors import LexiconError
from .lines import read_lines


class EntityType(str, Enum):
    PERSON = "Person"
    LOCATION = "Location"
    OBJECT = "Object"
    GROUP = "Group"


class RelationCategory(str, Enum):
    SPATIAL = "Spatial"
    INTERACTION = "Interaction"
    ACTION = "Action"


# Marker used in state_verbs files for complement-valued verbs.
COMPLEMENT_LABEL = "*"

# A predicate word's role (see `Lexicon.roles`): its RelationCategory, or a
# state verb's label (COMPLEMENT_LABEL for a complement-valued verb).
Role = RelationCategory | str

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
_SENTENCE_RE = re.compile(r"[^.!?;]+")


@dataclass(frozen=True)
class Lexicon:
    """Predicate lexicons and the entity-type gazetteer.

    Building a lexicon makes `roles`, the one table mapping each predicate word
    to its `Role`. A word has one role at most: the four predicate sets
    (spatial_preps, interaction_verbs, action_verbs, state_verbs keys) must be
    pairwise disjoint. Every word of them, every state label and every
    gazetteer lemma must be lowercase, as looked-up lemmas and complement
    labels are; `load_lexicon` lowercases what it reads, and a hand-built
    lexicon holding a word that is not lowercase raises LexiconError naming
    its set.
    """

    spatial_preps: frozenset[str]
    interaction_verbs: frozenset[str]
    action_verbs: frozenset[str]
    state_verbs: Mapping[str, str]
    type_gazetteer: Mapping[str, EntityType]
    roles: Mapping[str, Role] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sets = [
            ("spatial_preps", dict.fromkeys(self.spatial_preps, RelationCategory.SPATIAL)),
            ("interaction_verbs",
             dict.fromkeys(self.interaction_verbs, RelationCategory.INTERACTION)),
            ("action_verbs", dict.fromkeys(self.action_verbs, RelationCategory.ACTION)),
            ("state_verbs", self.state_verbs),
        ]
        for name, words in [*sets, ("state_verbs labels", self.state_verbs.values()),
                            ("type_gazetteer", self.type_gazetteer)]:
            if cased := sorted(word for word in words if word != word.lower()):
                raise LexiconError(f"lexicon set {name} holds words that are not lowercase: "
                                   f"{cased}")
        for i, (name_a, roles_a) in enumerate(sets):
            for name_b, roles_b in sets[i + 1:]:
                clash = roles_a.keys() & roles_b.keys()
                if clash:
                    raise LexiconError(
                        f"lexicon sets {name_a} and {name_b} overlap: {sorted(clash)}"
                    )
        object.__setattr__(self, "roles", {w: r for _, roles in sets for w, r in roles.items()})

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        """Every known lemma; used to steer suffix-rule lemmatization."""
        return frozenset(self.roles).union(self.type_gazetteer)


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


# ---------------------------------------------------------------------------
# Lexicon loading
# ---------------------------------------------------------------------------

def _read_lines(path: Path) -> list[str]:
    return [line.strip() for _, line in read_lines(path, LexiconError)]


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
        lemma, label = parts[0].lower(), parts[1].lower()
        if mapping.setdefault(lemma, label) != label:
            raise LexiconError(
                f"{path.name}: {lemma!r} listed with labels {mapping[lemma]!r} and {label!r}")
    return mapping


def _load_gazetteer(path: Path) -> dict[str, EntityType]:
    mapping: dict[str, EntityType] = {}
    valid = {t.value: t for t in EntityType}
    for line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"{path.name}: expected lemma<TAB>type, got {line!r}")
        lemma, type_name = parts[0].lower(), parts[1]
        if type_name not in valid:
            raise LexiconError(f"{path.name}: unknown entity type {type_name!r} for {lemma!r}")
        if mapping.setdefault(lemma, valid[type_name]) is not valid[type_name]:
            raise LexiconError(f"{path.name}: {lemma!r} listed with types "
                               f"{mapping[lemma].value!r} and {type_name!r}")
    return mapping


def load_lexicon(directory: str | Path) -> Lexicon:
    """Load a lexicon from a directory of plain-text files.

    Expected files: spatial_preps.txt, interaction_verbs.txt, action_verbs.txt,
    state_verbs.tsv, type_gazetteer.tsv: line files (see `lines`) holding
    one entry per line.
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
    comma_before: bool
    is_noun: bool
    role: Optional[Role]
    is_verb: bool  # an interaction, action or state verb: a role other than Spatial


def lemmatize(token: str, vocabulary: AbstractSet[str] = frozenset()) -> str:
    """Singularize/normalize a lowercase token with a small suffix table.

    Candidates produced by a rule are checked against the set `vocabulary`; the
    first known candidate wins, otherwise the rule's primary candidate is used.
    """
    token = token.lower()
    if token in vocabulary:
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
        if candidate in vocabulary:
            return candidate
    return candidates[0] if candidates else token


def _analyze(text: str, lex: Lexicon) -> list[list[_Token]]:
    """The one pass over a text that every extraction step reads: its
    sentences (the runs between breaks), each a list of tokens whose spans
    are offsets into `text`."""
    vocab, roles = lex.vocabulary, lex.roles
    sentences = []
    for run in _SENTENCE_RE.finditer(text):
        tokens = []
        previous_end = run.start()
        for match in _TOKEN_RE.finditer(text, run.start(), run.end()):
            word = match.group()
            lower = word.lower()
            # a match ends in a letter, so the only suffix to strip is a possessive 's
            if lower.endswith(("'s", "’s")):
                word, lower = word[:-2], lower[:-2]
            lemma = lemmatize(lower, vocab)
            role = roles.get(lemma)
            # a noun: listed in the gazetteer, or neither a stopword nor a predicate word
            is_noun = lemma in lex.type_gazetteer or not (
                lower in STOPWORDS or lemma in STOPWORDS or role is not None
            )
            tokens.append(_Token(
                word, lower, lemma, match.start(), match.start() + len(word),
                "," in text[previous_end:match.start()], is_noun, role,
                role is not None and role is not RelationCategory.SPATIAL,
            ))
            previous_end = match.end()
        sentences.append(tokens)
    return sentences


# ---------------------------------------------------------------------------
# Extraction operations
# ---------------------------------------------------------------------------

def _mentions(sentences: Sequence[Sequence[_Token]], lex: Lexicon) -> dict[str, Mention]:
    """One typed mention per noun lemma, at its first occurrence."""
    by_lemma: dict[str, Mention] = {}
    for sentence in sentences:
        for token in sentence:
            if token.is_noun and token.lemma not in by_lemma:
                by_lemma[token.lemma] = Mention(
                    surface=token.text,
                    lemma=token.lemma,
                    entity_type=lex.type_gazetteer.get(token.lemma, EntityType.OBJECT),
                    char_span=(token.start, token.end),
                )
    return by_lemma


def _absorbed_by_verb(before: Sequence[_Token]) -> bool:
    """True if a spatial prep rides on a preceding verb: the nearest of
    `before`, its sentence's tokens left of it, that is not a stopword is an
    interaction/action verb, so the prep is the verb's particle."""
    for tok in reversed(before):
        if tok.lower in STOPWORDS and tok.role is None:
            continue
        return tok.role is RelationCategory.INTERACTION or tok.role is RelationCategory.ACTION
    return False


def _triples(sentences: Sequence[Sequence[_Token]], by_lemma: Mapping[str, Mention]
             ) -> list[ExtractedTriple]:
    """Relation triples linking mention pairs through lexicon predicates.

    Subject is the nearest noun left of the predicate, object the nearest on
    the right, both within the predicate's sentence. Output is ordered by
    predicate position; exact duplicates are collapsed.
    """
    triples: dict[tuple[str, str, str], ExtractedTriple] = {}
    for sentence in sentences:
        for i, tok in enumerate(sentence):
            if not isinstance(tok.role, RelationCategory):
                continue
            before = sentence[:i]
            if tok.role is RelationCategory.SPATIAL and _absorbed_by_verb(before):
                continue
            left = next((t for t in reversed(before) if t.is_noun), None)
            right = next((t for t in sentence[i + 1:] if t.is_noun), None)
            if left is None or right is None or left.lemma == right.lemma:
                continue
            key = (left.lemma, tok.lemma, right.lemma)
            if key not in triples:
                triples[key] = ExtractedTriple(
                    by_lemma[left.lemma], tok.lemma, tok.role, by_lemma[right.lemma])
    return list(triples.values())


def _state_label(role: str, after: Sequence[_Token]) -> Optional[str]:
    """The label of a state verb with `role`, given `after`, its sentence's
    tokens right of it; None to skip."""
    if role != COMPLEMENT_LABEL:
        return role
    for tok in after:
        if tok.lower in _COMPLEMENT_SKIP:
            continue
        # a noun complement ("gets the toy") is an object, not a state
        return None if tok.is_noun else tok.lower
    return None


def _state_events(sentences: Sequence[Sequence[_Token]], by_lemma: Mapping[str, Mention]
                  ) -> list[tuple[Mention, str]]:
    """Clause-subject tracking: the first mention before any verb owns the
    clause; a coordinator followed by a verb continues it, followed by a
    mention starts a fresh clause. Each sentence starts a fresh clause."""
    events: dict[tuple[str, str], tuple[Mention, str]] = {}
    for sentence in sentences:
        subject: Optional[Mention] = None
        seen_verb = False
        for i, tok in enumerate(sentence):
            if tok.comma_before and tok.lower not in _COORDINATORS and not tok.is_verb:
                subject, seen_verb = None, False
            if tok.lower in _COORDINATORS:
                nxt = next((t for t in sentence[i + 1:] if t.lower not in STOPWORDS), None)
                if nxt is not None and not nxt.is_verb:
                    subject, seen_verb = None, False
                continue
            if tok.is_noun:
                if not seen_verb:
                    subject = by_lemma[tok.lemma]
                continue
            if tok.role is None:
                continue
            seen_verb = True
            # a state verb's role is its label, not a RelationCategory
            if subject is None or isinstance(tok.role, RelationCategory):
                continue
            label = _state_label(tok.role, sentence[i + 1:])
            if label:
                events.setdefault((subject.lemma, label), (subject, label))
    return list(events.values())


def parse_caption(caption: str, frame_index: int, lex: Optional[Lexicon] = None) -> CaptionParse:
    """Full per-caption extraction: mentions, triples, and state events."""
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    lex = lex or default_lexicon()
    sentences = _analyze(caption, lex)
    by_lemma = _mentions(sentences, lex)
    return CaptionParse(
        frame_index=frame_index,
        mentions=tuple(by_lemma.values()),
        triples=tuple(_triples(sentences, by_lemma)),
        state_events=tuple(_state_events(sentences, by_lemma)),
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
    return QueryParse(tuple(entities.values()))
