from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvqa.errors import LexiconError
from graphvqa.parsing import (
    STOPWORDS,
    EntityType,
    Lexicon,
    RelationCategory,
    default_lexicon,
    lemmatize,
    load_lexicon,
    parse_caption,
    parse_question,
)


def mentions_of(caption, lex):
    return list(parse_caption(caption, 0, lex).mentions)


def lemmas(mentions):
    return [m.lemma for m in mentions]


def triple_tuples(triples):
    return [(t.subject.lemma, t.predicate, t.category, t.object.lemma) for t in triples]


# -- mentions ----------------------------------------------------------------

def test_mentions_drop_determiners_pronouns_and_verbs(lex):
    mentions = mentions_of("The dog shows its angry face towards the person", lex)
    assert lemmas(mentions) == ["dog", "face", "person"]


def test_mentions_empty_caption(lex):
    assert mentions_of("", lex) == []


def test_mentions_deterministic(lex):
    caption = "a person takes the toy from the dog"
    first = mentions_of(caption, lex)
    second = mentions_of(caption, lex)
    assert lemmas(first) == ["person", "toy", "dog"]
    assert first == second


def test_mentions_duplicate_lemmas_keep_first_span(lex):
    mentions = mentions_of("the dog watches the other dog", lex)
    assert lemmas(mentions) == ["dog"]
    assert mentions[0].char_span == (4, 7)


def test_mentions_plural_singularized(lex):
    assert lemmas(mentions_of("the dogs chase the balls", lex)) == ["dog", "ball"]


def test_mention_spans_slice_to_surface(lex):
    caption = "The dog shows its angry face towards the person"
    for mention in mentions_of(caption, lex):
        start, end = mention.char_span
        assert 0 <= start < end <= len(caption)
        assert caption[start:end] == mention.surface


# -- entity typing ----------------------------------------------------------------

def types(mentions):
    return [(m.lemma, m.entity_type) for m in mentions]


def test_classify_gazetteer_hit(lex):
    assert types(mentions_of("the person", lex)) == [("person", EntityType.PERSON)]


def test_classify_unlisted_defaults_to_object(lex):
    assert types(mentions_of("the zxqv", lex)) == [("zxqv", EntityType.OBJECT)]


def test_classify_irregular_plural_person_nouns_are_groups(lex):
    for word in ("children", "people", "men", "women"):
        assert types(mentions_of(f"the {word}", lex)) == [(word, EntityType.GROUP)]


def test_parse_never_leaves_unknown_types(lex):
    # there is no Unknown type: unlisted nouns are typed Object
    parse = parse_caption("the zxqv meets the wibble near the fnord", 0, lex)
    assert parse.mentions
    assert all(m.entity_type is EntityType.OBJECT for m in parse.mentions)


# -- triples --------------------------------------------------------------------

def test_triples_action_take(lex):
    parse = parse_caption("the person takes the toy", 0, lex)
    assert triple_tuples(parse.triples) == [("person", "take", RelationCategory.ACTION, "toy")]
    triple = parse.triples[0]
    assert types([triple.subject, triple.object]) == [
        ("person", EntityType.PERSON), ("toy", EntityType.OBJECT),
    ]


def test_triples_interaction_bark_and_shipped_lexicon(lex):
    assert "bark" in lex.interaction_verbs
    parse = parse_caption("the dog barks at the person", 0, lex)
    assert triple_tuples(parse.triples) == [
        ("dog", "bark", RelationCategory.INTERACTION, "person")
    ]


def test_triples_require_two_mentions(lex):
    assert parse_caption("a dog", 0, lex).triples == ()
    assert parse_caption("the dog chases the other dog", 0, lex).triples == ()


def test_preposition_absorbed_after_verb(lex):
    parse = parse_caption("the dog plays with the toy", 0, lex)
    assert triple_tuples(parse.triples) == [("dog", "play", RelationCategory.ACTION, "toy")]


def test_free_preposition_forms_spatial_triple(lex):
    parse = parse_caption("a person takes the toy from the dog", 0, lex)
    assert triple_tuples(parse.triples) == [
        ("person", "take", RelationCategory.ACTION, "toy"),
        ("toy", "from", RelationCategory.SPATIAL, "dog"),
    ]


def test_triples_do_not_cross_sentences(lex):
    parse = parse_caption("the boy sits. the girl holds the cup", 0, lex)
    assert triple_tuples(parse.triples) == [
        ("girl", "hold", RelationCategory.ACTION, "cup")
    ]


def test_triples_ordered_by_predicate_position(lex):
    parse = parse_caption("the boy gives the toy and the girl takes the ball", 0, lex)
    assert [t.predicate for t in parse.triples] == ["give", "take"]


# -- parse_caption -------------------------------------------------------------

def test_parse_caption_state_event(lex):
    parse = parse_caption("the dog becomes angry", 41, lex)
    assert parse.frame_index == 41
    assert [(m.lemma, label) for m, label in parse.state_events] == [("dog", "angry")]


def test_parse_caption_empty(lex):
    parse = parse_caption("", 0, lex)
    assert parse.frame_index == 0
    assert parse.mentions == ()
    assert parse.triples == ()
    assert parse.state_events == ()


def test_parse_caption_shared_subject_across_conjunction(lex):
    parse = parse_caption("the boy holds the sword and gets excited", 55, lex)
    assert triple_tuples(parse.triples) == [
        ("boy", "hold", RelationCategory.ACTION, "sword")
    ]
    assert [(m.lemma, label) for m, label in parse.state_events] == [("boy", "excited")]


def test_parse_caption_new_clause_new_subject(lex):
    parse = parse_caption("the dog sits and the boy gets excited", 0, lex)
    assert [(m.lemma, label) for m, label in parse.state_events] == [("boy", "excited")]


def test_state_verb_fixed_label(lex):
    parse = parse_caption("the girl smiles", 3, lex)
    assert [(m.lemma, label) for m, label in parse.state_events] == [("girl", "happy")]


def test_complement_that_is_a_mention_yields_no_event(lex):
    parse = parse_caption("the boy gets the toy", 2, lex)
    assert parse.state_events == ()


def test_negative_frame_rejected(lex):
    with pytest.raises(ValueError):
        parse_caption("the dog sits", -1, lex)


def test_caption_parse_triples_reference_listed_mentions(lex):
    parse = parse_caption("the person takes the toy from the dog", 9, lex)
    listed = set(lemmas(parse.mentions))
    for triple in parse.triples:
        assert triple.subject.lemma in listed
        assert triple.object.lemma in listed
        assert triple.subject.lemma != triple.object.lemma


# -- parse_question -------------------------------------------------------------

def test_parse_question_entities_and_verb_predicates(lex):
    query = parse_question("why did the dog bark at the person?", [], lex)
    assert lemmas(query.entities) == ["dog", "person"]


def test_parse_question_default_typing(lex):
    query = parse_question("what color?", [], lex)
    assert [(m.lemma, m.entity_type) for m in query.entities] == [
        ("color", EntityType.OBJECT)
    ]


def test_parse_question_unions_option_mentions(lex):
    query = parse_question(
        "what did the person do?", ["held the toy", "slept"], lex
    )
    assert "toy" in lemmas(query.entities)


def test_parse_question_rejects_empty_or_excess(lex):
    with pytest.raises(ValueError):
        parse_question("", [], lex)
    with pytest.raises(ValueError):
        parse_question("ok?", ["a"] * 6, lex)


# -- lexicon loading -------------------------------------------------------------

PREDICATE_SETS = ("spatial_preps", "interaction_verbs", "action_verbs", "state_verbs")


@pytest.mark.parametrize("set_a,set_b", itertools.combinations(PREDICATE_SETS, 2))
def test_lexicon_sets_disjoint_enforced(set_a, set_b):
    sets = {name: frozenset() for name in PREDICATE_SETS}
    sets[set_a] = frozenset({"grow", "near", "shout"})
    sets[set_b] = frozenset({"shout", "grow"})
    sets["state_verbs"] = dict.fromkeys(sets["state_verbs"], "*")
    with pytest.raises(LexiconError) as info:
        Lexicon(**sets, type_gazetteer={})
    assert str(info.value) == f"lexicon sets {set_a} and {set_b} overlap: ['grow', 'shout']"


def test_gazetteer_word_with_a_role_is_both_a_mention_and_a_predicate(lex):
    grown = Lexicon(
        spatial_preps=lex.spatial_preps,
        interaction_verbs=lex.interaction_verbs,
        action_verbs=lex.action_verbs,
        state_verbs=lex.state_verbs,
        type_gazetteer={**lex.type_gazetteer, "cook": EntityType.PERSON},
    )
    assert grown.roles["cook"] is RelationCategory.ACTION
    parse = parse_caption("the man cooks the egg", 0, grown)
    assert types(parse.mentions) == [
        ("man", EntityType.PERSON), ("cook", EntityType.PERSON), ("egg", EntityType.OBJECT),
    ]
    assert triple_tuples(parse.triples) == [("man", "cook", RelationCategory.ACTION, "egg")]


def test_shipped_lexicon_contains_mandatory_seeds(lex):
    assert {"in", "on", "at"} <= set(lex.spatial_preps)
    assert {"talk", "meet", "speak"} <= set(lex.interaction_verbs)
    assert {"open", "close", "hold"} <= set(lex.action_verbs)


def test_load_lexicon_from_files(tmp_path):
    (tmp_path / "spatial_preps.txt").write_text("# comment\nIn\non\n\n", encoding="utf-8")
    (tmp_path / "interaction_verbs.txt").write_text("talk\n", encoding="utf-8")
    (tmp_path / "action_verbs.txt").write_text("hold\n", encoding="utf-8")
    (tmp_path / "state_verbs.tsv").write_text("become\t*\n", encoding="utf-8")
    (tmp_path / "type_gazetteer.tsv").write_text("person\tPerson\n", encoding="utf-8")
    loaded = load_lexicon(tmp_path)
    assert loaded.spatial_preps == frozenset({"in", "on"})
    assert loaded.roles == {
        "in": RelationCategory.SPATIAL, "on": RelationCategory.SPATIAL,
        "talk": RelationCategory.INTERACTION, "hold": RelationCategory.ACTION, "become": "*",
    }


def test_load_lexicon_rejects_bad_state_line(tmp_path):
    (tmp_path / "spatial_preps.txt").write_text("on\n", encoding="utf-8")
    (tmp_path / "interaction_verbs.txt").write_text("talk\n", encoding="utf-8")
    (tmp_path / "action_verbs.txt").write_text("hold\n", encoding="utf-8")
    (tmp_path / "state_verbs.tsv").write_text("become\n", encoding="utf-8")
    (tmp_path / "type_gazetteer.tsv").write_text("person\tPerson\n", encoding="utf-8")
    with pytest.raises(LexiconError):
        load_lexicon(tmp_path)


@pytest.mark.parametrize("file,text,message", [
    ("state_verbs.tsv", "become\t*\nsmile\thappy\nBecome\tangry\n",
     "state_verbs.tsv: 'become' listed with labels '*' and 'angry'"),
    ("type_gazetteer.tsv", "person\tPerson\ncook\tObject\nperson\tGroup\n",
     "type_gazetteer.tsv: 'person' listed with types 'Person' and 'Group'"),
])
def test_load_lexicon_rejects_a_lemma_listed_with_two_values(tmp_path, file, text, message):
    (tmp_path / "spatial_preps.txt").write_text("on\n", encoding="utf-8")
    (tmp_path / "interaction_verbs.txt").write_text("talk\n", encoding="utf-8")
    (tmp_path / "action_verbs.txt").write_text("hold\n", encoding="utf-8")
    (tmp_path / "state_verbs.tsv").write_text("become\t*\nbecome\t*\n", encoding="utf-8")
    (tmp_path / "type_gazetteer.tsv").write_text("person\tPerson\nperson\tPerson\n",
                                                 encoding="utf-8")
    assert load_lexicon(tmp_path).state_verbs == {"become": "*"}  # a same-valued repeat loads
    (tmp_path / file).write_text(text, encoding="utf-8")
    with pytest.raises(LexiconError) as info:
        load_lexicon(tmp_path)
    assert str(info.value) == message


# -- lemmatizer -------------------------------------------------------------------

@pytest.mark.parametrize(
    "word,expected",
    [
        ("takes", "take"),
        ("barks", "bark"),
        ("watches", "watch"),
        ("becomes", "become"),
        ("holding", "hold"),
        ("opened", "open"),
        ("dogs", "dog"),
        ("carries", "carry"),
        ("grass", "grass"),
    ],
)
def test_lemmatize_suffix_rules(lex, word, expected):
    assert lemmatize(word, lex.vocabulary) == expected


# -- invariants / properties -------------------------------------------------------

def check_deterministic_and_spans_sound(text):
    lex = default_lexicon()
    first = parse_caption(text, 0, lex)
    second = parse_caption(text, 0, lex)
    assert first == second
    for mention in first.mentions:
        start, end = mention.char_span
        assert 0 <= start < end <= len(text)
        assert mention.surface in text[start:end]
    return first


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=80))
def test_parse_deterministic_and_spans_sound(text):
    check_deterministic_and_spans_sound(text)


# Captions built from the words the parser acts on: every lexicon lemma and
# stopword, with and without an inflection or possessive, joined by spaces,
# coordinators, commas and sentence breaks.
_WORDS = st.tuples(
    st.sampled_from(sorted(default_lexicon().vocabulary | STOPWORDS)),
    st.sampled_from(["", "", "", "s", "es", "ing", "ed", "'s"]),
).map("".join)
_JOINS = st.sampled_from(
    [" ", " ", " ", " and ", " but ", " then ", " or ", " while ", ", ", ". ", "! ", "? ", "; "]
)
lexicon_captions = st.lists(st.tuples(_WORDS, _JOINS), max_size=16).map(
    lambda parts: "".join(word + join for word, join in parts)
)


@settings(max_examples=300, deadline=None)
@given(lexicon_captions)
def test_lexicon_caption_properties(caption):
    lex = default_lexicon()
    parse = check_deterministic_and_spans_sound(caption)
    assert all(isinstance(m.entity_type, EntityType) for m in parse.mentions)
    sets = {
        RelationCategory.SPATIAL: lex.spatial_preps,
        RelationCategory.INTERACTION: lex.interaction_verbs,
        RelationCategory.ACTION: lex.action_verbs,
    }
    for triple in parse.triples:
        assert triple.subject in parse.mentions
        assert triple.object in parse.mentions
        assert triple.subject.lemma != triple.object.lemma
        membership = [c for c, tokens in sets.items() if triple.predicate in tokens]
        assert membership == [triple.category]


def test_triple_closure_predicates_in_exactly_one_set(lex):
    captions = [
        "the person takes the toy from the dog",
        "the dog barks at the person in the garden",
        "the boy gives the ball to the girl",
    ]
    sets = {
        RelationCategory.SPATIAL: lex.spatial_preps,
        RelationCategory.INTERACTION: lex.interaction_verbs,
        RelationCategory.ACTION: lex.action_verbs,
    }
    for caption in captions:
        for triple in parse_caption(caption, 0, lex).triples:
            membership = [c for c, tokens in sets.items() if triple.predicate in tokens]
            assert membership == [triple.category]


def _with_extra_action_verb(lex, verb):
    return Lexicon(
        spatial_preps=lex.spatial_preps,
        interaction_verbs=lex.interaction_verbs,
        action_verbs=frozenset(set(lex.action_verbs) | {verb}),
        state_verbs=lex.state_verbs,
        type_gazetteer=lex.type_gazetteer,
    )


def test_lexicon_growth_is_additive(lex):
    # "snatch" is unknown, so only the spatial triple appears; adding it
    # keeps the old triple (the prep is not adjacent to the new verb).
    caption = "the dog snatches the toy hastily from the person"
    before = set(triple_tuples(parse_caption(caption, 0, lex).triples))
    grown = _with_extra_action_verb(lex, "snatch")
    after = set(triple_tuples(parse_caption(caption, 0, grown).triples))
    assert before <= after
    assert ("dog", "snatch", RelationCategory.ACTION, "toy") in after


def test_lexicon_growth_absorption_exception(lex):
    # Documented exception: the new verb sits right before a preposition, so
    # the prep becomes its particle and the spatial triple is replaced.
    # (Before growth the unknown "lunges" reads as a noun mention.)
    caption = "the dog lunges at the person"
    before = triple_tuples(parse_caption(caption, 0, lex).triples)
    assert ("lunge", "at", RelationCategory.SPATIAL, "person") in before
    grown = _with_extra_action_verb(lex, "lunge")
    after = triple_tuples(parse_caption(caption, 0, grown).triples)
    assert after == [("dog", "lunge", RelationCategory.ACTION, "person")]
