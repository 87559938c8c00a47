import pytest
from hypothesis import given, strategies as st

from vh2kg.errors import MalformedStep, MissingHeader
from vh2kg.scripts import (DEFAULT_VERBS, ActivityScript, ObjectRef, Step,
                           normalize_verb, parse_script, serialize_script,
                           validate_vocabulary)

SAMPLE = """Brush teeth
Clean teeth at the bathroom sink.
[WALK] <bathroom> (11)
[WALK] <toothbrush> (248)
[GRAB] <toothbrush> (248)
"""


def test_parse_header_and_steps():
    script = parse_script(SAMPLE, category="HygieneStyling")
    assert script.name == "Brush teeth"
    assert script.description.startswith("Clean teeth")
    assert script.category == "HygieneStyling"
    assert len(script.steps) == 3
    assert script.steps[0] == Step("walk", ObjectRef("bathroom", 11))
    assert script.steps[2].verb == "grab"


def test_two_object_step():
    text = "Tidy\nPut it back.\n[PUTOBJBACK] <mug> (196) <table> (232)\n"
    script = parse_script(text)
    step = script.steps[0]
    assert step.verb == "putBack"
    assert step.main_object == ObjectRef("mug", 196)
    assert step.target_object == ObjectRef("table", 232)


def test_verb_normalization_variants():
    assert normalize_verb("SWITCHON") == "switchOn"
    assert normalize_verb("TURNTO") == "turnTo"
    assert normalize_verb("TURNT0") == "turnTo"
    assert normalize_verb("PUTOBJBACK") == "putBack"
    assert normalize_verb("STANDUP") == "standUp"


def test_every_vocabulary_verb_normalizes_from_upper_case():
    for verb in DEFAULT_VERBS:
        assert normalize_verb(verb.upper()) == verb


def test_unknown_verb_is_lower_camel_cased():
    assert normalize_verb("TELEPORT") == "teleport"
    assert normalize_verb("PUT_ON_TOP") == "putOnTop"


@pytest.mark.parametrize("bad", [
    "[WALK] bathroom (11)",        # missing angle brackets
    "[walk] <bathroom> (11)",      # lowercase verb token
    "[WALK] <bathroom> (x)",       # non-numeric id
    "[WALK] <bathroom> (11) junk", # trailing garbage
    "WALK <bathroom> (11)",        # missing square brackets
])
def test_malformed_steps(bad):
    with pytest.raises(MalformedStep):
        parse_script(f"Name\nDesc.\n{bad}\n")


def test_missing_header():
    with pytest.raises(MissingHeader):
        parse_script("")
    with pytest.raises(MissingHeader):
        parse_script("\n\n[WALK] <bathroom> (11)\n")


def test_round_trip_fixture_scripts():
    from vh2kg.fixtures import load_fixture_scripts
    for script in load_fixture_scripts():
        text = serialize_script(script)
        again = parse_script(text, category=script.category)
        assert again.steps == script.steps
        assert again.name == script.name
        assert serialize_script(again) == text


def test_validate_vocabulary_flags_unknown():
    script = ActivityScript("X", "d", "Other",
                            [Step("walk", ObjectRef("door", 1)),
                             Step("teleport", ObjectRef("door", 1))])
    assert validate_vocabulary(script) == [(1, "teleport")]


_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7A),
    min_size=1, max_size=8)
_verbs = st.sampled_from(["walk", "grab", "open", "close", "sit", "standUp",
                          "switchOn", "putBack", "lookAt", "turnTo"])


@st.composite
def _steps(draw):
    verb = draw(_verbs)
    if verb == "standUp":
        return Step(verb)
    main = ObjectRef(draw(_names), draw(st.integers(0, 999)))
    if verb == "putBack":
        target = ObjectRef(draw(_names), draw(st.integers(0, 999)))
        return Step(verb, main, target)
    return Step(verb, main)


@given(st.lists(_steps(), min_size=1, max_size=12), _names)
def test_round_trip_property(steps, name):
    script = ActivityScript(name, "generated", "Other", steps)
    again = parse_script(serialize_script(script))
    assert again.steps == script.steps
    assert again.name == script.name
