"""Parsing and serialization of activity scripts.

A script file is UTF-8 text: line 1 is the activity name, line 2 a free-text
description, and every following non-blank line one step of the form

    [VERB] <object_name> (id) [<object_name2> (id2)]

Verb tokens are upper-case in source form and normalized to lowerCamel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import MalformedStep, MissingHeader

CATEGORIES = (
    "BedTimeSleep",
    "EatingDrinking",
    "FoodPreparation",
    "GettingReady",
    "HouseArrangement",
    "HouseCleaning",
    "HygieneStyling",
    "Leisure",
    "PhysicalActivity",
    "SocialInteraction",
    "Work",
    "Other",
)

#: Canonical lowerCamel action vocabulary (open set; these are the seeds).
DEFAULT_VERBS = frozenset({
    "walk", "find", "sit", "standUp", "grab", "switchOn", "switchOff",
    "open", "close", "putBack", "drink", "touch", "lookAt", "turnTo",
    "watch", "pour", "read", "lie",
})

# Source-form token -> canonical verb.  "TURNT0" (zero) appears in real
# datasets alongside "TURNTO" and is mapped to the same verb.
_NORMALIZATION = ({v.upper(): v for v in DEFAULT_VERBS}
                  | {"PUTOBJBACK": "putBack", "TURNT0": "turnTo"})

#: Verbs that take no object at all.
ZERO_OBJECT_VERBS = frozenset({"standUp"})
#: Verbs that require both a main and a target object.
TWO_OBJECT_VERBS = frozenset({"putBack", "pour"})


@dataclass(frozen=True)
class ObjectRef:
    name: str
    id: int

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"object id must be non-negative: {self.id}")


@dataclass(frozen=True)
class Step:
    verb: str
    main_object: ObjectRef | None = None
    target_object: ObjectRef | None = None
    inserted: bool = False  # set by repair-mode auto-inserted walk steps

    def __post_init__(self):
        if self.target_object is not None and self.main_object is None:
            raise ValueError("target object without main object")


@dataclass
class ActivityScript:
    name: str
    description: str = ""
    category: str = "Other"
    steps: list[Step] = field(default_factory=list)

    def __post_init__(self):
        if not self.name:
            raise ValueError("activity name must be non-empty")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown activity category {self.category!r}")


_STEP_RE = re.compile(r"^\[([A-Z0-9_]+)\]((?:\s*<[^<>]+>\s*\(\d+\))*)\s*$")
_OBJ_RE = re.compile(r"<([^<>]+)>\s*\((\d+)\)")


def normalize_verb(token: str) -> str:
    """Map a source-form token like "SWITCHON" to its canonical verb.

    Tokens outside the normalization table are lower-camel-cased from their
    underscore form.
    """
    canonical = _NORMALIZATION.get(token)
    if canonical is None:
        parts = token.lower().split("_")
        canonical = parts[0] + "".join(p.capitalize() for p in parts[1:])
    return canonical


def parse_script(text: str, name: str | None = None,
                 category: str = "Other") -> ActivityScript:
    """Parse script source into an ActivityScript.

    `name`/`category` override or supplement the header (scripts do not
    encode a category).  Unknown verbs are kept and can be surfaced with
    validate_vocabulary().
    """
    lines = text.split("\n")
    if len(lines) < 2:
        raise MissingHeader("script needs a name line and a description line")
    header_name = lines[0].strip()
    description = lines[1].strip()
    if not header_name and not name:
        raise MissingHeader("empty activity name")

    steps: list[Step] = []
    for line_no, raw in enumerate(lines[2:], start=3):
        line = raw.strip()
        if not line:
            continue
        m = _STEP_RE.match(line)
        if not m:
            raise MalformedStep(line_no, raw)
        verb = normalize_verb(m.group(1))
        objs = [ObjectRef(n, int(i)) for n, i in _OBJ_RE.findall(m.group(2))]
        if len(objs) > 2:
            raise MalformedStep(line_no, raw, "more than two objects")
        if verb in ZERO_OBJECT_VERBS and objs:
            raise MalformedStep(line_no, raw, f"{verb} takes no object")
        if verb in TWO_OBJECT_VERBS and len(objs) != 2:
            raise MalformedStep(line_no, raw, f"{verb} needs two objects")
        if verb not in ZERO_OBJECT_VERBS and not objs:
            raise MalformedStep(line_no, raw, f"{verb} needs an object")
        steps.append(Step(verb, *objs))
    return ActivityScript(name or header_name, description, category, steps)


def serialize_script(script: ActivityScript) -> str:
    """Render a script back to source text; parse_script round-trips it."""
    lines = [script.name, script.description]
    for step in script.steps:
        parts = [f"[{step.verb.upper()}]"]
        for obj in (step.main_object, step.target_object):
            if obj is not None:
                parts.append(f"<{obj.name}> ({obj.id})")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def validate_vocabulary(script: ActivityScript) -> list[tuple[int, str]]:
    """Return (step index, verb) for every step whose verb is not in
    DEFAULT_VERBS."""
    return [(i, s.verb) for i, s in enumerate(script.steps)
            if s.verb not in DEFAULT_VERBS]

