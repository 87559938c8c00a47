"""Build event-centric knowledge graphs from simulation traces.

One trace becomes: an activity node typed by category, numbered events with
before/after situations, per-object state chains with shape geometry, and
affordance/attribute links.  Each object gets a state node in situation 0
and a new one after each step whose ``changed_object_ids`` names it;
otherwise the previous state instance is reused as part of the new
situation.

What every activity over a scene repeats is worked out once per scene: a
node table, cached on the trace's situation-0 graph and keyed by the scene
id and the affordance table's value, holds each node's IRI, its scene
triples (class, room type or height, affordances, attributes), its IRI
stem and its situation-0 bbox literals and state tokens.  Every document
over the scene holds the table's scene ``Triple``s themselves, so a corpus
merged with ``doc.update(build_activity_kg(...))`` keeps one object per
scene triple.  An object that no step of the trace changes emits its
situation-0 state block from the table, then one ``partOf`` per later
situation; only changed objects walk ``state_indices``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import schema as S
from .errors import InvalidTrace
from .home import (PROPERTY_VERBS, EnvironmentGraph, ObjectNode, afforded_verbs,
                   check_name)
from .rdf import EX, KgDocument, _as_triple, _paused_gc, decimal, integer, string
from .simulate import Trace


def snake_case(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


@dataclass(frozen=True)
class ActivityMeta:
    name: str
    category: str = "Other"
    description: str = ""
    scene_id: str = "scene1"
    index: int = 0


class IriFactory:
    """Deterministic instance-IRI minting for one (activity, scene) pair."""

    def __init__(self, activity_name: str, activity_index: int, scene_id: str):
        if activity_index < 0:
            raise ValueError("activity index must be non-negative")
        self.slug = snake_case(activity_name)
        self.k = activity_index
        self.scene = check_name("scene id", scene_id)
        self.local = f"{self.slug}{self.k}_{scene_id}"  # activity local name

    @classmethod
    def for_meta(cls, meta: ActivityMeta) -> "IriFactory":
        return cls(meta.name, meta.index, meta.scene_id)

    def activity(self) -> str:
        return EX + self.local

    def event(self, n: int) -> str:
        return EX + f"event{n}_{self.local}"

    def situation(self, n: int) -> str:
        return EX + f"home_situation{n}_{self.local}"

    def object(self, node: ObjectNode) -> str:
        return EX + f"{node.class_name}{node.id}_{self.scene}"

    def agent(self) -> str:
        return EX + f"character1_{self.scene}"

    def state(self, n: int, stem: str) -> str:
        """The state node, in situation ``n``, of the node whose IRI stem
        (class name and id) is ``stem``."""
        return EX + f"state{n}_{stem}_{self.local}"

    def shape(self, n: int, stem: str) -> str:
        return EX + f"shape{n}_{stem}_{self.local}"

    def height(self, node: ObjectNode) -> str:
        return EX + f"height_{node.class_name}{node.id}_{self.scene}"

    def scene_iri(self) -> str:
        return EX + self.scene


def node_iri(factory: IriFactory, node: ObjectNode) -> str:
    """The IRI that names ``node`` in the graph: the agent's or an object's."""
    return factory.agent() if node.is_agent else factory.object(node)


def state_indices(trace: Trace, node_id: int) -> list[int]:
    """Per situation, the index of the situation that minted the object's
    current state node: situation 0, then each situation after a step whose
    ``changed_object_ids`` names the object."""
    indices = [0]
    for n, tr in enumerate(trace.transitions, 1):
        indices.append(n if node_id in tr.changed_object_ids else indices[-1])
    return indices


def build_activity_kg(trace: Trace, meta: ActivityMeta,
                      affordance_table=None) -> KgDocument:
    if len(trace.situations) != len(trace.transitions) + 1:
        raise InvalidTrace("trace must carry one more situation than transitions")
    with _paused_gc():
        return KgDocument(triples=_emit_activity(trace, meta, affordance_table))


def _emit_activity(trace: Trace, meta: ActivityMeta,
                   affordance_table) -> list:
    """The activity's ``Triple``s: its own, and its scene's from the table."""
    out = []

    def add(*triples):
        out.extend(map(_as_triple, triples))

    f = IriFactory.for_meta(meta)
    activity = f.activity()
    agent_iri = f.agent()
    n_events = len(trace.transitions)
    # one string per event and situation IRI, however many triples name it
    events = [f.event(n) for n in range(n_events)]
    situations = [f.situation(n) for n in range(len(trace.situations))]

    category_class = S.CATEGORY_CLASSES.get(meta.category, S.CATEGORY_CLASSES["Other"])
    add((activity, S.RDF_TYPE, category_class),
        (activity, S.RDF_TYPE, S.ACTIVITY),
        (category_class, S.RDFS_SUBCLASS, S.ACTIVITY),
        (activity, S.RDFS_LABEL, string(meta.name)))
    if meta.description:
        add((activity, S.RDFS_COMMENT, string(meta.description)))
    # round per-event durations first so the stored total is exactly their
    # sum even after fixed-point serialization
    rounded = [round(tr.duration_seconds, 9) for tr in trace.transitions]
    add((activity, S.AGENT, agent_iri),
        (activity, S.VIRTUAL_HOME, f.scene_iri()),
        (activity, S.TIME_PROP, decimal(sum(rounded))),
        (agent_iri, S.RDF_TYPE, S.CHARACTER))

    # events
    env0 = trace.situations[0].graph
    for n, tr in enumerate(trace.transitions):
        ev = events[n]
        add((activity, S.HAS_EVENT, ev),
            (ev, S.RDF_TYPE, S.EVENT),
            (ev, S.EVENT_NUMBER, integer(n)),
            (ev, S.ACTION, S.action_iri(tr.step.verb)),
            (ev, S.AGENT, agent_iri),
            (ev, S.SITUATION_BEFORE, situations[n]),
            (ev, S.SITUATION_AFTER, situations[n + 1]),
            (ev, S.TIME_PROP, decimal(rounded[n])))
        if n == n_events - 1:
            add((ev, S.RDF_TYPE, S.END_EVENT))
        if tr.step.main_object is not None:
            add((ev, S.MAIN_OBJECT, node_iri(f, env0.node(tr.step.main_object.id))))
        if tr.step.target_object is not None:
            add((ev, S.TARGET_OBJECT, node_iri(f, env0.node(tr.step.target_object.id))))
        if n > 0:
            add((ev, S.PREVIOUS_EVENT, events[n - 1]))
        if n < n_events - 1:
            add((ev, S.NEXT_EVENT, events[n + 1]))
        if tr.start_room_id == tr.end_room_id:
            add((ev, S.PLACE, f.object(env0.node(tr.end_room_id))))
        else:
            add((ev, S.FROM, f.object(env0.node(tr.start_room_id))),
                (ev, S.TO, f.object(env0.node(tr.end_room_id))))

    # situations
    add(*((situation, S.RDF_TYPE, S.SITUATION) for situation in situations))

    # objects, states, shapes
    changed = frozenset().union(*(tr.changed_object_ids for tr in trace.transitions))
    later = situations[1:]
    for node_id, iri, scene_triples, stem, literals, tokens in _node_table(
            env0, f, affordance_table):
        out.extend(scene_triples)
        if literals is None:  # a room has no state
            continue
        prev = f.state(0, stem)
        add(*_state_triples(prev, f.shape(0, stem), iri, situations[0],
                            literals, tokens))
        if node_id not in changed:
            add(*[(prev, S.PART_OF, situation) for situation in later])
            continue
        for n, minted in enumerate(state_indices(trace, node_id)[1:], 1):
            if minted != n:
                add((prev, S.PART_OF, situations[n]))
                continue
            current = trace.situations[n].graph.node(node_id)
            state_iri = f.state(n, stem)
            add(*_state_triples(state_iri, f.shape(n, stem), iri,
                                situations[n], _bbox_literals(current),
                                _state_tokens(current)),
                (prev, S.NEXT_STATE, state_iri),
                (state_iri, S.PREVIOUS_STATE, prev))
            prev = state_iri
    return out


def _bbox_literals(node: ObjectNode) -> tuple:
    return tuple(map(decimal, (*node.bbox.center, *node.bbox.size)))


def _state_tokens(node: ObjectNode) -> tuple[str, ...]:
    return tuple(S.VH2KG + tok for tok in sorted(node.states))


def _node_table(env0: EnvironmentGraph, f: IriFactory, affordance_table) -> tuple:
    """One row per node of a trace's situation-0 graph, in node order:
    ``(id, IRI, scene triples, IRI stem, bbox literals, state-token IRIs)``.

    The scene triples (class, room type or height, affordances,
    attributes) are the same ``Triple``s in every activity over the scene.
    The bbox literals (center then size) and state tokens are situation
    0's; a room has ``None`` for both.  The table is cached on the graph, keyed by the
    scene id and by the affordance table's value, so a table mutated in
    place gets a new row set; a graph derived by ``with_nodes`` or
    ``with_edges`` starts with an empty cache."""
    key = (f.scene, frozenset((cls, frozenset(verbs))
                            for cls, verbs in (affordance_table or {}).items()))
    table = env0._node_tables.get(key)
    if table is not None:
        return table
    rows = []
    for node in env0.nodes:
        iri = node_iri(f, node)
        scene_triples = [(iri, S.RDF_TYPE, S.HO + node.class_name)]
        if node.is_room:
            scene_triples.append((iri, S.RDF_TYPE, S.ROOM))
            rows.append((node.id, iri, tuple(map(_as_triple, scene_triples)),
                         f"{node.class_name}{node.id}", None, None))
            continue
        height_iri = f.height(node)
        scene_triples += ((iri, S.HEIGHT, height_iri),
                          (height_iri, S.RDF_VALUE, decimal(node.height_meters)))
        scene_triples += ((iri, S.AFFORDS, S.action_iri(verb))
                          for verb in sorted(afforded_verbs(node, affordance_table)))
        scene_triples += ((iri, S.ATTRIBUTE, S.VH2KG + tok)
                          for tok in sorted(node.properties) if tok not in PROPERTY_VERBS)
        rows.append((node.id, iri, tuple(map(_as_triple, scene_triples)),
                     f"{node.class_name}{node.id}", _bbox_literals(node),
                     _state_tokens(node)))
    table = env0._node_tables[key] = tuple(rows)
    return table


def _state_triples(state_iri: str, shape_iri: str, iri: str, situation: str,
                   literals: tuple, tokens: tuple[str, ...]) -> list[tuple]:
    """A state node of object ``iri`` in ``situation``: its shape, whose
    center and size are three-cell collections, then its state tokens."""
    cx, cy, cz, sx, sy, sz = literals
    c0, c1, c2 = (shape_iri + "_center_cell0", shape_iri + "_center_cell1",
                  shape_iri + "_center_cell2")
    s0, s1, s2 = (shape_iri + "_size_cell0", shape_iri + "_size_cell1",
                  shape_iri + "_size_cell2")
    block = [(state_iri, S.RDF_TYPE, S.STATE),
             (state_iri, S.IS_STATE_OF, iri),
             (state_iri, S.PART_OF, situation),
             (state_iri, S.BBOX, shape_iri),
             (shape_iri, S.RDF_TYPE, S.SHAPE),
             (shape_iri, S.BBOX_CENTER, c0),
             (c0, S.RDF_FIRST, cx), (c0, S.RDF_REST, c1),
             (c1, S.RDF_FIRST, cy), (c1, S.RDF_REST, c2),
             (c2, S.RDF_FIRST, cz), (c2, S.RDF_REST, S.RDF_NIL),
             (shape_iri, S.BBOX_SIZE, s0),
             (s0, S.RDF_FIRST, sx), (s0, S.RDF_REST, s1),
             (s1, S.RDF_FIRST, sy), (s1, S.RDF_REST, s2),
             (s2, S.RDF_FIRST, sz), (s2, S.RDF_REST, S.RDF_NIL)]
    for tok_iri in tokens:
        block += ((state_iri, S.STATE_PROP, tok_iri), (tok_iri, S.RDF_TYPE, S.STATE_TYPE))
    return block
