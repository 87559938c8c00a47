"""Build event-centric knowledge graphs from simulation traces.

One trace becomes: an activity node typed by category, numbered events with
before/after situations, per-object state chains with shape geometry, and
affordance/attribute links.  State nodes are minted only when an object's
(state tokens, bbox, affordances) actually changed; otherwise the previous
state instance is reused as part of the new situation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import schema as S
from .errors import InvalidTrace, UnknownProperty
from .home import ObjectNode, afforded_verbs, check_name, classify_property
from .rdf import EX, KgDocument, Triple, _paused_gc, decimal, integer, string
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

    def state(self, n: int, node: ObjectNode) -> str:
        return EX + f"state{n}_{node.class_name}{node.id}_{self.local}"

    def shape(self, n: int, node: ObjectNode) -> str:
        return EX + f"shape{n}_{node.class_name}{node.id}_{self.local}"

    def height(self, node: ObjectNode) -> str:
        return EX + f"height_{node.class_name}{node.id}_{self.scene}"

    def scene_iri(self) -> str:
        return EX + self.scene


def _node_iri(factory: IriFactory, node: ObjectNode) -> str:
    return factory.agent() if node.is_agent else factory.object(node)


def _emit_collection(add, base: str, values) -> str:
    """Ordered 3-element RDF collection with deterministic cell IRIs."""
    cells = [f"{base}_cell{i}" for i in range(len(values))]
    for i, (cell, value) in enumerate(zip(cells, values)):
        add(cell, S.RDF_FIRST, decimal(value))
        add(cell, S.RDF_REST, cells[i + 1] if i + 1 < len(values) else S.RDF_NIL)
    return cells[0]


def state_indices(trace: Trace, node_id: int, affordance_table=None,
                  property_table=None) -> list[int]:
    """Per situation, the index of the situation that minted the object's
    current state node.  A new state is minted only when the object's
    (state tokens, bbox, afforded verbs) changed."""
    indices = []
    prev_node = prev_fp = None
    for n, situation in enumerate(trace.situations):
        node = situation.graph.node(node_id)
        if node is prev_node:  # shared unchanged by with_nodes
            indices.append(indices[-1])
            continue
        fp = (node.states, node.bbox,
              afforded_verbs(node, affordance_table, property_table))
        indices.append(n if fp != prev_fp else indices[-1])
        prev_node, prev_fp = node, fp
    return indices


def build_activity_kg(trace: Trace, meta: ActivityMeta,
                      affordance_table=None, property_table=None,
                      doc: KgDocument | None = None) -> KgDocument:
    if len(trace.situations) != len(trace.transitions) + 1:
        raise InvalidTrace("trace must carry one more situation than transitions")
    if doc is None:
        doc = KgDocument()
    triples = []
    append = triples.append

    def add(s, p, o):
        append(Triple(s, p, o))

    with _paused_gc():
        _emit_activity(add, trace, meta, affordance_table, property_table)
        doc.add_all(triples)
    return doc


def _emit_activity(add, trace: Trace, meta: ActivityMeta, affordance_table,
                   property_table) -> None:
    f = IriFactory.for_meta(meta)
    activity = f.activity()
    agent_iri = f.agent()
    n_events = len(trace.transitions)
    # one string per event and situation IRI, however many triples name it
    events = [f.event(n) for n in range(n_events)]
    situations = [f.situation(n) for n in range(len(trace.situations))]

    category_class = S.CATEGORY_CLASSES.get(meta.category, S.CATEGORY_CLASSES["Other"])
    add(activity, S.RDF_TYPE, category_class)
    add(activity, S.RDF_TYPE, S.ACTIVITY)
    add(category_class, S.RDFS_SUBCLASS, S.ACTIVITY)
    add(activity, S.RDFS_LABEL, string(meta.name))
    if meta.description:
        add(activity, S.RDFS_COMMENT, string(meta.description))
    add(activity, S.AGENT, agent_iri)
    add(activity, S.VIRTUAL_HOME, f.scene_iri())
    # round per-event durations first so the stored total is exactly their
    # sum even after fixed-point serialization
    rounded = [round(tr.duration_seconds, 9) for tr in trace.transitions]
    add(activity, S.TIME_PROP, decimal(sum(rounded)))
    add(agent_iri, S.RDF_TYPE, S.CHARACTER)

    # events
    for n, tr in enumerate(trace.transitions):
        ev = events[n]
        add(activity, S.HAS_EVENT, ev)
        add(ev, S.RDF_TYPE, S.EVENT)
        if n == n_events - 1:
            add(ev, S.RDF_TYPE, S.END_EVENT)
        add(ev, S.EVENT_NUMBER, integer(n))
        add(ev, S.ACTION, S.action_iri(tr.step.verb))
        add(ev, S.AGENT, agent_iri)
        env0 = trace.situations[0].graph
        if tr.step.main_object is not None:
            add(ev, S.MAIN_OBJECT, _node_iri(f, env0.node(tr.step.main_object.id)))
        if tr.step.target_object is not None:
            add(ev, S.TARGET_OBJECT, _node_iri(f, env0.node(tr.step.target_object.id)))
        if n > 0:
            add(ev, S.PREVIOUS_EVENT, events[n - 1])
        if n < n_events - 1:
            add(ev, S.NEXT_EVENT, events[n + 1])
        add(ev, S.SITUATION_BEFORE, situations[n])
        add(ev, S.SITUATION_AFTER, situations[n + 1])
        add(ev, S.TIME_PROP, decimal(rounded[n]))
        if tr.start_room_id == tr.end_room_id:
            add(ev, S.PLACE, f.object(env0.node(tr.end_room_id)))
        else:
            add(ev, S.FROM, f.object(env0.node(tr.start_room_id)))
            add(ev, S.TO, f.object(env0.node(tr.end_room_id)))

    # situations
    for situation in situations:
        add(situation, S.RDF_TYPE, S.SITUATION)

    # objects, states, shapes
    env0 = trace.situations[0].graph
    for node in env0.nodes:
        iri = _node_iri(f, node)
        add(iri, S.RDF_TYPE, S.HO + node.class_name)
        if node.is_room:
            add(iri, S.RDF_TYPE, S.ROOM)
            continue
        height_iri = f.height(node)
        add(iri, S.HEIGHT, height_iri)
        add(height_iri, S.RDF_VALUE, decimal(node.height_meters))
        for verb in sorted(afforded_verbs(node, affordance_table, property_table)):
            add(iri, S.AFFORDS, S.action_iri(verb))
        for tok in sorted(node.properties):
            try:
                kind, _ = classify_property(tok, property_table)
            except UnknownProperty:
                kind = "Attribute"
            if kind == "Attribute":
                add(iri, S.ATTRIBUTE, S.VH2KG + tok)

        prev_state_iri = None
        for n, minted in enumerate(state_indices(trace, node.id, affordance_table,
                                                 property_table)):
            if minted != n:
                add(prev_state_iri, S.PART_OF, situations[n])
                continue
            current = trace.situations[n].graph.node(node.id)
            state_iri = f.state(n, node)
            add(state_iri, S.RDF_TYPE, S.STATE)
            add(state_iri, S.IS_STATE_OF, iri)
            add(state_iri, S.PART_OF, situations[n])
            for tok in sorted(current.states):
                add(state_iri, S.STATE_PROP, S.VH2KG + tok)
                add(S.VH2KG + tok, S.RDF_TYPE, S.STATE_TYPE)
            shape_iri = f.shape(n, node)
            add(state_iri, S.BBOX, shape_iri)
            add(shape_iri, S.RDF_TYPE, S.SHAPE)
            add(shape_iri, S.BBOX_CENTER,
                _emit_collection(add, f"{shape_iri}_center", current.bbox.center))
            add(shape_iri, S.BBOX_SIZE,
                _emit_collection(add, f"{shape_iri}_size", current.bbox.size))
            if prev_state_iri is not None:
                add(prev_state_iri, S.NEXT_STATE, state_iri)
                add(state_iri, S.PREVIOUS_STATE, prev_state_iri)
            prev_state_iri = state_iri
