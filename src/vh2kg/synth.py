"""Build event-centric knowledge graphs from simulation traces.

One trace becomes: an activity node typed by category, numbered events with
before/after situations, per-object state chains with shape geometry, and
affordance/attribute links.  Each object gets a state node in situation 0
and a new one after each step whose ``changed_object_ids`` names it;
otherwise the previous state instance is reused as part of the new
situation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import schema as S
from .errors import InvalidTrace
from .home import PROPERTY_VERBS, ObjectNode, afforded_verbs, check_name
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


def state_indices(trace: Trace, node_id: int) -> list[int]:
    """Per situation, the index of the situation that minted the object's
    current state node: situation 0, then each situation after a step whose
    ``changed_object_ids`` names the object."""
    indices = [0]
    for n, tr in enumerate(trace.transitions, 1):
        indices.append(n if node_id in tr.changed_object_ids else indices[-1])
    return indices


def build_activity_kg(trace: Trace, meta: ActivityMeta,
                      affordance_table=None,
                      doc: KgDocument | None = None) -> KgDocument:
    if len(trace.situations) != len(trace.transitions) + 1:
        raise InvalidTrace("trace must carry one more situation than transitions")
    if doc is None:
        doc = KgDocument()
    with _paused_gc():
        # The batch of plain tuples is dropped before collection resumes,
        # so no collection scans it next to the document's Triples.
        doc.add_all(map(_as_triple, _emit_activity(trace, meta, affordance_table)))
    return doc


def _emit_activity(trace: Trace, meta: ActivityMeta,
                   affordance_table) -> list[tuple]:
    """The activity's triples as plain ``(s, p, o)`` tuples."""
    out = []
    add = out.append
    extend = out.extend
    f = IriFactory.for_meta(meta)
    activity = f.activity()
    agent_iri = f.agent()
    n_events = len(trace.transitions)
    # one string per event and situation IRI, however many triples name it
    events = [f.event(n) for n in range(n_events)]
    situations = [f.situation(n) for n in range(len(trace.situations))]

    category_class = S.CATEGORY_CLASSES.get(meta.category, S.CATEGORY_CLASSES["Other"])
    extend(((activity, S.RDF_TYPE, category_class),
            (activity, S.RDF_TYPE, S.ACTIVITY),
            (category_class, S.RDFS_SUBCLASS, S.ACTIVITY),
            (activity, S.RDFS_LABEL, string(meta.name))))
    if meta.description:
        add((activity, S.RDFS_COMMENT, string(meta.description)))
    # round per-event durations first so the stored total is exactly their
    # sum even after fixed-point serialization
    rounded = [round(tr.duration_seconds, 9) for tr in trace.transitions]
    extend(((activity, S.AGENT, agent_iri),
            (activity, S.VIRTUAL_HOME, f.scene_iri()),
            (activity, S.TIME_PROP, decimal(sum(rounded))),
            (agent_iri, S.RDF_TYPE, S.CHARACTER)))

    # events
    env0 = trace.situations[0].graph
    for n, tr in enumerate(trace.transitions):
        ev = events[n]
        extend(((activity, S.HAS_EVENT, ev),
                (ev, S.RDF_TYPE, S.EVENT),
                (ev, S.EVENT_NUMBER, integer(n)),
                (ev, S.ACTION, S.action_iri(tr.step.verb)),
                (ev, S.AGENT, agent_iri),
                (ev, S.SITUATION_BEFORE, situations[n]),
                (ev, S.SITUATION_AFTER, situations[n + 1]),
                (ev, S.TIME_PROP, decimal(rounded[n]))))
        if n == n_events - 1:
            add((ev, S.RDF_TYPE, S.END_EVENT))
        if tr.step.main_object is not None:
            add((ev, S.MAIN_OBJECT, _node_iri(f, env0.node(tr.step.main_object.id))))
        if tr.step.target_object is not None:
            add((ev, S.TARGET_OBJECT, _node_iri(f, env0.node(tr.step.target_object.id))))
        if n > 0:
            add((ev, S.PREVIOUS_EVENT, events[n - 1]))
        if n < n_events - 1:
            add((ev, S.NEXT_EVENT, events[n + 1]))
        if tr.start_room_id == tr.end_room_id:
            add((ev, S.PLACE, f.object(env0.node(tr.end_room_id))))
        else:
            extend(((ev, S.FROM, f.object(env0.node(tr.start_room_id))),
                    (ev, S.TO, f.object(env0.node(tr.end_room_id)))))

    # situations
    extend((situation, S.RDF_TYPE, S.SITUATION) for situation in situations)

    # objects, states, shapes
    for node in env0.nodes:
        iri = _node_iri(f, node)
        add((iri, S.RDF_TYPE, S.HO + node.class_name))
        if node.is_room:
            add((iri, S.RDF_TYPE, S.ROOM))
            continue
        height_iri = f.height(node)
        extend(((iri, S.HEIGHT, height_iri),
                (height_iri, S.RDF_VALUE, decimal(node.height_meters))))
        for verb in sorted(afforded_verbs(node, affordance_table)):
            add((iri, S.AFFORDS, S.action_iri(verb)))
        for tok in sorted(node.properties):
            if tok not in PROPERTY_VERBS:
                add((iri, S.ATTRIBUTE, S.VH2KG + tok))

        prev_state_iri = None
        for n, minted in enumerate(state_indices(trace, node.id)):
            if minted != n:
                add((prev_state_iri, S.PART_OF, situations[n]))
                continue
            current = trace.situations[n].graph.node(node.id)
            state_iri = f.state(n, node)
            shape_iri = f.shape(n, node)
            # the center and size collections, three cells each
            c0, c1, c2 = (shape_iri + "_center_cell0", shape_iri + "_center_cell1",
                          shape_iri + "_center_cell2")
            s0, s1, s2 = (shape_iri + "_size_cell0", shape_iri + "_size_cell1",
                          shape_iri + "_size_cell2")
            cx, cy, cz = current.bbox.center
            sx, sy, sz = current.bbox.size
            extend(((state_iri, S.RDF_TYPE, S.STATE),
                    (state_iri, S.IS_STATE_OF, iri),
                    (state_iri, S.PART_OF, situations[n]),
                    (state_iri, S.BBOX, shape_iri),
                    (shape_iri, S.RDF_TYPE, S.SHAPE),
                    (shape_iri, S.BBOX_CENTER, c0),
                    (c0, S.RDF_FIRST, decimal(cx)), (c0, S.RDF_REST, c1),
                    (c1, S.RDF_FIRST, decimal(cy)), (c1, S.RDF_REST, c2),
                    (c2, S.RDF_FIRST, decimal(cz)), (c2, S.RDF_REST, S.RDF_NIL),
                    (shape_iri, S.BBOX_SIZE, s0),
                    (s0, S.RDF_FIRST, decimal(sx)), (s0, S.RDF_REST, s1),
                    (s1, S.RDF_FIRST, decimal(sy)), (s1, S.RDF_REST, s2),
                    (s2, S.RDF_FIRST, decimal(sz)), (s2, S.RDF_REST, S.RDF_NIL)))
            for tok in sorted(current.states):
                tok_iri = S.VH2KG + tok
                extend(((state_iri, S.STATE_PROP, tok_iri),
                        (tok_iri, S.RDF_TYPE, S.STATE_TYPE)))
            if prev_state_iri is not None:
                extend(((prev_state_iri, S.NEXT_STATE, state_iri),
                        (state_iri, S.PREVIOUS_STATE, prev_state_iri)))
            prev_state_iri = state_iri
    return out
