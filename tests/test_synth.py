"""Structural invariants of the synthesized knowledge graphs."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vh2kg import schema as S
from vh2kg import synth
from vh2kg.errors import InvalidName
from vh2kg.home import afforded_verbs
from vh2kg.rdf import KgDocument, KgIndex, Literal, Triple
from vh2kg.simulate import SimulationState, Trace
from vh2kg.synth import IriFactory, state_indices


def activities(idx):
    return sorted(idx.subjects(S.RDF_TYPE, S.ACTIVITY))


@pytest.fixture(scope="module")
def idx(base_doc):
    return KgIndex(base_doc)


def events_in_order(idx, activity):
    evs = idx.objects(activity, S.HAS_EVENT)
    return sorted(evs, key=lambda e: int(idx.object(e, S.EVENT_NUMBER).lexical))


def test_documents_hold_only_triples(base_runs, base_doc, affordance_table):
    trace, meta = base_runs[0]
    alone = synth.build_activity_kg(trace, meta, affordance_table)
    into = synth.build_activity_kg(trace, meta, affordance_table,
                                   doc=KgDocument(triples={("a", "b", "c")}))
    # perfbench's oracle reads triples by attribute (t.subject)
    assert {type(t) for t in alone.triples} == {Triple}
    assert {type(t) for t in base_doc.triples} == {Triple}
    # the earlier triple first, then the activity's in the order they were made
    assert list(into.triples) == [("a", "b", "c"), *alone.triples]
    assert {type(t) for t in list(into.triples)[1:]} == {Triple}


def test_twenty_activities(idx, base_doc):
    assert len(activities(idx)) == 20


def test_event_numbers_contiguous(idx):
    for activity in activities(idx):
        evs = events_in_order(idx, activity)
        numbers = [int(idx.object(e, S.EVENT_NUMBER).lexical) for e in evs]
        assert numbers == list(range(len(evs)))


def test_single_end_event_is_last(idx):
    for activity in activities(idx):
        evs = events_in_order(idx, activity)
        end_events = [e for e in evs if S.END_EVENT in idx.objects(e, S.RDF_TYPE)]
        assert end_events == [evs[-1]]


def test_situation_chaining(idx):
    for activity in activities(idx):
        evs = events_in_order(idx, activity)
        situations = set()
        for prev, nxt in zip(evs, evs[1:]):
            # consecutive events share a situation boundary
            assert idx.object(prev, S.SITUATION_AFTER) == \
                idx.object(nxt, S.SITUATION_BEFORE)
            assert idx.object(nxt, S.PREVIOUS_EVENT) == prev
            assert idx.object(prev, S.NEXT_EVENT) == nxt
        for e in evs:
            situations.add(idx.object(e, S.SITUATION_BEFORE))
            situations.add(idx.object(e, S.SITUATION_AFTER))
        # N events yield N+1 distinct situations
        assert len(situations) == len(evs) + 1
        for s in situations:
            assert S.SITUATION in idx.objects(s, S.RDF_TYPE)


def test_every_event_has_action_and_agent(idx):
    for activity in activities(idx):
        assert idx.object(activity, S.AGENT) is not None
        for e in idx.objects(activity, S.HAS_EVENT):
            action = idx.object(e, S.ACTION)
            assert action.startswith(S.AN) if hasattr(S, "AN") else action
            assert idx.object(e, S.TIME_PROP) is not None


def test_one_state_per_object_per_situation(idx):
    for state in idx.subjects(S.RDF_TYPE, S.STATE):
        obj = idx.object(state, S.IS_STATE_OF)
        assert obj is not None
        situations = idx.objects(state, S.PART_OF)
        assert situations
    # no situation holds two states of the same object
    by_situation = {}
    for state in idx.subjects(S.RDF_TYPE, S.STATE):
        obj = idx.object(state, S.IS_STATE_OF)
        for situation in idx.objects(state, S.PART_OF):
            key = (situation, obj)
            assert key not in by_situation, key
            by_situation[key] = state


def test_state_dedup_minimality(idx):
    # consecutive states of one object always differ in fingerprint, which
    # shows a new State node is only minted on an actual change
    for state in idx.subjects(S.RDF_TYPE, S.STATE):
        nxt = idx.object(state, S.NEXT_STATE)
        if nxt is None:
            continue
        assert idx.object(nxt, S.PREVIOUS_STATE) == state
        def fingerprint(s):
            tokens = frozenset(x.lexical if isinstance(x, Literal) else x
                               for x in idx.objects(s, S.STATE_PROP))
            shape = idx.object(s, S.BBOX)
            return (tokens, shape)
        assert state != nxt


def test_durations_sum_to_activity_total(idx, base_runs):
    totals = {}
    for trace, meta in base_runs:
        evs_total = sum(t.duration_seconds for t in trace.transitions)
        totals[meta.name] = (evs_total, trace.total_seconds)
    for activity in activities(idx):
        evs = events_in_order(idx, activity)
        event_sum = sum(float(idx.object(e, S.TIME_PROP).lexical) for e in evs)
        activity_total = float(idx.object(activity, S.TIME_PROP).lexical)
        assert event_sum == pytest.approx(activity_total, abs=1e-9)


def test_shapes_use_ordered_collections(idx, base_doc):
    shapes = idx.subjects(S.RDF_TYPE, S.SHAPE)
    assert shapes
    for shape in shapes:
        for prop in (S.BBOX_CENTER, S.BBOX_SIZE):
            head = idx.object(shape, prop)
            values = []
            cell = head
            while cell != S.RDF_NIL:
                first = idx.object(cell, S.RDF_FIRST)
                assert isinstance(first, Literal)
                values.append(first)
                cell = idx.object(cell, S.RDF_REST)
            assert len(values) == 3
            # deterministic cell IRIs, no blank nodes
            assert head.startswith("http")


def test_rooms_have_no_state_nodes(idx):
    rooms = idx.subjects(S.RDF_TYPE, S.ROOM)
    assert rooms
    stated = {idx.object(s, S.IS_STATE_OF)
              for s in idx.subjects(S.RDF_TYPE, S.STATE)}
    assert not (set(rooms) & stated)


def test_no_blank_nodes(base_doc):
    for t in base_doc.triples:
        assert not t.subject.startswith("_:")
        if isinstance(t.object, str):
            assert not t.object.startswith("_:")


def test_total_event_count(idx):
    total = sum(len(idx.objects(a, S.HAS_EVENT)) for a in activities(idx))
    assert total == 103


@pytest.mark.parametrize("scene", ["coffee table", "a>b", ""])
def test_scene_id_outside_iri_alphabet(scene):
    with pytest.raises(InvalidName):
        IriFactory("Carry box", 0, scene)


def fingerprint_state_indices(trace, node_id, affordance_table=None):
    """Oracle for state_indices, which reads the simulator's change sets:
    mint a state whenever the object's (state tokens, bbox, afforded verbs)
    differ from the previous situation's."""
    indices, prev_fp = [], None
    for n, situation in enumerate(trace.situations):
        node = situation.graph.node(node_id)
        fp = (node.states, node.bbox, afforded_verbs(node, affordance_table))
        indices.append(n if fp != prev_fp else indices[-1])
        prev_fp = fp
    return indices


def all_traces(base_runs, fp_runs, repair_traces):
    return [t for t, _ in base_runs] + [t for t, _ in fp_runs] + repair_traces


def test_state_indices_match_fingerprint_oracle(base_runs, fp_runs, repair_traces,
                                                affordance_table):
    for trace in all_traces(base_runs, fp_runs, repair_traces):
        for node in trace.situations[0].graph.nodes:
            assert state_indices(trace, node.id) == \
                fingerprint_state_indices(trace, node.id, affordance_table)


def test_steps_keep_class_and_properties(base_runs, fp_runs, repair_traces):
    # No step edits a class name or properties, so an object's afforded
    # verbs never change and the change set need not compare them.
    for trace in all_traces(base_runs, fp_runs, repair_traces):
        first = {n.id: (n.class_name, n.properties)
                 for n in trace.situations[0].graph.nodes}
        for situation in trace.situations[1:]:
            assert {n.id: (n.class_name, n.properties)
                    for n in situation.graph.nodes} == first


# The object-property table that callers could once pass in, as shipped:
# token -> (kind, afforded verbs).  Oracle for home.PROPERTY_VERBS.
OLD_PROPERTY_TABLE = {
    "GRABBABLE": ("Affordance", ("grab",)),
    "HAS_SWITCH": ("Affordance", ("switchOn", "switchOff")),
    "CAN_OPEN": ("Affordance", ("open", "close")),
    "SITTABLE": ("Affordance", ("sit",)),
    "LIEABLE": ("Affordance", ("lie",)),
    "READABLE": ("Affordance", ("read",)),
    "DRINKABLE": ("Affordance", ("drink",)),
    "POURABLE": ("Affordance", ("pour",)),
    "EATABLE": ("Attribute", ()),
    "CUTTABLE": ("Attribute", ()),
    "MOVABLE": ("Attribute", ()),
    "CLOTHES": ("Attribute", ()),
    "SURFACES": ("Attribute", ()),
    "CONTAINERS": ("Attribute", ()),
    "HAS_PLUG": ("Attribute", ()),
    "LOOKABLE": ("Attribute", ()),
}


def old_property_kind(token):
    try:
        kind, verbs = OLD_PROPERTY_TABLE[token]
    except KeyError:
        raise LookupError(token) from None
    return kind, frozenset(verbs)


def old_afforded_verbs(node, affordance_table):
    verbs = set()
    for tok in node.properties:
        try:
            kind, vs = old_property_kind(tok)
        except LookupError:
            continue
        if kind == "Affordance":
            verbs |= vs
    if affordance_table:
        verbs |= affordance_table.get(node.class_name, frozenset())
    return frozenset(verbs)


def old_attributes(node):
    out = set()
    for tok in node.properties:
        try:
            kind, _ = old_property_kind(tok)
        except LookupError:
            kind = "Attribute"
        if kind == "Attribute":
            out.add(tok)
    return out


@settings(max_examples=60, deadline=None)
@given(tokens=st.frozensets(st.sampled_from(
           sorted(OLD_PROPERTY_TABLE) + ["FOO", "HAS_WHEELS", "grabbable"])),
       class_verbs=st.none() | st.frozensets(
           st.sampled_from(["grab", "sit", "open", "wipe"])))
def test_property_verbs_match_old_table(base_runs, tokens, class_verbs):
    trace, meta = base_runs[0]
    g0 = trace.situations[0].graph
    node = next(n for n in g0.nodes if not n.is_room and not n.is_agent)
    node = replace(node, properties=tokens)
    table = None if class_verbs is None else {node.class_name: class_verbs}
    expected = old_afforded_verbs(node, table)
    assert afforded_verbs(node, table) == expected

    one_situation = (SimulationState(g0.with_nodes({node.id: node})),)
    doc = synth.build_activity_kg(Trace(trace.script, one_situation, ()),
                                  meta, table)
    iri = IriFactory.for_meta(meta).object(node)
    idx = doc.index()
    assert set(idx.objects(iri, S.AFFORDS)) == {S.action_iri(v) for v in expected}
    assert set(idx.objects(iri, S.ATTRIBUTE)) == {
        S.VH2KG + tok for tok in old_attributes(node)}
