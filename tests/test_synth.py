"""Structural invariants of the synthesized knowledge graphs."""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vh2kg import schema as S
from vh2kg import synth
from vh2kg.errors import InvalidName, InvalidTrace
from vh2kg.fixtures import fixture_path
from vh2kg.home import PROPERTY_VERBS, BoundingBox, afforded_verbs, load_environment
from vh2kg.rdf import EX, KgDocument, KgIndex, Literal, Triple, decimal, integer, string
from vh2kg.scripts import parse_script
from vh2kg.simulate import SimulationState, Trace, run_script
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
    into = KgDocument(triples={("a", "b", "c")})
    into.update(synth.build_activity_kg(trace, meta, affordance_table))
    # perfbench's oracle reads triples by attribute (t.subject)
    assert {type(t) for t in alone.triples} == {Triple}
    assert {type(t) for t in base_doc.triples} == {Triple}
    # the earlier triple first, then the activity's in the order they were made
    assert list(into.triples) == [("a", "b", "c"), *alone.triples]
    assert {type(t) for t in list(into.triples)[1:]} == {Triple}


def test_scene_triples_are_made_once_per_scene_and_table(base_runs, affordance_table):
    """Activities over one scene and one affordance table (by value) hold
    the same scene-triple objects; another scene id or another table gets
    objects of its own."""
    (trace, meta), (other_trace, other_meta) = base_runs[:2]
    g0 = trace.situations[0].graph
    assert other_trace.situations[0].graph is g0

    def scene(doc, meta):
        f = IriFactory.for_meta(meta)
        subjects = {f.agent() if n.is_agent else f.object(n) for n in g0.nodes}
        subjects |= {f.height(n) for n in g0.nodes if not n.is_room}
        return [t for t in doc.triples
                if t.subject in subjects and t.object != S.CHARACTER]

    first = synth.build_activity_kg(trace, meta, affordance_table)
    held = {t: t for t in first.triples}  # each triple to first's object
    block = scene(first, meta)
    assert len(block) > 2 * len(g0.nodes)
    for doc in (synth.build_activity_kg(other_trace, other_meta, affordance_table),
                synth.build_activity_kg(trace, meta, dict(affordance_table))):
        assert scene(doc, meta) == block
        assert all(held[t] is t for t in scene(doc, meta))

    moved = replace(meta, scene_id="scene2")
    grab_all = {cls: frozenset({"grab"}) for cls in affordance_table}
    for doc, doc_meta in ((synth.build_activity_kg(trace, moved, affordance_table), moved),
                          (synth.build_activity_kg(trace, meta, grab_all), meta)):
        assert scene(doc, doc_meta)
        assert not any(held.get(t) is t for t in scene(doc, doc_meta))
    # the other table's class and height triples equal the first's
    assert set(scene(doc, meta)) & set(block)


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


# --- oracle: the emitter before the per-scene node table ---

def reference_emit(trace, meta, affordance_table):
    """Every activity triple, built from the trace alone: each object's
    class, height, affordances, attributes and bbox literals are worked out
    again in each activity, and ``state_indices`` runs for every object."""
    out = []
    add, extend = out.append, out.extend
    f = IriFactory.for_meta(meta)
    activity, agent_iri = f.activity(), f.agent()
    n_events = len(trace.transitions)
    events = [f.event(n) for n in range(n_events)]
    situations = [f.situation(n) for n in range(len(trace.situations))]

    def node_iri(node):
        return f.agent() if node.is_agent else f.object(node)

    category_class = S.CATEGORY_CLASSES.get(meta.category, S.CATEGORY_CLASSES["Other"])
    extend(((activity, S.RDF_TYPE, category_class),
            (activity, S.RDF_TYPE, S.ACTIVITY),
            (category_class, S.RDFS_SUBCLASS, S.ACTIVITY),
            (activity, S.RDFS_LABEL, string(meta.name))))
    if meta.description:
        add((activity, S.RDFS_COMMENT, string(meta.description)))
    rounded = [round(tr.duration_seconds, 9) for tr in trace.transitions]
    extend(((activity, S.AGENT, agent_iri),
            (activity, S.VIRTUAL_HOME, f.scene_iri()),
            (activity, S.TIME_PROP, decimal(sum(rounded))),
            (agent_iri, S.RDF_TYPE, S.CHARACTER)))

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
            add((ev, S.MAIN_OBJECT, node_iri(env0.node(tr.step.main_object.id))))
        if tr.step.target_object is not None:
            add((ev, S.TARGET_OBJECT, node_iri(env0.node(tr.step.target_object.id))))
        if n > 0:
            add((ev, S.PREVIOUS_EVENT, events[n - 1]))
        if n < n_events - 1:
            add((ev, S.NEXT_EVENT, events[n + 1]))
        if tr.start_room_id == tr.end_room_id:
            add((ev, S.PLACE, f.object(env0.node(tr.end_room_id))))
        else:
            extend(((ev, S.FROM, f.object(env0.node(tr.start_room_id))),
                    (ev, S.TO, f.object(env0.node(tr.end_room_id)))))

    extend((situation, S.RDF_TYPE, S.SITUATION) for situation in situations)

    for node in env0.nodes:
        iri = node_iri(node)
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
            state_iri = EX + f"state{n}_{node.class_name}{node.id}_{f.local}"
            shape_iri = EX + f"shape{n}_{node.class_name}{node.id}_{f.local}"
            c0, c1, c2 = (shape_iri + f"_center_cell{i}" for i in range(3))
            s0, s1, s2 = (shape_iri + f"_size_cell{i}" for i in range(3))
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


def assert_matches_reference(trace, meta, affordance_table):
    built = synth.build_activity_kg(trace, meta, affordance_table)
    assert list(built.triples) == list(dict.fromkeys(
        reference_emit(trace, meta, affordance_table)))


def trace_meta(trace):
    script = trace.script
    return synth.ActivityMeta(name=script.name, category=script.category,
                              description=script.description)


#: A script over the cluttered scene: it grabs and carries two clutter
#: objects, switches one on and sets the other down on the floor.
CLUTTER_SCRIPT = """Tidy clutter
Carry two things from the clutter to the floor.
[WALK] <mug> (1000)
[GRAB] <mug> (1000)
[WALK] <candle> (1001)
[SWITCHON] <candle> (1001)
[GRAB] <candle> (1001)
[WALK] <floor> (337)
[PUTBACK] <mug> (1000) <floor> (337)
"""


@pytest.fixture(scope="module")
def clutter_runs(scripts, affordance_table):
    """The fixture environment plus 120 seeded clutter objects (every room
    holds some; a few afford grabbing or switching, some carry state tokens
    and attributes), with the clutter script and three fixture scripts run
    over it.  The clutter script moves two of the objects."""
    document = json.loads(fixture_path("environment.json").read_text(encoding="utf-8"))
    rooms = [n for n in document["nodes"] if n.get("is_room")]
    rng = random.Random(11)
    for i in range(120):
        room = rooms[i % len(rooms)]
        (cx, _, cz), (sx, _, sz) = (room["bounding_box"]["center"],
                                    room["bounding_box"]["size"])
        size = [round(rng.uniform(0.05, 0.3), 3) for _ in range(3)]
        node = {"id": 1000 + i, "class_name": rng.choice(("coin", "book", "toy", "mug")),
                "states": rng.choice(([], ["CLEAN"], ["DIRTY", "OFF"])),
                "properties": rng.choice((["MOVABLE"], ["GRABBABLE", "CUTTABLE"], [])),
                "bounding_box": {"size": size, "center": [
                    round(rng.uniform(cx - sx / 2 + 0.3, cx + sx / 2 - 0.3), 3),
                    size[1] / 2,
                    round(rng.uniform(cz - sz / 2 + 0.3, cz + sz / 2 - 0.3), 3)]}}
        document["nodes"].append(node)
        document["edges"].append({"from_id": node["id"], "relation_type": "INSIDE",
                                  "to_id": room["id"]})
    document["nodes"][-120].update(class_name="mug")
    document["nodes"][-119].update(class_name="candle", states=["OFF"],
                                   properties=["GRABBABLE", "HAS_SWITCH"])
    env = load_environment(document)
    chosen = [parse_script(CLUTTER_SCRIPT)] + [
        s for s in scripts if s.name in ("Carry box", "Drink water", "Watch TV")]
    runs = [run_script(s, env, affordance_table=affordance_table) for s in chosen]
    runs = [(trace, trace_meta(trace)) for trace in runs]
    moved = set().union(*(tr.changed_object_ids for tr in runs[0][0].transitions))
    assert {1000, 1001} <= moved
    return runs


def test_order_contract_matches_reference_emitter(base_runs, fp_runs, repair_traces,
                                                  clutter_runs, affordance_table):
    for trace, meta in [*base_runs, *fp_runs, *clutter_runs]:
        assert_matches_reference(trace, meta, affordance_table)
    for trace in repair_traces:
        assert_matches_reference(trace, trace_meta(trace), affordance_table)


def test_node_table_never_serves_a_stale_block(clutter_runs, affordance_table):
    trace, meta = clutter_runs[0]
    # one graph under two scene ids
    for scene in ("scene1", "scene2", "scene1"):
        assert_matches_reference(trace, replace(meta, scene_id=scene), affordance_table)
    # one graph under several affordance tables, and none
    grab_all = {cls: frozenset({"grab", "touch"}) for cls in ("coin", "toy", "mug")}
    for table in (affordance_table, grab_all, None, affordance_table):
        assert_matches_reference(trace, meta, table)
    # a table mutated in place between calls
    table = dict(affordance_table)
    assert_matches_reference(trace, meta, table)
    table["coin"] = frozenset({"read"})
    assert_matches_reference(trace, meta, table)
    table["mug"] = table["mug"] | {"pour"}
    assert_matches_reference(trace, meta, table)
    # a with_nodes-derived graph as situation 0
    g0 = trace.situations[0].graph
    coin = next(n for n in g0.nodes if n.class_name == "coin")
    derived = g0.with_nodes({coin.id: replace(coin, states=frozenset({"ON"}),
                                              properties=frozenset({"EATABLE"}))})
    edited = Trace(trace.script, (replace(trace.situations[0], graph=derived),
                                  *trace.situations[1:]), trace.transitions)
    assert_matches_reference(edited, meta, affordance_table)
    assert_matches_reference(trace, meta, affordance_table)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_value_is_invalid_trace(base_runs, affordance_table, value):
    # load_environment refuses such a bbox; a finite one can still overflow
    # in the simulator, so the literal writer refuses it too.
    with pytest.raises(InvalidTrace, match="no xsd:decimal form"):
        decimal(value)
    assert decimal(1e300).lexical.startswith("1000000000")
    trace, meta = base_runs[0]
    g0 = trace.situations[0].graph
    node = next(n for n in g0.nodes if not n.is_room and not n.is_agent)
    bad = replace(node, bbox=BoundingBox((value, 0.0, 0.0), node.bbox.size))
    one_situation = (SimulationState(g0.with_nodes({node.id: bad})),)
    with pytest.raises(InvalidTrace):
        synth.build_activity_kg(Trace(trace.script, one_situation, ()), meta,
                                affordance_table)
