import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vh2kg import simulate
from vh2kg.errors import Unexecutable
from vh2kg.fixtures import fixture_path, load_fixture_environment
from vh2kg.home import RelationEdge, load_environment
from vh2kg.scripts import ActivityScript, ObjectRef, Step
from vh2kg.simulate import (DurationModel, ExecutabilityReport, SimConfig,
                            StepFailure, Trace, check_executable, execute_step,
                            initial_state, recompute_relations, run_script,
                            trace_to_json)


def build_env(extra_nodes=(), extra_edges=()):
    doc = {
        "scene_id": "scene1",
        "nodes": [
            {"id": 1, "class_name": "kitchen", "is_room": True,
             "bounding_box": {"center": [0, 1.25, 0], "size": [20, 2.5, 20]}},
            {"id": 2, "class_name": "character", "is_agent": True,
             "states": ["STANDING"],
             "bounding_box": {"center": [0, 0.9, 0], "size": [0.4, 1.8, 0.3]}},
            *extra_nodes,
        ],
        "edges": [
            {"from_id": 2, "relation_type": "INSIDE", "to_id": 1},
            *extra_edges,
        ],
    }
    return load_environment(doc)


def mug_at(x, z, y=0.9):
    return {"id": 3, "class_name": "mug", "properties": ["GRABBABLE"],
            "bounding_box": {"center": [x, y, z], "size": [0.1, 0.14, 0.1]}}


def inside(node_id, room_id=1):
    return {"from_id": node_id, "relation_type": "INSIDE", "to_id": room_id}


def script_of(*steps):
    return ActivityScript("Test", "test script", "Other", list(steps))


def close_ids(state):
    return {(e.from_id, e.to_id) for e in recompute_relations(state)
            if e.relation == "CLOSE"}


def test_close_threshold_inclusive():
    # distance exactly 1.5: CLOSE; slightly beyond: not CLOSE
    env = build_env([mug_at(1.5, 0.0)], [inside(3)])
    state = initial_state(env)
    assert (2, 3) in close_ids(state)
    env = build_env([mug_at(1.505, 0.0)], [inside(3)])
    state = initial_state(env)
    assert (2, 3) not in close_ids(state)


@pytest.mark.parametrize("dz, close", [(0.0, True), (0.25, False)])
def test_close_at_exact_threshold_along_x(dz, close):
    # |dx| == threshold: the sweep on x must test the pair, not stop before it
    a = dict(mug_at(-3.0, 0.0), id=3)
    b = dict(mug_at(-1.5, dz), id=4)
    env = build_env([a, b], [inside(3), inside(4)])
    assert ((3, 4) in close_ids(initial_state(env))) is close


def test_walk_stops_at_interaction_offset():
    env = build_env([mug_at(5.0, 0.0)], [inside(3)])
    trace = run_script(script_of(Step("walk", ObjectRef("mug", 3))), env)
    agent = trace.situations[-1].graph.agent
    dist = math.dist(agent.bbox.center, trace.situations[-1].graph.node(3).bbox.center)
    assert dist == pytest.approx(0.5)
    # walked 5.0 - 0.5 horizontally at 1 m/s (the y offset is not traveled)
    assert trace.transitions[0].duration_seconds == pytest.approx(4.5)


def test_walk_duration_never_zero():
    env = build_env([mug_at(0.3, 0.0)], [inside(3)])
    trace = run_script(script_of(Step("walk", ObjectRef("mug", 3))), env)
    assert trace.transitions[0].duration_seconds >= 0.1


def test_grab_requires_close():
    env = build_env([mug_at(5.0, 0.0)], [inside(3)])
    report = check_executable(script_of(Step("grab", ObjectRef("mug", 3))), env)
    assert not report.executable
    assert report.reason == "NotClose"
    assert report.failing_step_index == 0


def test_grab_requires_affordance():
    nodes = [mug_at(1.0, 0.0)]
    nodes[0] = dict(nodes[0], properties=[])
    env = build_env(nodes, [inside(3)])
    report = check_executable(script_of(Step("grab", ObjectRef("mug", 3))), env)
    assert report.reason == "NoAffordance"


def test_grab_hands_full():
    a = dict(mug_at(1.0, 0.0), id=3)
    b = dict(mug_at(0.0, 1.0), id=4)
    c = dict(mug_at(-1.0, 0.0), id=5)
    env = build_env([a, b, c], [inside(3), inside(4), inside(5)])
    script = script_of(Step("grab", ObjectRef("mug", 3)),
                       Step("grab", ObjectRef("mug", 4)),
                       Step("grab", ObjectRef("mug", 5)))
    report = check_executable(script, env)
    assert not report.executable
    assert report.reason == "HandsFull"
    assert report.failing_step_index == 2


def test_held_object_rides_with_agent():
    far = {"id": 4, "class_name": "table", "properties": [],
           "bounding_box": {"center": [6.0, 0.45, 0.0], "size": [1.0, 0.9, 1.0]}}
    env = build_env([mug_at(1.0, 0.0), far], [inside(3), inside(4)])
    script = script_of(Step("grab", ObjectRef("mug", 3)),
                       Step("walk", ObjectRef("table", 4)))
    trace = run_script(script, env)
    final = trace.situations[-1].graph
    agent_c = final.agent.bbox.center
    mug_c = final.node(3).bbox.center
    assert math.dist(agent_c, mug_c) < 1.0
    assert any(e.relation.startswith("HOLDS") and e.to_id == 3
               for e in recompute_relations(trace.situations[-1]))


def test_switch_wrong_state():
    tv = {"id": 7, "class_name": "television", "states": ["ON"],
          "properties": ["HAS_SWITCH"],
          "bounding_box": {"center": [1.0, 0.5, 0.0], "size": [1.0, 0.6, 0.2]}}
    env = build_env([tv], [inside(7)])
    report = check_executable(script_of(Step("switchOn", ObjectRef("television", 7))), env)
    assert report.reason == "WrongState"
    trace = run_script(script_of(Step("switchOff", ObjectRef("television", 7))), env)
    assert "OFF" in trace.situations[-1].graph.node(7).states


def test_sit_stand_posture():
    chair = {"id": 8, "class_name": "chair", "properties": ["SITTABLE"],
             "bounding_box": {"center": [1.0, 0.45, 0.0], "size": [0.5, 0.9, 0.5]}}
    env = build_env([chair], [inside(8)])
    trace = run_script(script_of(Step("sit", ObjectRef("chair", 8)), Step("standUp")), env)
    postures = [s.posture for s in trace.situations]
    assert postures == ["STANDING", "SITTING", "STANDING"]
    agent_states = [("SITTING" in s.graph.agent.states) for s in trace.situations]
    assert agent_states == [False, True, False]


def test_standup_requires_sitting():
    env = build_env()
    report = check_executable(script_of(Step("standUp")), env)
    assert report.reason == "WrongState"


def test_putback_places_on_top_face():
    table = {"id": 4, "class_name": "table", "properties": [],
             "bounding_box": {"center": [3.0, 0.45, 0.0], "size": [1.0, 0.9, 1.0]}}
    env = build_env([mug_at(1.0, 0.0), table], [inside(3), inside(4)])
    script = script_of(Step("grab", ObjectRef("mug", 3)),
                       Step("walk", ObjectRef("table", 4)),
                       Step("putBack", ObjectRef("mug", 3), ObjectRef("table", 4)))
    trace = run_script(script, env)
    mug = trace.situations[-1].graph.node(3)
    # bottom of the mug rests on the table top (0.9)
    assert mug.bbox.center[1] - mug.bbox.size[1] / 2 == pytest.approx(0.9)
    edges = recompute_relations(trace.situations[-1])
    assert any(e.relation == "ON" and e.from_id == 3 and e.to_id == 4
               for e in edges)
    assert not any(e.relation.startswith("HOLDS") and e.to_id == 3
                   for e in edges)


def test_strict_mode_raises_with_report():
    env = build_env([mug_at(5.0, 0.0)], [inside(3)])
    with pytest.raises(Unexecutable) as exc:
        run_script(script_of(Step("grab", ObjectRef("mug", 3))), env, mode="strict")
    assert exc.value.report.reason == "NotClose"


def test_repair_mode_inserts_walk():
    env = build_env([mug_at(5.0, 0.0)], [inside(3)])
    trace = run_script(script_of(Step("grab", ObjectRef("mug", 3))), env, mode="repair")
    verbs = [t.step.verb for t in trace.transitions]
    assert verbs == ["walk", "grab"]
    assert trace.transitions[0].step.inserted
    assert not trace.transitions[1].step.inserted


def test_close_needs_the_open_affordance():
    box = {"id": 9, "class_name": "box", "states": ["OPEN"], "properties": [],
           "bounding_box": {"center": [1.0, 0.5, 0.0], "size": [0.5, 0.5, 0.5]}}
    env = build_env([box], [inside(9)])
    report = check_executable(script_of(Step("close", ObjectRef("box", 9))), env,
                              affordance_table={"box": frozenset({"close"})})
    assert (report.reason, report.detail) == ("NoAffordance", "box does not afford open")


@pytest.mark.parametrize("verb", ["touch", "watch", "lookAt", "turnTo"])
def test_reach_only_verbs_require_close(verb):
    env = build_env([mug_at(5.0, 0.0)], [inside(3)])
    report = check_executable(script_of(Step(verb, ObjectRef("mug", 3))), env)
    assert (report.reason, report.detail) == ("NotClose", "agent not close to mug#3")
    near = build_env([mug_at(1.0, 0.0)], [inside(3)])
    assert check_executable(script_of(Step(verb, ObjectRef("mug", 3))), near).executable


def test_repair_retries_only_the_failing_step(monkeypatch):
    # execute_step runs once per recorded transition and once per failed
    # attempt: the steps before the far grab are not run again.
    far = dict(mug_at(5.0, 0.0), id=4)
    env = build_env([mug_at(1.0, 0.0), far], [inside(3), inside(4)])
    calls = []
    step = simulate.execute_step

    def counted(*args, **kwargs):
        try:
            result = step(*args, **kwargs)
        except StepFailure:
            calls.append("failed")
            raise
        calls.append("ok")
        return result

    monkeypatch.setattr(simulate, "execute_step", counted)
    trace = run_script(script_of(Step("grab", ObjectRef("mug", 3)),
                                 Step("touch", ObjectRef("mug", 3)),
                                 Step("grab", ObjectRef("mug", 4))), env, mode="repair")
    assert [t.step.verb for t in trace.transitions] == ["grab", "touch", "walk", "grab"]
    assert calls == ["ok", "ok", "failed", "ok", "ok"]


def test_situation_count_and_positive_durations(base_runs):
    for trace, _ in base_runs:
        assert len(trace.situations) == len(trace.transitions) + 1
        assert all(t.duration_seconds > 0 for t in trace.transitions)
        assert trace.total_seconds == pytest.approx(
            sum(t.duration_seconds for t in trace.transitions))


def test_custom_duration_model():
    env = build_env([mug_at(1.0, 0.0)], [inside(3)])
    dm = DurationModel(per_verb_seconds={"grab": 0.5})
    trace = run_script(script_of(Step("grab", ObjectRef("mug", 3))), env, dm)
    assert trace.transitions[0].duration_seconds == pytest.approx(0.5)


# --- derived relations against the all-pairs oracle ----------------------

def _room_at(env, x, z):
    for room in env.rooms:
        cx, _, cz = room.bbox.center
        sx, _, sz = room.bbox.size
        if abs(x - cx) <= sx / 2 and abs(z - cz) <= sz / 2:
            return room
    return None


def all_pairs_relations(state, cfg, facing):
    """Reference: CLOSE tested over every pair of non-room nodes."""
    env = state.graph
    held = state.held_ids()
    agent = env.agent
    edges = [e for e in env.edges if e.relation == "ON"]
    for hand, oid in state.held:
        if oid is not None:
            edges.append(RelationEdge(agent.id, f"HOLDS_{hand}", oid))
    if facing is not None:
        edges.append(RelationEdge(facing[0], "FACING", facing[1]))
    non_rooms = [n for n in env.nodes if not n.is_room]
    for i, a in enumerate(non_rooms):
        for b in non_rooms[i + 1:]:
            if a.id in held and b.is_agent or b.id in held and a.is_agent:
                edges.append(RelationEdge(a.id, "CLOSE", b.id))
            elif a.bbox.distance_to(b.bbox) <= cfg.close_threshold:
                edges.append(RelationEdge(a.id, "CLOSE", b.id))
    for n in non_rooms:
        room = _room_at(env, n.bbox.center[0], n.bbox.center[2])
        if room is not None:
            edges.append(RelationEdge(n.id, "INSIDE", room.id))
    room = _room_at(env, agent.bbox.center[0], agent.bbox.center[2])
    return tuple(edges), room.id if room else state.current_room_id


def assert_matches_all_pairs(trace, cfg):
    for situation in trace.situations:
        edges, room_id = all_pairs_relations(situation, cfg, situation.facing)
        assert recompute_relations(situation) == edges
        assert situation.current_room_id == room_id


def test_carried_room_matches_all_pairs():
    # A room that affords grab rides with the agent: every INSIDE may change.
    env = build_env([mug_at(5.0, 0.0), dict(mug_at(-7.0, 0.0), id=4)],
                    [inside(3), inside(4)])
    room = replace(env.node(1), properties=frozenset({"GRABBABLE"}))
    env = env.with_nodes({1: room})
    script = script_of(Step("grab", ObjectRef("kitchen", 1)),
                       Step("walk", ObjectRef("mug", 3)),
                       Step("drink", ObjectRef("kitchen", 1)),
                       Step("putBack", ObjectRef("kitchen", 1), ObjectRef("mug", 3)))
    trace = run_script(script, env)
    assert any(e.relation == "HOLDS_RH" and e.to_id == 1
               for e in recompute_relations(trace.situations[1]))
    # the walk carries the room's floor away from the far mug
    assert not any(e.relation == "INSIDE" and e.from_id == 4
                   for e in recompute_relations(trace.situations[2]))
    assert_matches_all_pairs(trace, SimConfig())


VERBS = ("walk", "grab", "putBack", "switchOn", "switchOff", "open",
         "close", "sit", "standUp", "lookAt", "find", "touch")
PROPERTIES = ("GRABBABLE", "HAS_SWITCH", "CAN_OPEN", "SITTABLE")
grid = st.integers(-9, 29).map(lambda k: k * 0.5)   # x in [-4.5, 14.5]


@st.composite
def scenes(draw):
    """Two rooms side by side (x in [-5, 5] and [5, 15]); the agent and the
    objects sit on a 0.5 m grid, so distances of exactly 1.0 or 1.5 occur
    along one axis and along diagonals (0.5 * sqrt(1 + 4 + 4) = 1.5)."""
    def point():
        return [draw(grid), draw(st.integers(0, 4)) * 0.5,
                draw(st.integers(-11, 11)) * 0.5]   # some fall outside both rooms
    nodes = [
        {"id": 1, "class_name": "kitchen", "is_room": True,
         "bounding_box": {"center": [0, 1.25, 0], "size": [10, 2.5, 10]}},
        {"id": 2, "class_name": "bedroom", "is_room": True,
         "bounding_box": {"center": [10, 1.25, 0], "size": [10, 2.5, 10]}},
        {"id": 3, "class_name": "character", "is_agent": True, "states": ["STANDING"],
         "bounding_box": {"center": point(), "size": [0.4, 1.8, 0.3]}},
    ]
    count = draw(st.integers(1, 10))
    for oid in range(4, 4 + count):
        props = draw(st.sets(st.sampled_from(PROPERTIES), min_size=1))
        nodes.append({"id": oid, "class_name": "thing", "properties": sorted(props),
                      "states": ["OFF", "CLOSED"],
                      "bounding_box": {"center": point(), "size": [0.2, 0.2, 0.2]}})
    edges = [{"from_id": n["id"], "relation_type": "INSIDE",
              "to_id": 1 if n["bounding_box"]["center"][0] <= 5 else 2}
             for n in nodes[2:]]
    env = load_environment({"scene_id": "scene1", "nodes": nodes, "edges": edges})
    objects = [ObjectRef("thing", oid) for oid in range(4, 4 + count)]
    steps = draw(st.lists(st.builds(
        Step, st.sampled_from(VERBS), st.sampled_from(objects),
        st.sampled_from(objects)), min_size=1, max_size=25))
    cfg = SimConfig(close_threshold=draw(st.sampled_from([1.0, 1.5])),
                    hold_offset=draw(st.sampled_from([0.3, 2.0])))
    return env, steps, cfg


@settings(max_examples=150, deadline=None)
@given(scenes())
def test_relations_match_all_pairs(scene):
    env, steps, cfg = scene
    # Keep the steps that succeed one after another, walking to the object
    # first where needed: a strict-executable script.
    state, kept = initial_state(env, cfg), []
    for step in steps:
        if step.verb == "putBack" and state.held_ids():
            step = replace(step, main_object=ObjectRef("thing", min(state.held_ids())))
        goal = step.target_object if step.verb == "putBack" else step.main_object
        for plan in ([step], [Step("walk", goal), step]):
            try:
                after = state
                for planned in plan:
                    after, _ = execute_step(after, planned)
            except StepFailure:
                continue
            state = after
            kept += plan
            break
    script = script_of(*kept)
    trace = run_script(script, env, cfg=cfg)
    assert trace.situations[-1] == state
    assert_matches_all_pairs(trace, cfg)
    assert_changes_match_diff(trace)
    walkless = replace(script, steps=[s for s in kept if s.verb != "walk"])
    try:
        trace = run_script(walkless, env, mode="repair", cfg=cfg)
    except Unexecutable:
        return
    assert_matches_all_pairs(trace, cfg)
    assert_changes_match_diff(trace)


def test_run_script_shares_initial_state(scripts, affordance_table):
    env = load_fixture_environment()
    first = run_script(scripts[0], env, affordance_table=affordance_table)
    second = run_script(scripts[1], env, affordance_table=affordance_table)
    assert second.situations[0] is first.situations[0]
    assert first.situations[0] == initial_state(env)
    other = run_script(scripts[0], env, cfg=SimConfig(close_threshold=3.0),
                       affordance_table=affordance_table)
    assert other.situations[0] == initial_state(env, SimConfig(close_threshold=3.0))
    assert other.situations[0] != first.situations[0]
    fresh = run_script(scripts[1], load_fixture_environment(),
                       affordance_table=affordance_table)
    assert trace_to_json(second) == trace_to_json(fresh)


def test_simulation_derives_no_relations(monkeypatch, scripts, affordance_table):
    # Relations are derived only when read: simulating the corpus, strict
    # and repair, never asks for them.
    calls = []
    derive = simulate.recompute_relations
    monkeypatch.setattr(simulate, "recompute_relations",
                        lambda state: calls.append(state) or derive(state))
    env = load_fixture_environment()
    for script in scripts:
        trace = run_script(script, env, affordance_table=affordance_table)
        walkless = replace(script, steps=[s for s in script.steps if s.verb != "walk"])
        try:
            run_script(walkless, env, mode="repair", affordance_table=affordance_table)
        except Unexecutable:
            pass
    assert calls == []
    trace_to_json(trace)  # the counter does see the reader's calls
    assert len(calls) == len(trace.situations)


# --- recorded changes against the scene-diff oracle -----------------------

def diff_changed_ids(before, after) -> set[int]:
    """Ids of objects whose state tokens or bbox differ.

    ``after`` comes from ``before`` by ``with_nodes``, which keeps node
    order, so the two node tuples zip.  No step edits a class name or
    properties, so an object's afforded verbs never change."""
    return {a.id for a, b in zip(before.nodes, after.nodes)
            if a is not b and (a.states != b.states or a.bbox != b.bbox)}


def assert_changes_match_diff(trace):
    """Each step's ``changed_object_ids`` is what diffing its two graphs finds."""
    for before, after, record in zip(trace.situations, trace.situations[1:],
                                     trace.transitions):
        assert record.changed_object_ids == diff_changed_ids(before.graph, after.graph)


def test_diff_changed_ids_ignores_equal_replacements():
    env = load_fixture_environment()
    node = next(n for n in env.nodes if not n.is_room and not n.is_agent)
    twin = env.with_nodes({node.id: replace(node)})  # equal, distinct
    assert twin.node(node.id) == node and twin.node(node.id) is not node
    assert diff_changed_ids(env, twin) == set()
    flipped = twin.with_nodes({node.id: replace(node, states=node.states ^ {"OPEN"})})
    assert diff_changed_ids(twin, flipped) == {node.id}
    x, y, z = node.bbox.center
    moved = twin.with_nodes({node.id: replace(
        node, bbox=replace(node.bbox, center=(x + 0.25, y, z)))})
    assert diff_changed_ids(twin, moved) == {node.id}


def test_zero_travel_walk_reports_nothing():
    # The grab moves the mug to the agent's hand; the walk back to it is
    # within the interaction offset, so agent and mug get equal bboxes.
    env = build_env([mug_at(1.0, 0.0)], [inside(3)])
    trace = run_script(script_of(Step("grab", ObjectRef("mug", 3)),
                                 Step("walk", ObjectRef("mug", 3))), env)
    assert [t.changed_object_ids for t in trace.transitions] == [{3}, set()]
    assert trace.situations[2].graph is not trace.situations[1].graph
    assert trace.situations[2].graph.nodes == trace.situations[1].graph.nodes
    assert_changes_match_diff(trace)


def clutter_environment(seed, objects=400):
    """The fixture environment plus ``objects`` small clutter objects spread
    evenly over the rooms, standing on the floor at seeded positions with
    seeded sizes, classes and states."""
    document = json.loads(fixture_path("environment.json").read_text(encoding="utf-8"))
    rooms = [n for n in document["nodes"] if n.get("is_room")]
    rng = random.Random(seed)
    for i in range(objects):
        room = rooms[i % len(rooms)]
        (cx, _, cz), (sx, _, sz) = (room["bounding_box"]["center"],
                                    room["bounding_box"]["size"])
        size = [round(rng.uniform(0.05, 0.3), 3) for _ in range(3)]
        center = [round(rng.uniform(cx - sx / 2 + 0.3, cx + sx / 2 - 0.3), 3),
                  size[1] / 2,
                  round(rng.uniform(cz - sz / 2 + 0.3, cz + sz / 2 - 0.3), 3)]
        document["nodes"].append({
            "id": 1000 + i, "class_name": rng.choice(("coin", "pen", "candle")),
            "states": rng.choice(([], ["CLEAN"], ["OFF"])), "properties": ["MOVABLE"],
            "bounding_box": {"center": center, "size": size}})
        document["edges"].append({"from_id": 1000 + i, "relation_type": "INSIDE",
                                  "to_id": room["id"]})
    return load_environment(document)


DIFF_SCENES = {
    "fixture": load_fixture_environment,
    "false-positive": lambda: load_fixture_environment(false_positive_geometry=True),
    "clutter-1": lambda: clutter_environment(1),
    "clutter-2": lambda: clutter_environment(2),
}


@pytest.mark.parametrize("scene", DIFF_SCENES)
def test_changed_ids_match_diff_on_every_step(scene, scripts, affordance_table):
    """Every fixture script, strict and with its walks dropped in repair
    mode: the simulator's recorded changes equal the diff of the graphs."""
    env = DIFF_SCENES[scene]()
    steps = changed = 0
    for script in scripts:
        walkless = replace(script, steps=[s for s in script.steps if s.verb != "walk"])
        for mode, run in (("strict", script), ("repair", walkless)):
            try:
                trace = run_script(run, env, mode=mode, affordance_table=affordance_table)
            except Unexecutable:
                assert mode == "repair"
                continue
            assert_changes_match_diff(trace)
            steps += len(trace.transitions)
            changed += sum(map(len, (t.changed_object_ids for t in trace.transitions)))
    assert steps > 150 and changed > steps / 2  # ~170 steps per scene


# --- one-pass repair against the restart-from-scratch oracle --------------

def restart_repair(script, env, affordance_table):
    """Repair mode as a restart loop: after each inserted walk, run the
    whole script again from the first situation, giving each step at most
    one walk."""
    current = script
    repaired = set()  # indices already given an inserted walk
    start = initial_state(env)
    while True:
        situations, transitions, failure = [start], [], None
        for idx, step in enumerate(current.steps):
            try:
                state, record = execute_step(situations[-1], step, DurationModel(),
                                             affordance_table)
            except StepFailure as exc:
                failure = (idx, step, exc)
                break
            situations.append(state)
            transitions.append(record)
        if failure is None:
            return Trace(current, tuple(situations), tuple(transitions))
        idx, step, exc = failure
        if (exc.reason == "NotClose" and step.main_object is not None
                and idx not in repaired):
            steps = list(current.steps)
            steps.insert(idx, Step("walk", step.main_object, inserted=True))
            current = replace(current, steps=steps)
            repaired = {i + 1 if i >= idx else i for i in repaired} | {idx + 1}
            continue
        raise Unexecutable(ExecutabilityReport(False, idx, exc.reason, exc.detail))


def repair_outcome(run, script, env, affordance_table):
    try:
        return run(script, env, affordance_table)
    except Unexecutable as exc:
        return exc.report


@pytest.mark.parametrize("scene", DIFF_SCENES)
def test_repair_matches_restart_oracle(scene, scripts, affordance_table):
    """Every fixture script without its walks, in script order and in three
    shuffled orders: one-pass repair gives the oracle's trace, or its
    report."""
    env = DIFF_SCENES[scene]()
    rng = random.Random(scene)
    one_pass = lambda script, env, table: run_script(  # noqa: E731
        script, env, mode="repair", affordance_table=table)
    repaired = failed = 0
    for script in scripts:
        walkless = [s for s in script.steps if s.verb != "walk"]
        orders = [walkless] + [rng.sample(walkless, len(walkless)) for _ in range(3)]
        for steps in orders:
            run = replace(script, steps=steps)
            got = repair_outcome(one_pass, run, env, affordance_table)
            assert got == repair_outcome(restart_repair, run, env, affordance_table)
            if isinstance(got, Trace):
                repaired += any(s.inserted for s in got.script.steps)
            else:
                failed += 1
    assert repaired > 40 and failed > 15  # ~54 and ~22 per scene
