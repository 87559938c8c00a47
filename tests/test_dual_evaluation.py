"""Trace rules and KG rules agree on generated scenes, not only on the
fixtures.

Scenes are drawn on a coarse 0.05 m grid, so an object's top often lands
exactly on the agent's top or body center, and putBack's sums land within
an ulp of those thresholds.  Scripts use only afforded verbs: walk, grab,
putBack on a SURFACES object, open and sit.  Each script runs strict and,
with its walks dropped, in repair mode; per scene, the findings of every
activity's trace must equal the KG findings on the reparsed graph."""

import random
from dataclasses import replace

from vh2kg.errors import Unexecutable
from vh2kg.home import load_environment
from vh2kg.rdf import KgDocument, decimal, parse_ntriples, serialize_ntriples
from vh2kg.risk import RULES, RiskFinding, _matches, eval_rules_kg, eval_rules_trace
from vh2kg.scripts import ActivityScript, ObjectRef, Step
from vh2kg.simulate import run_script
from vh2kg.synth import ActivityMeta, build_activity_kg

GRID = 0.05
ROOM = 10


def on_grid(rng, lo, hi):
    """A multiple of GRID in [lo, hi]."""
    return round(rng.randint(round(lo / GRID), round(hi / GRID)) * GRID, 2)


def node(oid, class_name, center, size, properties=(), states=()):
    return {"id": oid, "class_name": class_name, "category": "Objects",
            "is_room": False, "is_agent": False, "states": list(states),
            "properties": list(properties),
            "bounding_box": {"center": list(center), "size": list(size)}}


def generated_scene(rng, scene_id):
    """One room holding the agent, surfaces, objects on them or on the
    floor, cabinets and chairs, all on the grid; returns the environment
    and the ids of each kind of node."""
    height = on_grid(rng, 1.2, 2.0)
    agent = node(1, "character", (0.0, height / 2, 0.0), (0.4, height, 0.3),
                 states=("STANDING",))
    agent["is_agent"] = True
    room = {"id": ROOM, "class_name": "bedroom", "category": "Rooms", "is_room": True,
            "is_agent": False, "states": [], "properties": [],
            "bounding_box": {"center": [0, 1.5, 0], "size": [8, 3, 8]}}
    nodes = [room, agent]
    edges = [{"from_id": 1, "relation_type": "INSIDE", "to_id": ROOM}]
    kinds = {"surface": [], "grabbable": [], "openable": [], "sittable": []}

    def place(kind, entry):
        nodes.append(entry)
        kinds[kind].append(entry["id"])
        edges.append({"from_id": entry["id"], "relation_type": "INSIDE", "to_id": ROOM})

    def floor_position():
        return on_grid(rng, -2.0, 2.0), on_grid(rng, -2.0, 2.0)

    for i in range(rng.randint(1, 3)):
        x, z = floor_position()
        place("surface", node(20 + i, rng.choice(("desk", "shelf", "table")),
                              (x, on_grid(rng, 0.1, 1.2), z),
                              (on_grid(rng, 0.3, 1.2), on_grid(rng, 0.1, 1.0),
                               on_grid(rng, 0.3, 1.0)), properties=("SURFACES",)))
    surfaces = nodes[2:]
    for i in range(rng.randint(1, 4)):
        size = [on_grid(rng, 0.05, 0.3), on_grid(rng, 0.05, 0.6), on_grid(rng, 0.05, 0.3)]
        support = rng.choice(surfaces) if rng.random() < 0.7 else None
        if support is None:
            x, z = floor_position()
            y = size[1] / 2
        else:
            x, top, z = support["bounding_box"]["center"]
            top += support["bounding_box"]["size"][1] / 2
            # half the time, size the object so its top meets the agent's
            # top or body center on the grid
            fit = round(rng.choice((height, height / 2)) - top, 2)
            if rng.random() < 0.5 and 0.05 <= fit <= 0.8:
                size[1] = fit
            y = top + size[1] / 2
            edges.append({"from_id": 40 + i, "relation_type": "ON", "to_id": support["id"]})
        place("grabbable", node(40 + i, rng.choice(("mug", "book", "glass")),
                                (x, y, z), size, properties=("GRABBABLE", "MOVABLE")))
    for i in range(rng.randint(0, 2)):
        x, z = floor_position()
        place("openable", node(60 + i, "cabinet", (x, on_grid(rng, 0.2, 1.5), z),
                               (0.6, on_grid(rng, 0.1, 1.0), 0.5),
                               properties=("CAN_OPEN",), states=("CLOSED",)))
    for i in range(rng.randint(0, 1)):
        x, z = floor_position()
        half = on_grid(rng, 0.2, 0.6)
        place("sittable", node(80 + i, "chair", (x, half, z), (0.5, 2 * half, 0.5),
                               properties=("SITTABLE",)))
    env = load_environment({"scene_id": scene_id, "nodes": nodes, "edges": edges})
    return env, kinds


def generated_script(rng, env, kinds, name):
    """A script of walks, each followed by one afforded action on what it
    walked to, tracking held objects and cabinet states as it goes."""
    held, closed = [], set(kinds["openable"])
    steps = []

    def ref(oid):
        return ObjectRef(env.node(oid).class_name, oid)

    for _ in range(rng.randint(2, 6)):
        options = []
        loose = [g for g in kinds["grabbable"] if g not in held]
        if loose and len(held) < 2:
            options.append("grab")
        if held:
            options.append("putBack")
        if closed:
            options.append("open")
        if kinds["sittable"]:
            options.append("sit")
        if not options:
            break
        verb = rng.choice(options)
        if verb == "grab":
            oid = rng.choice(loose)
            held.append(oid)
            steps += [Step("walk", ref(oid)), Step("grab", ref(oid))]
        elif verb == "putBack":
            oid, surface = rng.choice(held), rng.choice(kinds["surface"])
            held.remove(oid)
            steps += [Step("walk", ref(surface)), Step("putBack", ref(oid), ref(surface))]
        elif verb == "open":
            oid = rng.choice(sorted(closed))
            closed.discard(oid)
            steps += [Step("walk", ref(oid)), Step("open", ref(oid))]
        else:
            oid = rng.choice(kinds["sittable"])
            steps += [Step("walk", ref(oid)), Step("sit", ref(oid))]
    return ActivityScript(name=name, steps=steps)


def raw_flips(trace):
    """Rule decisions on the simulator's raw floats that differ from those
    on the stored numbers: the cases the KG's grid decides."""
    flips = 0
    for n, tr in enumerate(trace.transitions):
        pre = trace.situations[n].graph
        agent = pre.agent
        for ref in (tr.step.main_object, tr.step.target_object):
            if ref is None or pre.node(ref.id).is_room:
                continue
            obj = pre.node(ref.id)
            raw = (agent.bbox.center[1], agent.height_meters,
                   obj.bbox.center[1], obj.height_meters)
            stored = tuple(float(decimal(v).lexical) for v in raw)
            flips += sum(_matches(rule, tr.step.verb, *raw)
                         != _matches(rule, tr.step.verb, *stored)
                         for rule in RULES.values())
    return flips


def test_trace_findings_equal_kg_findings_on_generated_scenes():
    rng = random.Random(20261021)
    activities = repaired = flips = 0
    rules = []
    for s in range(40):
        env, kinds = generated_scene(rng, f"scene{s}")
        doc, from_traces = KgDocument(), []
        for i in range(5):
            script = generated_script(rng, env, kinds, f"generated {i}")
            walkless = replace(script, steps=[st for st in script.steps
                                              if st.verb != "walk"])
            for k, (run, mode) in enumerate(((script, "strict"), (walkless, "repair"))):
                try:
                    trace = run_script(run, env, mode=mode)
                except Unexecutable:
                    continue
                meta = ActivityMeta(run.name, scene_id=env.scene_id, index=2 * i + k)
                doc.update(build_activity_kg(trace, meta))
                from_traces += eval_rules_trace(trace, meta)
                activities += 1
                repaired += mode == "repair"
                flips += raw_flips(trace)
        reparsed = parse_ntriples(serialize_ntriples(doc))
        assert reparsed.triples == doc.triples
        assert sorted(from_traces, key=RiskFinding.key) == eval_rules_kg(reparsed)
        rules += [f.rule_id for f in from_traces]
    # the generator reaches both modes, both rules and the ulp cases
    assert activities >= 300 and repaired >= 100
    assert rules.count("R1") >= 50 and rules.count("R2") >= 50 and flips > 0
