"""Turn a simulated trace into an event-centric RDF graph and look at the
pieces: the activity node, its numbered events, the situation chain, and a
state node with its 3D shape."""

from vh2kg import schema as S
from vh2kg.fixtures import (fixture_path, load_fixture_affordance_table,
                            load_fixture_environment)
from vh2kg.rdf import graph_stats, serialize_turtle
from vh2kg.scripts import parse_script
from vh2kg.simulate import run_script
from vh2kg.synth import ActivityMeta, build_activity_kg

env = load_fixture_environment()
affordances = load_fixture_affordance_table()

script = parse_script(fixture_path("scripts", "carry_box.txt").read_text(),
                      category="HouseArrangement")
trace = run_script(script, env, affordance_table=affordances)
meta = ActivityMeta(name=script.name, category=script.category,
                    description=script.description)
doc = build_activity_kg(trace, meta, affordances)

print("graph statistics:", graph_stats(doc))

idx = doc.index()
activity = "http://example.org/virtualhome2kg/instance/carry_box0_scene1"
events = sorted(idx.objects(activity, S.HAS_EVENT),
                key=lambda e: int(idx.object(e, S.EVENT_NUMBER).lexical))
print(f"\n{len(events)} events:")
for ev in events:
    action = idx.object(ev, S.ACTION).rsplit("/", 1)[-1]
    before = idx.object(ev, S.SITUATION_BEFORE).rsplit("/", 1)[-1]
    after = idx.object(ev, S.SITUATION_AFTER).rsplit("/", 1)[-1]
    print(f"  {ev.rsplit('/', 1)[-1]:<28} {action:<8} {before} -> {after}")

# show the Turtle for just the first event's neighborhood
lines = [line for line in serialize_turtle(doc).splitlines()
         if "event0_carry_box0" in line]
print("\nTurtle for event 0:")
print("\n".join(lines))
