"""Run one bundled activity script through the symbolic simulator and walk
through what comes out: per-step durations, changed objects, and the final
snapshot of the environment."""

from vh2kg.fixtures import (fixture_path, load_fixture_affordance_table,
                            load_fixture_environment)
from vh2kg.scripts import parse_script
from vh2kg.simulate import run_script

env = load_fixture_environment()
affordances = load_fixture_affordance_table()

text = fixture_path("scripts", "find_some_foods.txt").read_text()
script = parse_script(text, category="FoodPreparation")

print(f"activity: {script.name} ({len(script.steps)} steps)")
print(f"  {script.description}")

trace = run_script(script, env, affordance_table=affordances)

print(f"\nexecuted in {trace.total_seconds:.1f} simulated seconds")
for n, tr in enumerate(trace.transitions):
    target = tr.step.main_object.name if tr.step.main_object else "-"
    print(f"  step {n}: {tr.step.verb:<10} {target:<16} "
          f"{tr.duration_seconds:6.2f}s  changed={sorted(tr.changed_object_ids)}")

final = trace.situations[-1].graph
agent = final.agent
print(f"\nagent ends at {agent.bbox.center} holding "
      f"{sorted(trace.situations[-1].held_ids()) or 'nothing'}")
cabinet = next(n for n in final.nodes if n.class_name == "kitchencabinet")
print(f"kitchen cabinet states: {sorted(cabinet.states)}")
