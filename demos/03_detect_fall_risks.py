"""Detect geometric fall risks across the whole bundled corpus, compare the
findings against the expert annotations, and print one explanation in both
text and Graphviz form.

Rule R1 fires when the agent acts on an object whose bounding-box top is
above the agent's own top; R2 fires when the agent grabs an object whose
top is below the agent's body center.  Rerun with the alternate geometry
(load_fixture_environment(false_positive_geometry=True)) to see precision
drop while recall stays perfect."""

from vh2kg.analytics import all_event_iris, confusion, prf1
from vh2kg.fixtures import (load_fixture_affordance_table,
                            load_fixture_environment,
                            load_fixture_ground_truth,
                            load_fixture_scripts)
from vh2kg.pipeline import simulate_corpus
from vh2kg.rdf import KgDocument
from vh2kg.risk import detect_risks, explain
from vh2kg.synth import build_activity_kg

env = load_fixture_environment()
affordances = load_fixture_affordance_table()

doc = KgDocument()
for trace, meta in simulate_corpus(load_fixture_scripts(), env,
                                   affordance_table=affordances):
    doc.update(build_activity_kg(trace, meta, affordances))

findings, risk_doc = detect_risks(doc)
print(f"{len(findings)} risk events found "
      f"({len(risk_doc.triples)} risk triples to add to the graph):")
for f in findings:
    print(f"  {f.rule_id}  {f.event_iri.rsplit('/', 1)[-1]}")

truth = load_fixture_ground_truth()
cm = confusion(findings, truth, all_event_iris(doc))
precision, recall, f1 = prf1(cm)
print(f"\nagainst annotations: tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn}")
print(f"precision={precision} recall={recall} f1={f1}")

detail = explain(findings[0], doc)
print(f"\nwhy {findings[0].event_iri.rsplit('/', 1)[-1]} was flagged:")
print(" ", detail["text"])
print("\nGraphviz (pipe into `dot -Tpng`):")
print(detail["dot"])
