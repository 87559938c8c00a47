"""Aggregate queries over the corpus graph: which object classes get grabbed
or change state the most, and how long each activity takes."""

from vh2kg import analytics
from vh2kg.fixtures import (load_fixture_affordance_table,
                            load_fixture_environment,
                            load_fixture_scripts)
from vh2kg.pipeline import simulate_corpus
from vh2kg.rdf import KgDocument, graph_stats
from vh2kg.synth import build_activity_kg

env = load_fixture_environment()
affordances = load_fixture_affordance_table()

doc = KgDocument()
for trace, meta in simulate_corpus(load_fixture_scripts(), env,
                                   affordance_table=affordances):
    doc.update(build_activity_kg(trace, meta, affordances))

print("corpus:", graph_stats(doc))

print("\nmost grabbed object classes:")
print(analytics.format_ranking(analytics.grab_frequency(doc)[:8],
                               ("object class", "grabs")))

print("most state-changed object classes:")
print(analytics.format_ranking(analytics.state_change_frequency(doc)[:8],
                               ("object class", "changes")))

print("longest leisure activities:")
ranking = [(iri.rsplit("/", 1)[-1], round(seconds, 1))
           for iri, seconds in analytics.duration_by_activity(doc, "Leisure")]
print(analytics.format_ranking(ranking, ("activity", "seconds")))
