"""Embed the activity corpus with random walks plus a skip-gram model, then
group the activities with k-means and inspect nearest neighbors."""

import numpy as np

from vh2kg.cluster import KMeansConfig, kmeans
from vh2kg.fixtures import (load_fixture_affordance_table,
                            load_fixture_environment,
                            load_fixture_scripts)
from vh2kg.pipeline import simulate_corpus
from vh2kg.rdf import KgDocument
from vh2kg.skipgram import SkipGramConfig, cosine_neighbors, train_skipgram
from vh2kg.synth import build_activity_kg
from vh2kg.walks import WalkConfig, activity_roots, wl_relabel

env = load_fixture_environment()
affordances = load_fixture_affordance_table()

doc = KgDocument()
for trace, meta in simulate_corpus(load_fixture_scripts(), env,
                                   affordance_table=affordances):
    doc.update(build_activity_kg(trace, meta, affordances))

corpus = wl_relabel(doc, WalkConfig(depth=4, walks_per_entity=50,
                                    wl_iterations=0, seed=0))
print(f"{len(corpus.sequences)} walks extracted")

model, losses = train_skipgram(corpus, SkipGramConfig(
    vector_size=48, window=5, epochs=5, seed=0))
print("epoch losses:", " ".join(f"{x:.3f}" for x in losses))

tv = "http://example.org/virtualhome2kg/instance/watch_tv0_scene1"
print(f"\nnearest activities to watch_tv:")
roots = set(activity_roots(doc))
shown = 0
for token, sim in cosine_neighbors(model, tv, n=200):
    if token in roots:
        print(f"  {sim:.3f}  {token.rsplit('/', 1)[-1]}")
        shown += 1
    if shown == 5:
        break

vectors = np.stack([model.vector(r) for r in sorted(roots)])
assignments, _, inertia = kmeans(vectors, KMeansConfig(k=10, seed=0))
print(f"\nk-means over {len(roots)} activities (inertia {inertia:.3f}):")
clusters = {}
for root, label in zip(sorted(roots), assignments):
    clusters.setdefault(int(label), []).append(root.rsplit("/", 1)[-1])
for label in sorted(clusters):
    print(f"  cluster {label}: {', '.join(clusters[label])}")
