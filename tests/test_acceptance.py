"""Acceptance gate: one test per shipped guarantee, each printing a PASS
line with the measured values when it holds."""

import random
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from vh2kg import schema as S
from vh2kg.analytics import (ConfusionMatrix, all_event_iris, confusion, prf1)
from vh2kg.cluster import KMeansConfig, kmeans, kmeans_history
from vh2kg.pipeline import PipelineConfig, run_pipeline
from vh2kg.fixtures import fixture_path
from vh2kg.rdf import KgIndex, parse_ntriples, serialize_ntriples
from vh2kg.risk import RiskFinding, eval_rules_kg, eval_rules_trace
from vh2kg.skipgram import (EmbeddingModel, SkipGramConfig, cosine_similarity,
                            predict_probability, sg_loss_and_grad,
                            softmax_probabilities, train_skipgram)
from vh2kg.walks import WalkConfig, extract_walks, wl_relabel
from vh2kg.skipgram import WalkCorpus


def report(capsys, n, message):
    with capsys.disabled():
        print(f"\n[acceptance {n}] PASS: {message}")


def trace_findings(runs, affordance_table):
    out = []
    for trace, meta in runs:
        out.extend(eval_rules_trace(trace, meta,
                                    affordance_table=affordance_table))
    return out


def test_01_fixture_reproduction(capsys, base_env, scripts, affordance_table,
                                 ground_truth):
    from vh2kg.simulate import run_script
    start = time.perf_counter()
    total_events = 0
    for script in scripts:
        trace = run_script(script, base_env, affordance_table=affordance_table)
        total_events += len(trace.transitions)
    elapsed = time.perf_counter() - start
    assert len(scripts) == 20
    assert total_events == 103
    assert len(ground_truth) == 6
    assert elapsed < 10.0
    report(capsys, 1, f"20 scripts, {total_events} events, "
           f"{len(ground_truth)} annotated risks, {elapsed:.2f}s")


def test_02_risk_detection_metrics(capsys, base_runs, base_doc, fp_runs,
                                   fp_doc, affordance_table, ground_truth):
    base = trace_findings(base_runs, affordance_table)
    cm = confusion(base, ground_truth, all_event_iris(base_doc))
    precision, recall, _ = prf1(cm)
    assert recall == 1.0
    assert cm.fn == 0

    fp = trace_findings(fp_runs, affordance_table)
    cm_fp = confusion(fp, ground_truth, all_event_iris(fp_doc))
    assert (cm_fp.tp, cm_fp.fp, cm_fp.fn, cm_fp.tn) == (6, 4, 0, 93)
    p2, r2, f2 = prf1(cm_fp)
    assert abs(p2 - 0.6) <= 1e-9
    assert abs(r2 - 1.0) <= 1e-9
    assert abs(f2 - 0.75) <= 1e-9
    report(capsys, 2, f"base precision={precision} recall={recall}; "
           f"fp-geometry precision={p2} f1={f2} counts=({cm_fp.tp},{cm_fp.fp},"
           f"{cm_fp.fn},{cm_fp.tn})")


def test_03_metric_oracle(capsys):
    assert prf1(ConfusionMatrix(6, 4, 0, 93)) == (0.6, 1.0, 0.75)

    def finding(event):
        return RiskFinding("a", event, "R1", "ag", "ob", (), (("s", "p", "o"),))

    rng = random.Random(7)
    events = [f"http://x/e{i}" for i in range(30)]
    for _ in range(1000):
        truth = set(rng.sample(events, rng.randint(0, 10)))
        found = set(rng.sample(events, rng.randint(0, 10)))
        cm = confusion([finding(e) for e in sorted(found)],
                       {e: "R1" for e in truth}, events)
        expect = (len(found & truth), len(found - truth),
                  len(truth - found), len(set(events) - found - truth))
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == expect
    report(capsys, 3, "(6,4,0,93) metric tuple exact; 1000 randomized confusion "
           "matrices match the set-arithmetic oracle")


def test_04_structural_suite(capsys, base_doc, base_runs):
    idx = KgIndex(base_doc)
    activities = sorted(idx.subjects(S.RDF_TYPE, S.ACTIVITY))
    assert len(activities) == 20
    for activity in activities:
        events = sorted(idx.objects(activity, S.HAS_EVENT),
                        key=lambda e: int(idx.object(e, S.EVENT_NUMBER).lexical))
        numbers = [int(idx.object(e, S.EVENT_NUMBER).lexical) for e in events]
        assert numbers == list(range(len(events)))
        ends = [e for e in events if S.END_EVENT in idx.objects(e, S.RDF_TYPE)]
        assert ends == [events[-1]]
        situations = set()
        for prev, nxt in zip(events, events[1:]):
            assert idx.object(prev, S.SITUATION_AFTER) == \
                idx.object(nxt, S.SITUATION_BEFORE)
        for e in events:
            situations.add(idx.object(e, S.SITUATION_BEFORE))
            situations.add(idx.object(e, S.SITUATION_AFTER))
        assert len(situations) == len(events) + 1
        event_sum = sum(float(idx.object(e, S.TIME_PROP).lexical) for e in events)
        total = float(idx.object(activity, S.TIME_PROP).lexical)
        assert abs(event_sum - total) <= 1e-9

    seen = {}
    for state in idx.subjects(S.RDF_TYPE, S.STATE):
        obj = idx.object(state, S.IS_STATE_OF)
        for situation in idx.objects(state, S.PART_OF):
            assert (situation, obj) not in seen
            seen[(situation, obj)] = state
        nxt = idx.object(state, S.NEXT_STATE)
        if nxt is not None:
            assert idx.object(nxt, S.PREVIOUS_STATE) == state

    assert parse_ntriples(serialize_ntriples(base_doc)).triples == base_doc.triples
    report(capsys, 4, f"{len(activities)} activities pass chaining, numbering, "
           "EndEvent, state-dedup, duration-sum and round-trip checks")


def test_05_dual_evaluation(capsys, base_runs, base_doc, fp_runs, fp_doc,
                            affordance_table):
    counts = []
    for runs, doc in ((base_runs, base_doc), (fp_runs, fp_doc)):
        from_traces = sorted(trace_findings(runs, affordance_table), key=RiskFinding.key)
        reparsed = parse_ntriples(serialize_ntriples(doc))
        from_kg = eval_rules_kg(reparsed)
        assert from_traces == from_kg
        counts.append(len(from_kg))
    report(capsys, 5, "trace-level and reparsed-KG rule findings identical, "
           f"paths and evidence included, on both fixture environments ({counts[0]} "
           f"and {counts[1]} findings)")


def test_06_skipgram_numerics(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(3, 10))
        dim = int(rng.integers(2, 6))
        model = EmbeddingModel([f"t{i}" for i in range(size)],
                               rng.standard_normal((size, dim)),
                               rng.standard_normal((size, dim)))
        center = int(rng.integers(size))
        context = int(rng.integers(size))
        _, grad_in, grad_out = sg_loss_and_grad(model, center, context)
        eps = 1e-5
        for mat, analytic in ((model.input_vectors, grad_in),
                              (model.output_vectors, grad_out)):
            it = np.nditer(mat, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = mat[ix]
                mat[ix] = orig + eps
                up, _, _ = sg_loss_and_grad(model, center, context)
                mat[ix] = orig - eps
                down, _, _ = sg_loss_and_grad(model, center, context)
                mat[ix] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(analytic[ix]) + abs(numeric), 1e-8)
                worst = max(worst, abs(analytic[ix] - numeric) / denom)
        p = softmax_probabilities(model, center)
        assert abs(p.sum() - 1.0) <= 1e-9
    assert worst <= 1e-4

    corpus = WalkCorpus([["a", "b"] * 25] * 10)
    start = time.perf_counter()
    model, _ = train_skipgram(corpus, SkipGramConfig(
        vector_size=16, window=1, epochs=8, negative_samples=0,
        learning_rate=0.1, seed=0))
    elapsed = time.perf_counter() - start
    prob = predict_probability(model, context="b", center="a")
    assert elapsed < 1.0
    assert prob > 0.9
    report(capsys, 6, f"max gradient rel. error {worst:.2e} over 100 configs; "
           f"bigram p(b|a)={prob:.3f} in {elapsed:.2f}s")


def test_07_walks(capsys):
    from test_walks import brute_force_walks, toy_doc, N
    doc = toy_doc()
    assert len({t.subject for t in doc.triples}
               | {t.object for t in doc.triples if isinstance(t.object, str)}) == 10
    for depth in (1, 2, 3):
        cfg = WalkConfig(depth=depth, wl_iterations=0, exhaustive=True,
                         roots=(N + "a",), skip_predicates=frozenset())
        ours = Counter(tuple(s) for s in extract_walks(doc, cfg).sequences)
        oracle = Counter(brute_force_walks(doc, N + "a", depth))
        assert ours == oracle
    skip = frozenset({"http://t/p/y"})
    cfg = WalkConfig(depth=3, wl_iterations=0, exhaustive=True,
                     roots=(N + "a",), skip_predicates=skip)
    assert not any(set(seq) & skip for seq in extract_walks(doc, cfg).sequences)
    sampled = WalkConfig(depth=3, walks_per_entity=20, wl_iterations=0,
                         roots=(N + "a",), seed=5, skip_predicates=frozenset())
    assert extract_walks(doc, sampled).sequences == \
        extract_walks(doc, sampled).sequences
    report(capsys, 7, "exhaustive walk multisets match the brute-force "
           "enumerator at depths 1-3; skips honored; sampling deterministic")


def test_08_clustering(capsys, base_runs, planted):
    rng = np.random.default_rng(21)
    for trial in range(5):
        points = rng.random((60, 6))
        _, _, _, history = kmeans_history(points, KMeansConfig(k=7, seed=trial))
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-12

    # 5 planted duplicate activities, embedded with the rest of the corpus
    doc, planted = planted
    corpus = wl_relabel(doc, WalkConfig(depth=4, walks_per_entity=100,
                                        wl_iterations=0, seed=2))
    model, _ = train_skipgram(corpus, SkipGramConfig(
        vector_size=48, window=5, epochs=5, seed=2))

    from vh2kg.walks import activity_roots
    from vh2kg.synth import IriFactory
    roots = [r for r in activity_roots(doc) if r in model.index]
    points = np.stack([model.vector(r) for r in roots])
    assignments, _, _ = kmeans(points, KMeansConfig(k=10, seed=2))
    assert len(set(assignments.tolist())) > 1

    def iri(meta):
        return IriFactory.for_meta(meta).activity()

    cross = []
    originals = [iri(meta) for _, meta in
                 [(t, m) for t, m in base_runs]]
    for i, a in enumerate(originals):
        for b in originals[i + 1:]:
            if a in model.index and b in model.index:
                cross.append(cosine_similarity(model.vector(a), model.vector(b)))
    median = float(np.median(cross))
    hits = 0
    for meta, twin in planted:
        a, b = iri(meta), iri(twin)
        if cosine_similarity(model.vector(a), model.vector(b)) > median:
            hits += 1
    assert hits >= 4
    report(capsys, 8, f"inertia monotone on 5 runs; {hits}/5 planted duplicate "
           f"pairs above the cross-activity median similarity {median:.3f}")


def test_09_determinism(capsys, tmp_path):
    cfg = PipelineConfig(
        scripts_dir=str(fixture_path("scripts")),
        environment_file=str(fixture_path("environment.json")),
        affordance_file=str(fixture_path("affordances.csv")),
        ground_truth_file=str(fixture_path("ground_truth.csv")),
        seed=13)
    outputs = []
    for run in ("one", "two"):
        run_pipeline(replace(cfg, output_dir=str(tmp_path / run)))
        outputs.append({
            name: (tmp_path / run / name).read_bytes()
            for name in ("corpus.nt", "corpus_with_risks.nt", "findings.json",
                         "vectors.tsv", "walks.txt", "report.json")})
    assert outputs[0] == outputs[1]
    report(capsys, 9, "two seeded pipeline runs byte-identical across "
           f"{len(outputs[0])} artifacts")
