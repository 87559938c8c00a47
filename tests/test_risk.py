import json
from dataclasses import replace

import pytest

from vh2kg import risk
from vh2kg import schema as S
from vh2kg.rdf import KgDocument, KgIndex, parse_ntriples, serialize_ntriples
from vh2kg.risk import (R1, R2, RISK_TAXONOMY, RiskFinding, _matches, detect_risks,
                        eval_rules_kg, eval_rules_trace, explain,
                        findings_from_json, findings_to_json)
from vh2kg.fixtures import fixture_path
from vh2kg.home import load_environment
from vh2kg.scripts import parse_script
from vh2kg.simulate import run_script
from vh2kg.synth import ActivityMeta, build_activity_kg


def test_r1_strict_inequality():
    # agent top = 0.9 + 0.9 = 1.8
    assert not _matches(R1, "grab", 0.9, 1.8, 1.65, 0.3)   # obj top 1.8, equal
    assert _matches(R1, "grab", 0.9, 1.8, 1.66, 0.3)       # obj top 1.81
    assert not _matches(R1, "grab", 0.9, 1.8, 1.64, 0.3)


def test_r1_excluded_verbs():
    for verb in ("walk", "watch", "turnTo", "lookAt"):
        assert not _matches(R1, verb, 0.9, 1.8, 3.0, 0.3)
    for verb in ("grab", "open", "close", "switchOn", "touch"):
        assert _matches(R1, verb, 0.9, 1.8, 3.0, 0.3)


def test_r2_strict_inequality_and_grab_only():
    # agent center = 0.9
    assert _matches(R2, "grab", 0.9, 1.8, 0.5, 0.3)        # obj top 0.65
    assert not _matches(R2, "grab", 0.9, 1.8, 0.75, 0.3)   # obj top 0.9, equal
    assert not _matches(R2, "open", 0.9, 1.8, 0.5, 0.3)


def test_taxonomy_shape():
    assert len(RISK_TAXONOMY) == 16
    implemented = [e for e in RISK_TAXONOMY if e.implemented]
    assert sorted(e.rule_id for e in implemented) == ["R1", "R2"]


def trace_findings(runs, affordance_table):
    out = []
    for trace, meta in runs:
        out.extend(eval_rules_trace(trace, meta,
                                    affordance_table=affordance_table))
    return out


def test_base_env_findings_match_ground_truth(base_runs, affordance_table,
                                              ground_truth):
    found = {f.key() for f in trace_findings(base_runs, affordance_table)}
    assert found == {(e, r) for e, r in ground_truth.items()}


def kg_findings(doc):
    return eval_rules_kg(parse_ntriples(serialize_ntriples(doc)))


def test_dual_evaluation_base(base_runs, base_doc, affordance_table):
    from_traces = sorted(trace_findings(base_runs, affordance_table), key=RiskFinding.key)
    assert from_traces == kg_findings(base_doc)
    assert len(from_traces) == 6


def test_dual_evaluation_fp(fp_runs, fp_doc, affordance_table):
    from_traces = sorted(trace_findings(fp_runs, affordance_table), key=RiskFinding.key)
    assert from_traces == kg_findings(fp_doc)
    assert len(from_traces) == 10


def test_rules_read_the_stored_numbers(affordance_table):
    """A raised desk puts the mug's top one ulp above the agent's top.

    putBack sets the mug's center y to 1.27 + 0.265 = 1.5350000000000001,
    so its raw top is 1.8000000000000003; the KG stores 1.535, whose top is
    the agent's 1.8.  Both evaluators compare the stored numbers, so
    neither flags the final grab."""
    document = json.loads(fixture_path("environment.json").read_text())
    nodes = {n["id"]: n for n in document["nodes"]}
    nodes[110]["bounding_box"]["center"][1] = 0.3
    nodes[110]["bounding_box"]["size"][1] = 1.94
    nodes[196]["bounding_box"]["size"][1] = 0.53
    env = load_environment(document)
    script = parse_script("Raised desk\n\n[WALK] <desk> (110)\n[GRAB] <mug> (196)\n"
                          "[PUTBACK] <mug> (196) <desk> (110)\n[GRAB] <mug> (196)\n")
    trace = run_script(script, env, affordance_table=affordance_table)
    before_grab = trace.situations[3].graph
    assert before_grab.node(196).bbox.top > before_grab.agent.bbox.top  # raw floats
    meta = ActivityMeta(script.name)
    from_traces = eval_rules_trace(trace, meta)
    assert from_traces == kg_findings(build_activity_kg(trace, meta, affordance_table))
    assert from_traces == []


def test_detect_risks_augments_graph(base_doc):
    size = len(base_doc.triples)
    findings, risk_doc = detect_risks(base_doc)
    assert findings
    assert {t.predicate for t in risk_doc.triples} == {S.RISK_FACTOR, S.RDF_TYPE}
    augmented = KgDocument(triples=base_doc.triples | risk_doc.triples)
    assert len(augmented.triples) == size + len(risk_doc.triples)  # all new
    idx = KgIndex(augmented)
    for f in findings:
        rule = {"R1": R1, "R2": R2}[f.rule_id]
        assert idx.has(f.activity_iri, S.RISK_FACTOR, f.event_iri)
        assert rule.risk_class in idx.objects(f.event_iri, S.RDF_TYPE)
        assert S.RISK_EVENT in idx.objects(f.event_iri, S.RDF_TYPE)
    # the input document is untouched
    assert len(base_doc.triples) == size
    assert not any(t.predicate == S.RISK_FACTOR for t in base_doc.triples)


def test_explanation_paths_exist_in_graph(base_doc):
    findings, _ = detect_risks(base_doc)
    assert findings
    for f in findings:
        detail = explain(f, base_doc)
        assert f.object_iri.rsplit("/", 1)[-1] in detail["text"]
        assert detail["dot"].startswith("digraph")
        assert f.event_iri.rsplit("/", 1)[-1] in detail["dot"]
        assert "color=red" in detail["dot"]


def test_findings_json_round_trip(base_doc):
    findings, _ = detect_risks(base_doc)
    text = findings_to_json(findings)
    json.loads(text)  # valid JSON
    again = findings_from_json(text)
    assert again == findings


def test_evidence_is_recorded(base_runs, affordance_table):
    findings = trace_findings(base_runs, affordance_table)
    for f in findings:
        ev = f.evidence_map
        assert set(ev) == {"agentCenterY", "agentHeight", "objectCenterY",
                           "objectHeight"}
        if f.rule_id == "R1":
            assert ev["objectCenterY"] + ev["objectHeight"] / 2 > \
                ev["agentCenterY"] + ev["agentHeight"] / 2
        else:
            assert ev["objectCenterY"] + ev["objectHeight"] / 2 < \
                ev["agentCenterY"]


class CountingIndex:
    """Passes lookups through to an index and counts the subjects that
    ``subjects`` hands back: the candidates a caller goes on to examine."""

    def __init__(self, idx):
        self.idx = idx
        self.candidates = 0

    def subjects(self, predicate, obj=None):
        out = self.idx.subjects(predicate, obj)
        self.candidates += len(out)
        return out

    def __getattr__(self, name):
        return getattr(self.idx, name)


def test_kg_rules_scale_over_replicas(base_runs, affordance_table, monkeypatch):
    """Three replicas of the corpus share the agent IRI; each state lookup
    still examines one situation's states, not the agent's in every
    replica."""
    doc, expected = KgDocument(), set()
    for k in (1, 2, 3):
        for trace, meta in base_runs:
            meta = replace(meta, index=10 * k + meta.index)
            doc.update(build_activity_kg(trace, meta, affordance_table))
            expected |= {(f.key(), f.activity_iri, f.agent_iri, f.object_iri)
                         for f in eval_rules_trace(
                             trace, meta, affordance_table=affordance_table)}
    idx = doc.index()
    assert len({idx.object(a, S.AGENT) for a in idx.subjects(S.HAS_EVENT)}) == 1

    geometry, calls = risk._geometry, []

    def counted(index, entity, situation):
        probe = CountingIndex(index)
        result = geometry(probe, entity, situation)
        calls.append((probe.candidates, len(idx.subjects(S.PART_OF, situation))))
        return result

    monkeypatch.setattr(risk, "_geometry", counted)
    found = {(f.key(), f.activity_iri, f.agent_iri, f.object_iri)
             for f in eval_rules_kg(doc)}
    assert len(expected) == 3 * 6 and found == expected
    assert calls and all(n <= states for n, states in calls)
