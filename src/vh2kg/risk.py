"""Geometric fall-risk rules over traces and knowledge graphs.

R1 flags any non-walking action on an object whose bounding-box top rises
above the agent's top; R2 flags grabbing an object whose top lies below the
agent's body center.  Both look only at the situation before the event and
use strict inequalities.  The equivalent SPARQL texts ship as fixture files
for external triplestores.

Both evaluators feed one finding builder, ``_findings``: ``eval_rules_kg``
reads each event's facts from a graph index, ``eval_rules_trace`` from a
simulation trace.  The trace side compares the numbers the KG stores (each
value through ``rdf.decimal``, read back), not the simulator's raw floats:
those are what the graph and its SPARQL users see, and a raw sum within an
ulp of a threshold would otherwise flip a rule between the two.  So each
activity's trace findings, paths included, are exactly ``eval_rules_kg``'s
on its reparsed graph.

The shipped r1.rq/r2.rq read an object's height from the static
``:height/rdf:value``, while ``_geometry`` reads the y size of the live state
shape.  The two agree only because the simulator never resizes a bbox; a
simulator that did would make the SPARQL and Python rules disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import schema as S
from .errors import MissingGeometry, VH2KGError
from .rdf import KgDocument, KgIndex, Literal, decimal
from .simulate import Trace
from .synth import ActivityMeta, IriFactory, node_iri

R1_EXCLUDED_VERBS = frozenset({"walk", "watch", "turnTo", "lookAt"})


@dataclass(frozen=True)
class RiskRule:
    id: str
    risk_class: str
    description: str


R1 = RiskRule("R1", S.RISK_HIGH,
              "act on an object whose top is above the agent's top")
R2 = RiskRule("R2", S.RISK_LOW,
              "grab an object whose top is below the agent's body center")
RULES = {"R1": R1, "R2": R2}


@dataclass(frozen=True)
class TaxonomyEntry:
    category: str
    description: str
    implemented: bool = False
    rule_id: str | None = None


#: The expert risk taxonomy; only two entries are executable rules.
RISK_TAXONOMY = (
    TaxonomyEntry("dangerous action", "go up or down the steps"),
    TaxonomyEntry("dangerous action", "straddle an object"),
    TaxonomyEntry("dangerous action", "walk backwards"),
    TaxonomyEntry("dangerous action", "stand on one leg"),
    TaxonomyEntry("dangerous action", "do some work using one's foot"),
    TaxonomyEntry("dangerous action", "stand up without support"),
    TaxonomyEntry("dangerous interaction", "reach an object that is in a high place",
                  implemented=True, rule_id="R1"),
    TaxonomyEntry("dangerous interaction", "take an object out of low shelves",
                  implemented=True, rule_id="R2"),
    TaxonomyEntry("dangerous interaction", "carry a heavy object"),
    TaxonomyEntry("dangerous interaction", "lean on an unstable object"),
    TaxonomyEntry("dangerous interaction",
                  "pick up an object on the floor while sitting on a chair"),
    TaxonomyEntry("dangerous spatial relationship", "an object is placed on an aisle"),
    TaxonomyEntry("dangerous spatial relationship",
                  "there is a gap between the bed and the wall"),
    TaxonomyEntry("dangerous spatial relationship", "a cushion is laid on a chair"),
    TaxonomyEntry("dangerous spatial relationship", "a bed has no side rails"),
    TaxonomyEntry("dangerous spatial relationship", "a chair has no armrest"),
)


@dataclass(frozen=True)
class RiskFinding:
    activity_iri: str
    event_iri: str
    rule_id: str
    agent_iri: str
    object_iri: str
    evidence: tuple  # sorted (key, value) pairs
    explanation_path: tuple  # ordered (s, p, o-repr) triples

    @property
    def evidence_map(self) -> dict:
        return dict(self.evidence)

    def key(self):
        return (self.event_iri, self.rule_id)


def _make_evidence(agent_cy, agent_h, obj_cy, obj_h):
    return tuple(sorted({
        "agentCenterY": agent_cy, "agentHeight": agent_h,
        "objectCenterY": obj_cy, "objectHeight": obj_h,
    }.items()))


def _matches(rule: RiskRule, verb: str, agent_cy, agent_h, obj_cy, obj_h) -> bool:
    if rule.id == "R1":
        if verb in R1_EXCLUDED_VERBS:
            return False
        return obj_cy + 0.5 * obj_h > agent_cy + 0.5 * agent_h
    if verb != "grab":
        return False
    return obj_cy + 0.5 * obj_h < agent_cy


# --- one finding builder, two sources of occasions ---

def _findings(occasions, rules) -> list[RiskFinding]:
    """Findings over ``occasions``, each ``(activity, agent, event, action,
    situation_before, object_property, object, (agent_cy, agent_h, obj_cy,
    obj_h))``.  Per ``(event, rule)`` the first matching object is kept;
    findings come sorted by that key."""
    found = {}
    for activity, agent, ev, action, situation, obj_prop, obj, numbers in occasions:
        verb = action[len(S.ACTION_NS):] if action else ""
        for rule_id in rules:
            if (ev, rule_id) in found or not _matches(RULES[rule_id], verb, *numbers):
                continue
            found[ev, rule_id] = RiskFinding(
                activity_iri=activity, event_iri=ev, rule_id=rule_id,
                agent_iri=agent, object_iri=obj,
                evidence=_make_evidence(*numbers),
                explanation_path=((activity, S.HAS_EVENT, ev),
                                  (ev, S.ACTION, action),
                                  (ev, obj_prop, obj),
                                  (ev, S.SITUATION_BEFORE, situation)))
    return [found[key] for key in sorted(found)]


def eval_rules_trace(trace: Trace, meta: ActivityMeta,
                     affordance_table=None) -> list[RiskFinding]:
    """R1/R2 findings read straight from a trace; they equal
    ``eval_rules_kg`` on the activity's serialized and reparsed graph.

    ``affordance_table`` stays for existing callers and is unused: the
    rules read geometry only."""
    return _findings(_trace_occasions(trace, IriFactory.for_meta(meta)), RULES)


def _trace_occasions(trace: Trace, f: IriFactory):
    activity, agent_iri = f.activity(), f.agent()
    agent_id = trace.situations[0].graph.agent.id
    for n, tr in enumerate(trace.transitions):
        pre = trace.situations[n].graph
        agent = pre.node(agent_id)
        for obj_prop, ref in ((S.MAIN_OBJECT, tr.step.main_object),
                              (S.TARGET_OBJECT, tr.step.target_object)):
            if ref is None or (node := pre.node(ref.id)).is_room:
                continue
            if node.bbox.size == (0.0, 0.0, 0.0):
                raise MissingGeometry(f"{node.class_name}#{node.id} has no geometry")
            numbers = (agent.bbox.center[1], agent.height_meters,
                       node.bbox.center[1], node.height_meters)
            yield (activity, agent_iri, f.event(n), S.action_iri(tr.step.verb),
                   f.situation(n), obj_prop, node_iri(f, node),
                   tuple(float(decimal(v).lexical) for v in numbers))  # as stored


# --- evaluation over knowledge graphs ---

def _collection_values(idx: KgIndex, head: str) -> list[float]:
    values = []
    while head != S.RDF_NIL:
        first = idx.object(head, S.RDF_FIRST)
        if not isinstance(first, Literal):
            raise MissingGeometry(f"collection cell {head} lacks a value")
        values.append(float(first.lexical))
        head = idx.object(head, S.RDF_REST)
        if head is None:
            raise MissingGeometry("truncated coordinate collection")
    return values


def _geometry(idx: KgIndex, entity: str, situation: str) -> tuple[float, float]:
    """(center_y, height) of an entity in the given situation."""
    # Search from the situation side: one scene's states, where the entity
    # side (the agent IRI is shared by every activity) spans the corpus.
    # Each candidate costs one lookup in the triple set.
    state = next((s for s in idx.subjects(S.PART_OF, situation)
                  if idx.has(s, S.IS_STATE_OF, entity)), None)
    if state is None:
        raise MissingGeometry(f"no state of {entity} in {situation}")
    shape = idx.object(state, S.BBOX)
    if shape is None:
        raise MissingGeometry(f"state {state} lacks a bbox shape")
    center = _collection_values(idx, idx.object(shape, S.BBOX_CENTER))
    height_node = idx.object(entity, S.HEIGHT)
    height = idx.object(height_node, S.RDF_VALUE) if height_node else None
    if height is None:
        raise MissingGeometry(f"{entity} lacks a height value")
    # Height may pre-date in-activity bbox changes; prefer the live shape size.
    size = _collection_values(idx, idx.object(shape, S.BBOX_SIZE))
    return center[1], size[1]


def eval_rules_kg(doc: KgDocument, rules=("R1", "R2")) -> list[RiskFinding]:
    return _findings(_kg_occasions(doc.index()), rules)


def _kg_occasions(idx: KgIndex):
    for activity in sorted(set(idx.subjects(S.HAS_EVENT))):
        agent = idx.object(activity, S.AGENT)
        for ev in sorted(idx.objects(activity, S.HAS_EVENT)):
            action = idx.object(ev, S.ACTION)
            situation = idx.object(ev, S.SITUATION_BEFORE)
            for obj_prop in (S.MAIN_OBJECT, S.TARGET_OBJECT):
                for obj in idx.objects(ev, obj_prop):
                    if S.ROOM in idx.objects(obj, S.RDF_TYPE):
                        continue
                    yield (activity, agent, ev, action, situation, obj_prop, obj,
                           (*_geometry(idx, agent, situation),
                            *_geometry(idx, obj, situation)))


def detect_risks(doc: KgDocument, rules=("R1", "R2")):
    """Evaluate rules over a KG; return ``(findings, risk_doc)``, where
    ``risk_doc`` holds only the findings' riskFactor and rdf:type triples.
    ``doc`` is left as it is; the augmented graph is the union of both, and
    ``rdf.augmented_lines`` writes it from ``doc``'s N-Triples lines."""
    findings = eval_rules_kg(doc, rules)
    risk_doc = KgDocument()
    for finding in findings:
        risk_doc.add(finding.activity_iri, S.RISK_FACTOR, finding.event_iri)
        risk_doc.add(finding.event_iri, S.RDF_TYPE, RULES[finding.rule_id].risk_class)
        risk_doc.add(finding.event_iri, S.RDF_TYPE, S.RISK_EVENT)
    return findings, risk_doc


# --- explanation export ---

_TEMPLATES = {
    "R1": ("the agent (top at {agent_top:.2f} m) performed '{verb}' on {obj} "
           "whose top ({obj_top:.2f} m) is above the agent's top"),
    "R2": ("the agent grabbed {obj} whose top ({obj_top:.2f} m) is below "
           "the agent's body center ({agent_center:.2f} m)"),
}


def _local(iri: str) -> str:
    return iri.rsplit("/", 1)[-1].rsplit("#", 1)[-1]


def explain(finding: RiskFinding, doc: KgDocument) -> dict:
    """Explanation bundle: DOT subgraph with the risk path in red, plus text."""
    if not finding.explanation_path:
        raise VH2KGError("finding carries an empty explanation path")
    idx = doc.index()
    for s, p, o in finding.explanation_path:
        if not idx.has(s, p, o):
            raise VH2KGError(f"explanation triple missing from KG: {s} {p} {o}")

    red = {(s, p, o) for s, p, o in finding.explanation_path}
    nodes = {finding.event_iri, finding.activity_iri, finding.object_iri,
             finding.agent_iri}
    for s, p, o in finding.explanation_path:
        nodes.add(s)
        if isinstance(o, str):
            nodes.add(o)
    edges = []
    for s in sorted(nodes):
        for t in idx.by_subject.get(s, ()):
            if isinstance(t.object, str) and (t.object in nodes
                                              or (s, t.predicate, t.object) in red):
                edges.append((s, t.predicate, t.object))
    lines = ["digraph risk {"]
    for node in sorted(nodes):
        shape = "box" if node == finding.event_iri else "ellipse"
        lines.append(f'  "{_local(node)}" [shape={shape}];')
    for s, p, o in sorted(set(edges)):
        attrs = f'label="{_local(p)}"'
        if (s, p, o) in red:
            attrs += ", color=red, fontcolor=red"
        lines.append(f'  "{_local(s)}" -> "{_local(o)}" [{attrs}];')
    lines.append("}")

    ev = finding.evidence_map
    verb = _local(next(o for s, p, o in finding.explanation_path
                       if p == S.ACTION))
    text = f"{finding.rule_id}: " + _TEMPLATES[finding.rule_id].format(
        agent_top=ev["agentCenterY"] + 0.5 * ev["agentHeight"],
        agent_center=ev["agentCenterY"],
        obj_top=ev["objectCenterY"] + 0.5 * ev["objectHeight"],
        obj=_local(finding.object_iri), verb=verb)
    return {"dot": "\n".join(lines) + "\n", "text": text}


# --- findings JSON ---

def findings_to_json(findings) -> str:
    payload = [
        {
            "activity": x.activity_iri,
            "event": x.event_iri,
            "rule": x.rule_id,
            "agent": x.agent_iri,
            "object": x.object_iri,
            "evidence": x.evidence_map,
            "path": [[s, p, o] for s, p, o in x.explanation_path],
        }
        for x in findings
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def findings_from_json(text: str) -> list[RiskFinding]:
    return [
        RiskFinding(
            activity_iri=row["activity"], event_iri=row["event"],
            rule_id=row["rule"], agent_iri=row["agent"],
            object_iri=row["object"],
            evidence=tuple(sorted(row["evidence"].items())),
            explanation_path=tuple((s, p, o) for s, p, o in row["path"]),
        )
        for row in json.loads(text)
    ]
