"""The shipped schema.ttl and R1/R2 SPARQL texts agree with the graph that
synth and the risk rules write."""

import re

from vh2kg import schema as S
from vh2kg.fixtures import rule_query, schema_turtle
from vh2kg.rdf import RDF, RDFS
from vh2kg.risk import detect_risks

_TTL_PREFIX = re.compile(r"^@prefix ([\w-]*): <([^>]*)> \.$", re.M)
_TTL_DECLARED = re.compile(r"^([\w-]*:\w+) a ", re.M)
_RQ_PREFIX = re.compile(r"^PREFIX ([\w-]*): <([^>]*)>$", re.M)
# a property path in predicate position: right after a variable subject or
# after ';'
_RQ_PREDICATE = re.compile(r"(?:\?\w+|;)\s+([\w-]*:[^\s?]+)")


def _expand(qname, prefixes):
    prefix, local = qname.split(":", 1)
    return prefixes[prefix] + local


def _schema_declared():
    ttl = schema_turtle()
    prefixes = dict(_TTL_PREFIX.findall(ttl))
    return {_expand(q, prefixes) for q in _TTL_DECLARED.findall(ttl)}


def _rule_predicates(rule_id):
    query = rule_query(rule_id)
    prefixes = dict(_RQ_PREFIX.findall(query))
    where = query[query.index("WHERE"):]
    return {_expand(step.rstrip("*+?"), prefixes)
            for path in _RQ_PREDICATE.findall(where)
            for step in re.split(r"[/|]", path)}


def test_schema_and_rule_queries_match_the_graph(base_doc):
    declared = _schema_declared()
    _, risk_doc = detect_risks(base_doc)
    emitted = {t.predicate for t in base_doc.triples | risk_doc.triples
               if not t.predicate.startswith((RDF, RDFS))}
    assert {S.RISK_FACTOR, S.BBOX_CENTER, S.AFFORDS} <= emitted
    assert emitted - declared == set()

    classes = set(S.CATEGORY_CLASSES.values()) | {
        value for value in vars(S).values() if isinstance(value, str)
        and re.search(r"[/#][A-Z]\w*$", value)}
    assert {S.ACTIVITY, S.SHAPE, S.RISK_HIGH} <= classes
    assert classes - declared == set()

    in_graph = {t.predicate for t in base_doc.triples}
    for rule_id in ("R1", "R2"):
        named = _rule_predicates(rule_id)
        assert {S.HAS_EVENT, S.BBOX_CENTER, RDF + "first",
                RDFS + "subClassOf"} <= named
        assert named - in_graph == set()
