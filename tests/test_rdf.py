"""Serialization tests, including an independent N-Triples reader used as a
round-trip oracle (deliberately not sharing code with the package parser)."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from vh2kg import rdf
from vh2kg.errors import NTriplesSyntaxError
from vh2kg.pipeline import analysis_report, evaluate_findings
from vh2kg.rdf import (RDF, XSD_DECIMAL, XSD_INT, XSD_STRING, KgDocument,
                       KgIndex, Literal, Triple, _escape, _qname, decimal,
                       graph_stats, integer, parse_ntriples, serialize_ntriples,
                       serialize_turtle, string)
from vh2kg.risk import detect_risks, explain
from vh2kg.walks import WalkConfig, activity_roots, wl_relabel

_ORACLE_RE = re.compile(
    r'^<([^>]*)> <([^>]*)> (?:<([^>]*)>|"((?:[^"\\]|\\.)*)"'
    r'(?:\^\^<([^>]*)>)?) \.$')


def oracle_read(text):
    """Line-by-line N-Triples reader; returns a set of plain tuples."""
    out = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _ORACLE_RE.match(line)
        assert m, f"oracle cannot read: {line!r}"
        iri_s, iri_p, iri_o, lex, dt = m.groups()
        if iri_o is not None:
            out.add((iri_s, iri_p, ("iri", iri_o)))
        else:
            unescaped = lex.encode().decode("unicode_escape")
            out.add((iri_s, iri_p, ("lit", unescaped, dt or "string")))
    return out


def sample_doc():
    doc = KgDocument()
    doc.add("http://x/a", "http://x/p", "http://x/b")
    doc.add("http://x/a", "http://x/q", integer(7))
    doc.add("http://x/b", "http://x/r", decimal(1.25))
    doc.add("http://x/b", "http://x/s", string('say "hi"\nplease\t\\done'))
    return doc


def test_round_trip_against_oracle():
    doc = sample_doc()
    text = serialize_ntriples(doc)
    assert parse_ntriples(text).triples == doc.triples
    oracle = oracle_read(text)
    assert len(oracle) == len(doc.triples)
    assert ("http://x/a", "http://x/p", ("iri", "http://x/b")) in oracle
    assert ("http://x/b", "http://x/s",
            ("lit", 'say "hi"\nplease\t\\done', "string")) in oracle


def test_corpus_round_trip_against_oracle(base_doc):
    text = serialize_ntriples(base_doc)
    assert parse_ntriples(text).triples == base_doc.triples
    oracle = oracle_read(text)
    ours = set()
    for t in base_doc.triples:
        if isinstance(t.object, str):
            ours.add((t.subject, t.predicate, ("iri", t.object)))
        elif t.object.datatype.endswith("#string"):
            ours.add((t.subject, t.predicate, ("lit", t.object.lexical, "string")))
        else:
            ours.add((t.subject, t.predicate,
                      ("lit", t.object.lexical, t.object.datatype)))
    assert oracle == ours


def round_trip(lexical, datatype=XSD_STRING):
    doc = KgDocument()
    doc.add("http://x/a", "http://x/p", Literal(lexical, datatype))
    (triple,) = parse_ntriples(serialize_ntriples(doc)).triples
    return triple.object.lexical


@given(st.text())
def test_any_literal_round_trips(text):
    assert round_trip(text) == text
    assert round_trip(text, XSD_DECIMAL) == text


def test_backslashes_survive_round_trip():
    assert round_trip("C:\\temp\\new") == "C:\\temp\\new"
    assert round_trip("\\n\\\\t") == "\\n\\\\t"


def test_parse_numeric_escapes():
    doc = parse_ntriples('<a> <b> "caf\\u00E9 \\U0001F600\\u005Cn" .\n')
    (triple,) = doc.triples
    assert triple.object.lexical == "caf\u00e9 \U0001F600\\n"


def test_parse_rejects_bad_escapes():
    for bad in ("\\q", "\\u12", "\\U00110000"):
        with pytest.raises(NTriplesSyntaxError, match="line 1: bad escape"):
            parse_ntriples(f'<a> <b> "{bad}" .\n')


def test_serialization_sorted_and_stable():
    a = serialize_ntriples(sample_doc())
    b = serialize_ntriples(sample_doc())
    assert a == b
    lines = a.splitlines()
    assert lines == sorted(lines)


def test_plain_string_has_no_datatype_suffix():
    doc = KgDocument()
    doc.add("http://x/a", "http://x/p", string("hello"))
    assert '"hello" .' in serialize_ntriples(doc)
    assert "^^" not in serialize_ntriples(doc)


def test_turtle_prefixes_and_qnames(base_doc):
    ttl = serialize_turtle(base_doc)
    assert "@prefix ex: <http://example.org/virtualhome2kg/instance/> ." in ttl
    assert "@prefix : <http://example.org/virtualhome2kg/ontology/> ." in ttl
    assert " a :Activity" in ttl
    assert '^^xsd:int' in ttl


def reference_turtle(doc):
    """Turtle with _qname called afresh for every term."""
    out = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in doc.prefixes.items()]
    out.append("")
    for t in doc.sorted_triples():
        p = "a" if t.predicate == RDF + "type" else _qname(t.predicate, doc.prefixes)
        o = t.object
        if isinstance(o, str):
            o = _qname(o, doc.prefixes)
        elif o.datatype == XSD_STRING:
            o = f'"{_escape(o.lexical)}"'
        else:
            o = f'"{_escape(o.lexical)}"^^{_qname(o.datatype, doc.prefixes)}'
        out.append(f"{_qname(t.subject, doc.prefixes)} {p} {o} .")
    return "\n".join(out) + "\n"


def test_turtle_matches_per_term_qnames(base_doc):
    assert serialize_turtle(base_doc) == reference_turtle(base_doc)


def test_parse_rejects_garbage():
    with pytest.raises(NTriplesSyntaxError):
        parse_ntriples("<a> <b> .\n")
    with pytest.raises(NTriplesSyntaxError):
        parse_ntriples("not a triple at all\n")


def test_graph_stats_excludes_schema_iris():
    doc = KgDocument()
    doc.add("http://example.org/virtualhome2kg/instance/a",
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "http://example.org/virtualhome2kg/ontology/Activity")
    stats = graph_stats(doc)
    assert stats["triples"] == 1
    assert stats["entities"] == 1  # the class IRI does not count


def test_graph_stats_is_a_cached_copy(monkeypatch):
    counts = []
    count_graph = rdf._count_graph
    monkeypatch.setattr(rdf, "_count_graph",
                        lambda doc: counts.append(doc) or count_graph(doc))
    doc = sample_doc()
    stats = graph_stats(doc)
    stats["triples"] = -1
    assert graph_stats(doc)["triples"] == 4
    assert len(counts) == 1
    doc.add("http://x/c", "http://x/p", "http://x/a")
    assert graph_stats(doc) == {"entities": 3, "properties": 4, "triples": 5}
    assert len(counts) == 2


def test_index_lookups(base_doc):
    idx = KgIndex(base_doc)
    activity = "http://example.org/virtualhome2kg/instance/carry_box0_scene1"
    events = idx.objects(activity, "http://example.org/virtualhome2kg/ontology/hasEvent")
    assert len(events) == 5


class ScanIndex:
    """The linear-scan index that KgIndex's hashed lookups replaced; kept as
    their oracle."""

    def __init__(self, doc):
        self.by_subject, self.by_predicate = {}, {}
        for t in doc.triples:
            self.by_subject.setdefault(t.subject, []).append(t)
            self.by_predicate.setdefault(t.predicate, []).append(t)

    def objects(self, subject, predicate):
        return [t.object for t in self.by_subject.get(subject, ())
                if t.predicate == predicate]

    def object(self, subject, predicate):
        objs = self.objects(subject, predicate)
        return objs[0] if objs else None

    def subjects(self, predicate, obj=None):
        return [t.subject for t in self.by_predicate.get(predicate, ())
                if obj is None or t.object == obj]


_IRIS = [f"http://x/{c}" for c in "abcdef"]
_PREDICATES = [f"http://x/p{i}" for i in range(3)]
# Literals that share a lexical form with an IRI or with each other, so a
# lookup must tell an IRI from a literal and one datatype from another.
_OBJECTS = _IRIS + [Literal(_IRIS[0]), Literal("1"), Literal("1", XSD_INT)]

_documents = st.lists(st.tuples(st.sampled_from(_IRIS),
                                st.sampled_from(_PREDICATES),
                                st.sampled_from(_OBJECTS)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_index_matches_linear_scan_oracle(rows):
    doc = KgDocument()
    for row in rows:
        doc.add(*row)
    idx, oracle = doc.index(), ScanIndex(doc)
    for p in _PREDICATES + ["http://x/unused"]:
        assert idx.subjects(p) == oracle.subjects(p)
        for o in _OBJECTS:
            assert idx.subjects(p, o) == oracle.subjects(p, o)
        for s in _IRIS:
            assert idx.objects(s, p) == oracle.objects(s, p)
            assert idx.object(s, p) == oracle.object(s, p)


def test_subjects_returns_a_copy():
    doc = KgDocument()
    doc.add("http://x/a", "http://x/p", "http://x/b")
    doc.index().subjects("http://x/p", "http://x/b").append("junk")
    assert doc.index().subjects("http://x/p", "http://x/b") == ["http://x/a"]


def test_cached_views_see_every_edit():
    a, p = "http://x/a", "http://x/p"
    doc = KgDocument()
    doc.add(a, p, "http://x/1")
    idx = doc.index()
    assert doc.index() is idx and doc.sorted_triples() is doc.sorted_triples()
    other = KgDocument()
    other.add(a, p, "http://x/3")
    edits = [lambda: doc.add(a, p, "http://x/2"),
             lambda: doc.update(other),
             lambda: doc.triples.add(Triple(a, p, "http://x/4"))]  # bypass
    for n, edit in enumerate(edits, start=2):
        edit()
        assert len(doc.index().objects(a, p)) == n
        assert len(doc.sorted_triples()) == n
    expected = [f"http://x/{i}" for i in range(1, 5)]
    assert sorted(doc.index().objects(a, p)) == expected
    assert [t.object for t in doc.sorted_triples()] == expected
    doc.triples = {Triple(a, p, "http://x/5")}
    assert doc.index().subjects(p, "http://x/5") == [a]
    assert doc.sorted_triples() == (Triple(a, p, "http://x/5"),)


def test_cache_is_not_part_of_the_document():
    doc = sample_doc()
    doc.index()
    doc.sorted_triples()
    assert doc == sample_doc()
    assert repr(doc) == repr(sample_doc())


def test_serializers_share_one_sort(monkeypatch):
    doc = sample_doc()
    calls = []
    key = Triple.sort_key
    monkeypatch.setattr(Triple, "sort_key", lambda t: calls.append(t) or key(t))
    serialize_ntriples(doc)
    serialize_turtle(doc)
    assert len(calls) == len(doc.triples)
    assert isinstance(doc.sorted_triples(), tuple)


def test_one_index_per_document(base_doc, ground_truth, monkeypatch):
    """Risks, report, evaluation, explanations, roots and walks (WL
    included) on one document share its one index."""
    builds = []
    init = rdf.KgIndex.__init__

    def counting(self, doc):
        builds.append(doc)
        init(self, doc)

    monkeypatch.setattr(rdf.KgIndex, "__init__", counting)
    doc = KgDocument(dict(base_doc.prefixes), set(base_doc.triples))
    findings, _ = detect_risks(doc)
    analysis_report(doc)
    evaluate_findings(findings, ground_truth, doc)
    assert len(findings) >= 6
    for finding in findings[:6]:
        explain(finding, doc)
    assert len(activity_roots(doc)) == 20
    wl_relabel(doc, WalkConfig(depth=2, walks_per_entity=2, wl_iterations=1))
    assert len(builds) == 1 and builds[0] is doc
