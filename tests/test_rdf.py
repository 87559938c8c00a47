"""Serialization tests, including an independent N-Triples reader used as a
round-trip oracle (deliberately not sharing code with the package parser)."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from vh2kg import rdf
from vh2kg import schema as S
from vh2kg.errors import NTriplesSyntaxError
from vh2kg.pipeline import analysis_report, evaluate_findings
from vh2kg.rdf import (EX, PREFIXES, RDF, VH2KG, XSD_DECIMAL, XSD_INT,
                       XSD_STRING, KgDocument, KgIndex, Literal, Triple,
                       _escape, _qnamer, decimal, graph_stats, integer,
                       parse_ntriples, serialize_ntriples, serialize_turtle,
                       string)
from vh2kg.risk import RULES, detect_risks, explain
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


def oracle_sorted(doc):
    """The keyed sort that ``sorted_triples()`` replaced."""
    return sorted(doc.triples, key=Triple.sort_key)


def oracle_ntriples(doc):
    """The per-triple N-Triples writer that the per-subject one replaced."""
    def term(o):
        if isinstance(o, str):
            return f"<{o}>"
        if o.datatype == XSD_STRING:
            return f'"{_escape(o.lexical)}"'
        return f'"{_escape(o.lexical)}"^^<{o.datatype}>'
    lines = [f"<{t.subject}> <{t.predicate}> {term(t.object)} ."
             for t in oracle_sorted(doc)]
    return "\n".join(lines) + ("\n" if lines else "")


_LOCAL_RE = re.compile(r"^[A-Za-z0-9_.-]*$")


def _qname(iri, prefixes):
    """Per-prefix qname lookup, the oracle for ``rdf._qnamer``.  Its ``$``
    also accepts a local part that ends in a line break; ``_qnamer`` does
    not."""
    best = None
    for prefix, ns in prefixes.items():
        if iri.startswith(ns) and (best is None or len(ns) > len(prefixes[best])):
            local = iri[len(ns):]
            if _LOCAL_RE.match(local) and not local.startswith((".", "-")) \
                    and not local.endswith("."):
                best = prefix
    if best is None:
        return f"<{iri}>"
    return f"{best}:{iri[len(prefixes[best]):]}"


def reference_turtle(doc):
    """Turtle with _qname called afresh for every term."""
    out = [f"@prefix {prefix}: <{ns}> ." for prefix, ns in PREFIXES.items()]
    out.append("")
    for t in oracle_sorted(doc):
        p = "a" if t.predicate == RDF + "type" else _qname(t.predicate, PREFIXES)
        o = t.object
        if isinstance(o, str):
            o = _qname(o, PREFIXES)
        elif o.datatype == XSD_STRING:
            o = f'"{_escape(o.lexical)}"'
        else:
            o = f'"{_escape(o.lexical)}"^^{_qname(o.datatype, PREFIXES)}'
        out.append(f"{_qname(t.subject, PREFIXES)} {p} {o} .")
    return "\n".join(out) + "\n"


def test_turtle_matches_per_term_qnames(base_doc):
    assert serialize_turtle(base_doc) == reference_turtle(base_doc)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("final", [True, False])
def test_parse_error_line_numbers(eol, final):
    """A bad line is numbered as ``text.split("\\n")`` numbers it, blank
    and comment lines included, with or without a final line break; a form
    feed, which ``splitlines`` would count, is not a line break."""
    good = "<http://x/a> <http://x/p> <http://x/b> ."
    for lines, bad, message in (
            (["", " \f ", good, "# note", "", "<a> <b> ."], 5, "cannot parse"),
            (["", good, "", '<a> <b> "\\q" .', good], 3, "bad escape")):
        text = eol.join(lines) + (eol if final else "")
        number = 1 + next(n for n, line in enumerate(text.split("\n"))
                          if line.strip() == lines[bad])
        assert number == bad + 1
        with pytest.raises(NTriplesSyntaxError, match=f"^line {number}: {message}"):
            parse_ntriples(text)


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

    def bypass():
        doc.triples[Triple(a, p, "http://x/4")] = None

    edits = [lambda: doc.add(a, p, "http://x/2"), lambda: doc.update(other),
             bypass]
    for n, edit in enumerate(edits, start=2):
        edit()
        assert len(doc.index().objects(a, p)) == n
        assert len(doc.sorted_triples()) == n
    expected = [f"http://x/{i}" for i in range(1, 5)]
    assert doc.index().objects(a, p) == expected  # in insertion order
    assert [t.object for t in doc.sorted_triples()] == expected
    doc.triples = {Triple(a, p, "http://x/5"): None}
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
    order = rdf._canonical_order
    monkeypatch.setattr(rdf, "_canonical_order",
                        lambda triples: calls.append(triples) or order(triples))
    serialize_ntriples(doc)
    serialize_turtle(doc)
    assert len(calls) == 1
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
    doc = KgDocument(triples=set(base_doc.triples))
    findings, _ = detect_risks(doc)
    analysis_report(doc)
    evaluate_findings(findings, ground_truth, doc)
    assert len(findings) >= 6
    for finding in findings[:6]:
        explain(finding, doc)
    assert len(activity_roots(doc)) == 20
    wl_relabel(doc, WalkConfig(depth=2, walks_per_entity=2, wl_iterations=1))
    assert len(builds) == 1 and builds[0] is doc


# -- the per-subject order and writers against their per-triple oracles ----

# Subjects that are prefixes of one another; IRIs equal to a namespace or
# outside every namespace; local parts with ".", "-", "/" and non-ASCII.
_TERMS = [EX + local for local in ("a", "a1", "a.b", "a_", "a-", "a/b", "café",
                                   "b.", "-b", ".b", "")]
_TERMS += [VH2KG, VH2KG + "Activity", "http://x/a", "http://x/a1", "urn:x"]
_TERM_PREDICATES = [RDF + "type", VH2KG + "p", VH2KG + "p.q", "http://x/p"]
_LEXICAL_FORMS = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "two\nlines", "tab\there",
                     "café ☃", "", EX + "a"]),
    st.text(max_size=6))
_TERM_LITERALS = st.builds(
    Literal, _LEXICAL_FORMS,
    st.sampled_from([XSD_STRING, XSD_INT, XSD_DECIMAL, "http://x/dt", EX + "a.b"]))
# Few subjects and predicates, so an IRI and a literal often share (s, p);
# the flag replaces a subject by an equal string that is another object.
_TERM_ROWS = st.lists(st.tuples(st.sampled_from(_TERMS), st.booleans(),
                                st.sampled_from(_TERM_PREDICATES),
                                st.one_of(st.sampled_from(_TERMS), _TERM_LITERALS)),
                      max_size=40)


def term_doc(rows):
    return KgDocument(triples=[Triple("".join(list(s)) if copy else s, p, o)
                               for s, copy, p, o in rows])


_TTL_PREFIX = re.compile(r"@prefix ([A-Za-z0-9_-]*): <([^>]*)> \.")
_TTL_IRI = r"<[^>]*>|[A-Za-z0-9_-]*:\S*"
_TTL_LINE = re.compile(
    rf'({_TTL_IRI}) (a|{_TTL_IRI}) '
    rf'(?:({_TTL_IRI})|"((?:[^"\\]|\\.)*)"(?:\^\^({_TTL_IRI}))?) \.')
_TTL_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def read_turtle(text):
    """Reader for exactly the Turtle that ``serialize_turtle`` writes:
    ``@prefix`` lines, a blank line, then one ``s p o .`` per line with
    ``a``, ``prefix:local`` and ``<iri>`` terms and ``"..."`` or
    ``"..."^^term`` literals."""
    head, _, body = text.partition("\n\n")
    prefixes = dict(_TTL_PREFIX.fullmatch(line).groups()
                    for line in head.split("\n"))

    def iri(term):
        if term.startswith("<"):
            return term[1:-1]
        prefix, _, local = term.partition(":")
        return prefixes[prefix] + local

    triples = set()
    assert body.endswith("\n") or not body
    for line in body.split("\n")[:-1]:
        m = _TTL_LINE.fullmatch(line)
        assert m, f"cannot read {line!r}"
        s, p, o, lexical, datatype = m.groups()
        if o is None:
            lexical = re.sub(r"\\(.)", lambda e: _TTL_ESCAPES[e[1]], lexical)
            o = Literal(lexical, iri(datatype) if datatype else XSD_STRING)
        else:
            o = iri(o)
        triples.add(Triple(iri(s), RDF + "type" if p == "a" else iri(p), o))
    return triples


def test_canonical_order_sorts_mixed_objects_by_key():
    """An IRI and a literal under one (s, p) do not compare as tuples."""
    s, p = EX + "a", VH2KG + "p"
    triples = [Triple(s, p, Literal("b")), Triple(s, p, "http://x/b"),
               Triple(EX + "a1", p, "http://x/c"), Triple(s, p, Literal("a")),
               Triple(s, p, "http://x/a")]
    with pytest.raises(TypeError):
        sorted(triples)
    assert list(rdf._canonical_order(triples)) == sorted(triples,
                                                         key=Triple.sort_key)


@settings(max_examples=300, deadline=None)
@given(_TERM_ROWS, _TERM_ROWS)
def test_augmented_inserts_into_the_cached_order(rows, extra_rows):
    # extra_rows overlap rows often, so some "new" triples are already in doc
    doc, extra = term_doc(rows), term_doc(extra_rows)
    union = KgDocument(triples=doc.triples | extra.triples)
    lines = rdf.ntriples_lines(doc.sorted_triples())
    written = rdf._text(rdf.augmented_lines(doc, lines, extra))
    assert written == serialize_ntriples(union) == oracle_ntriples(union)
    assert lines == rdf.ntriples_lines(oracle_sorted(doc))  # lines left alone
    assert len(doc.triples) == len(term_doc(rows).triples)  # doc left alone


def test_augmented_corpus_sorts_once(base_doc, monkeypatch):
    doc = KgDocument(triples=base_doc.triples.copy())
    _, risk_doc = detect_risks(doc)
    expected = serialize_ntriples(KgDocument(triples=doc.triples | risk_doc.triples))
    lines = rdf.ntriples_lines(doc.sorted_triples())
    sorts = []
    real = rdf._canonical_order
    monkeypatch.setattr(rdf, "_canonical_order",
                        lambda triples: sorts.append(1) or real(triples))
    assert rdf._text(rdf.augmented_lines(doc, lines, risk_doc)) == expected
    assert sorts == []


@settings(max_examples=300, deadline=None)
@given(_TERM_ROWS)
def test_writers_match_per_triple_oracles(rows):
    doc = term_doc(rows)
    assert list(doc.sorted_triples()) == oracle_sorted(doc)
    nt, ttl = serialize_ntriples(doc), serialize_turtle(doc)
    assert nt == oracle_ntriples(doc)
    assert ttl == reference_turtle(doc)
    assert read_turtle(ttl) == doc.triples.keys()
    parsed = parse_ntriples(nt)
    assert parsed.triples == doc.triples
    assert list(parsed.triples) == list(doc.sorted_triples())


_MIXED = [(EX + "a", False, VH2KG + "p", EX + "b"),
          (EX + "a", False, VH2KG + "p", Literal("b")),
          (EX + "a", True, RDF + "type", VH2KG + "Activity")]


@settings(max_examples=200, deadline=None)
@given(_TERM_ROWS, st.lists(st.lists(st.booleans(), min_size=40, max_size=40),
                            min_size=1, max_size=4), _TERM_ROWS)
@example(_MIXED, [[True, True, False] + [False] * 37, [False, True, True] + [True] * 37],
         [(EX + "a", False, VH2KG + "p", Literal("a"))])
def test_parts_select_their_lines_from_the_whole(tmp_path_factory, rows, masks,
                                                 extra_rows):
    """Each part of a document, written from the whole's lines at its
    positions, has its own serializers' bytes; so has the whole plus a few
    extra triples, written from the whole's lines plus theirs."""
    whole, extra = term_doc(rows), term_doc(extra_rows)
    triples = list(whole.triples)
    parts = [KgDocument(triples=[t for t, keep in zip(triples, mask) if keep])
             for mask in masks]  # overlapping subsets of the whole
    order = whole.sorted_triples()
    nt = rdf.ntriples_lines(order)
    ttl = rdf.turtle_lines(order)
    header = rdf.turtle_header()
    path = tmp_path_factory.getbasetemp() / "selected"

    def written(lines, header=()):
        rdf.write_lines(path, lines, header)
        return path.read_bytes().decode("utf-8")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rdf, "_CHUNK", 3)  # files span several chunks
        positions = rdf.sorted_positions(whole, (part.triples for part in parts))
        for part, at in zip(parts, positions):
            assert written(map(nt.__getitem__, at)) == serialize_ntriples(part) \
                == oracle_ntriples(part)
            assert written(map(ttl.__getitem__, at), header) == serialize_turtle(part) \
                == reference_turtle(part)
        union = KgDocument(triples=whole.triples | extra.triples)
        assert written(rdf.augmented_lines(whole, nt, extra)) \
            == serialize_ntriples(union) == oracle_ntriples(union)
        assert written(nt) == serialize_ntriples(whole)  # nt left alone


def test_turtle_reads_back(base_doc):
    assert read_turtle(serialize_turtle(base_doc)) == base_doc.triples.keys()


_NAMESPACES = ["", "http://x/", "http://x/a", "http://x/a/", "http://x/a.",
               EX, VH2KG, rdf.AN]
_PREFIX_TABLES = st.lists(st.tuples(st.sampled_from(["", "ex", "p", "q-1", "x3"]),
                                    st.sampled_from(_NAMESPACES)),
                          max_size=6).map(dict)
_QNAME_IRIS = st.tuples(st.sampled_from(_NAMESPACES),
                        st.text(alphabet="ab1_.-/é\n", max_size=5)).map("".join)


@settings(max_examples=500, deadline=None)
@given(_PREFIX_TABLES, st.lists(_QNAME_IRIS, max_size=8))
def test_qname_regex_matches_per_prefix_oracle(prefixes, iris):
    qname = _qnamer(prefixes)
    for iri in iris + iris:  # the second lookup of each comes from the memo
        expected = f"<{iri}>" if iri.endswith("\n") else _qname(iri, prefixes)
        assert qname(iri) == expected


def test_qname_never_ends_in_a_line_break():
    """The oracle's ``$`` accepts a local part ending in a line break."""
    assert _qname(EX + "a\n", PREFIXES) == "ex:a\n"
    assert _qnamer(PREFIXES)(EX + "a\n") == f"<{EX}a\n>"
    assert _qnamer(PREFIXES)(EX + "a") == "ex:a"


# -- the order contract: documents keep triples in insertion order ---------


def test_order_contract_triples_and_lookups_follow_insertion():
    p, q = "http://x/p", "http://x/q"
    added = [Triple(f"http://x/{s}", pred, f"http://x/{o}")
             for s, pred, o in (("c", p, "z"), ("a", q, "y"), ("c", p, "x"),
                                ("b", p, "z"), ("a", p, "y"), ("c", q, "w"))]
    doc = KgDocument()
    for t in added[:3]:
        doc.add(*t)
    other = KgDocument(triples=added[3:])
    doc.update(other)
    doc.add(*added[0])  # a triple added again keeps its place
    assert list(doc.triples) == added
    idx = doc.index()
    assert idx.objects("http://x/c", p) == ["http://x/z", "http://x/x"]
    assert idx.subjects(p) == ["http://x/c", "http://x/c", "http://x/b", "http://x/a"]
    assert idx.subjects(p, "http://x/z") == ["http://x/c", "http://x/b"]
    assert list(idx.by_subject) == ["http://x/c", "http://x/a", "http://x/b"]


def test_order_contract_parse_follows_canonical_order(base_doc):
    for doc in (sample_doc(), base_doc):
        parsed = parse_ntriples(serialize_ntriples(doc))
        assert list(parsed.triples) == list(doc.sorted_triples())


def test_order_contract_detect_risks_leaves_its_input_alone(base_doc):
    doc = KgDocument(triples=base_doc.triples.copy())
    size, idx, order = len(doc.triples), doc.index(), doc.sorted_triples()
    stats = graph_stats(doc)
    detect_risks(doc)
    assert len(doc.triples) == size and list(doc.triples) == list(base_doc.triples)
    assert doc.index() is idx and doc.sorted_triples() is order
    assert graph_stats(doc) == stats


def test_order_contract_risk_doc_holds_the_finding_triples(base_doc):
    findings, risk_doc = detect_risks(base_doc)
    assert findings
    expected = []
    for f in findings:
        expected += [(f.activity_iri, S.RISK_FACTOR, f.event_iri),
                     (f.event_iri, RDF + "type", RULES[f.rule_id].risk_class),
                     (f.event_iri, RDF + "type", S.RISK_EVENT)]
    assert list(risk_doc.triples) == list(dict.fromkeys(expected))
