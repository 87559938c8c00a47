"""Cheap triples: NamedTuple ``Triple``/``Literal``, bulk builds with cyclic
GC paused, one object per repeated term, and the memoized ``decimal``.

The slotted frozen dataclasses that the NamedTuples replaced are kept here
as the oracle: hashes, set iteration order and serialized bytes must match.
"""

import gc
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from vh2kg import rdf, synth
from vh2kg.errors import InvalidTrace, NTriplesSyntaxError
from vh2kg.rdf import (EX, XSD_DECIMAL, XSD_INT, XSD_STRING, KgDocument,
                       Literal, Triple, decimal, parse_ntriples,
                       serialize_ntriples, serialize_turtle)
from vh2kg.synth import build_activity_kg


@dataclass(frozen=True, order=True, slots=True)
class OldLiteral:
    lexical: str
    datatype: str = XSD_STRING


@dataclass(frozen=True, slots=True)
class OldTriple:
    subject: str
    predicate: str
    object: object


_IRIS = [EX + name for name in ("a", "b", "c", "room1_scene1")]
_PREDICATES = ["http://x/p", "http://x/q", rdf.RDF + "type"]
# Lexical forms include the IRIs themselves, so an IRI and a literal that
# spell the same text must stay apart.
_LEXICALS = st.one_of(st.sampled_from(_IRIS + ["", "1", "1.5"]), st.text(max_size=8))
_OBJECTS = st.one_of(
    st.sampled_from(_IRIS),
    st.tuples(_LEXICALS, st.sampled_from([XSD_STRING, XSD_INT, XSD_DECIMAL])))
_ROWS = st.lists(st.tuples(st.sampled_from(_IRIS), st.sampled_from(_PREDICATES),
                           _OBJECTS), max_size=40)


def plain(t):
    o = t.object
    return (t.subject, t.predicate,
            o if isinstance(o, str) else ("literal", o.lexical, o.datatype))


@settings(max_examples=200, deadline=None)
@given(_ROWS)
def test_namedtuples_match_dataclass_oracle(rows):
    new, old = KgDocument(), KgDocument()
    for s, p, o in rows:
        if isinstance(o, str):
            t, ot = Triple(s, p, o), OldTriple(s, p, o)
        else:
            lit, old_lit = Literal(*o), OldLiteral(*o)
            assert hash(lit) == hash(old_lit) == hash(o) and lit == o
            t, ot = Triple(s, p, lit), OldTriple(s, p, old_lit)
        assert hash(t) == hash(ot)
        assert t == (s, p, t.object) and hash(t) == hash((s, p, t.object))
        new.add(s, p, t.object)
        old.triples.add(ot)
    assert [plain(t) for t in new.triples] == [plain(t) for t in old.triples]
    assert serialize_ntriples(new) == serialize_ntriples(old)
    assert serialize_turtle(new) == serialize_turtle(old)


def test_namedtuple_fields_and_defaults():
    t = Triple("http://x/a", "http://x/p", Literal("v"))
    assert (t.subject, t.predicate, t.object) == tuple(t)
    assert (t.object.lexical, t.object.datatype) == ("v", XSD_STRING)
    assert Triple._fields == ("subject", "predicate", "object")
    assert Literal._fields == ("lexical", "datatype")
    assert repr(Literal("v")) == f"Literal(lexical='v', datatype='{XSD_STRING}')"


# -- the GC pause --------------------------------------------------------


@pytest.fixture
def gc_enabled():
    assert gc.isenabled()
    yield
    gc.enable()


def test_paused_gc_nests_and_restores(gc_enabled):
    with rdf._paused_gc():
        with rdf._paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(KeyError):
        with rdf._paused_gc():
            raise KeyError("inner")
    assert gc.isenabled()


def test_builders_run_with_gc_paused(base_runs, affordance_table, monkeypatch,
                                     gc_enabled):
    seen = {}
    unescape, init = rdf._unescape, rdf.KgIndex.__init__

    def record(name, fn):
        return lambda *a: seen.setdefault(name, set()).add(gc.isenabled()) or fn(*a)

    monkeypatch.setattr(rdf, "_unescape", record("parse", unescape))
    monkeypatch.setattr(synth, "decimal", record("synth", decimal))
    monkeypatch.setattr(rdf.KgIndex, "__init__", record("index", init))
    trace, meta = base_runs[0]
    doc = build_activity_kg(trace, meta, affordance_table)
    parse_ntriples(serialize_ntriples(doc)).index()
    assert seen == {"synth": {False}, "parse": {False}, "index": {False}}
    assert gc.isenabled()


def test_parse_keeps_insertion_order(base_doc):
    """The parsed set iterates like one filled by ``add`` in line order."""
    oracle = KgDocument()
    for t in base_doc.sorted_triples():
        oracle.add(*t)
    parsed = parse_ntriples(serialize_ntriples(base_doc))
    assert list(parsed.triples) == list(oracle.triples)


def test_parse_error_restores_gc(gc_enabled):
    text = '<http://x/a> <http://x/p> "ok" .\n<http://x/a> oops\n'
    with pytest.raises(NTriplesSyntaxError, match="line 2"):
        parse_ntriples(text)
    assert gc.isenabled()
    with pytest.raises(NTriplesSyntaxError, match="bad escape"):
        parse_ntriples('<http://x/a> <http://x/p> "\\q" .\n')
    assert gc.isenabled()


def test_synth_errors_restore_gc_and_leave_doc(base_runs, affordance_table,
                                               monkeypatch, gc_enabled):
    trace, meta = base_runs[0]
    doc = KgDocument()
    doc.add("http://x/a", "http://x/p", "http://x/b")
    with pytest.raises(InvalidTrace):
        build_activity_kg(replace(trace, situations=trace.situations[:-1]),
                          meta, affordance_table, doc=doc)
    assert gc.isenabled()

    def broken(value, places=9):
        raise ValueError("no decimals today")

    monkeypatch.setattr(synth, "decimal", broken)
    with pytest.raises(ValueError):
        build_activity_kg(trace, meta, affordance_table, doc=doc)
    assert gc.isenabled()
    assert len(doc.triples) == 1  # a failed build adds nothing


def test_caller_gc_disable_stays_in_force(base_runs, affordance_table,
                                          gc_enabled):
    trace, meta = base_runs[0]
    gc.disable()
    doc = build_activity_kg(trace, meta, affordance_table)
    doc.index()
    parse_ntriples(serialize_ntriples(doc))
    with pytest.raises(NTriplesSyntaxError):
        parse_ntriples("garbage\n")
    with pytest.raises(InvalidTrace):
        build_activity_kg(replace(trace, transitions=()), meta)
    assert not gc.isenabled()


# -- one object per repeated term ----------------------------------------


def distinct_objects(values):
    """(distinct objects, distinct values) among ``values``."""
    values = list(values)
    return len(set(map(id, values))), len(set(values))


def test_parse_makes_one_object_per_term(base_doc):
    doc = parse_ntriples(serialize_ntriples(base_doc))
    ids, distinct = distinct_objects(t.predicate for t in doc.triples)
    assert ids == distinct == len(base_doc.index().by_predicate)
    literals = [t.object for t in doc.triples if not isinstance(t.object, str)]
    iris = [t.subject for t in doc.triples]
    iris += [t.object for t in doc.triples if isinstance(t.object, str)]
    iris += [lit.datatype for lit in literals]
    for terms in (literals, iris):
        ids, distinct = distinct_objects(terms)
        assert ids == distinct


def test_synth_mints_each_event_and_situation_iri_once(base_doc):
    terms = [t.subject for t in base_doc.triples]
    terms += [t.object for t in base_doc.triples if isinstance(t.object, str)]
    for kind in ("home_situation", "event"):
        named = [term for term in terms if term.startswith(EX + kind)]
        ids, distinct = distinct_objects(named)
        assert ids == distinct > 100


# -- decimal -------------------------------------------------------------


def test_decimal_zero_keeps_its_sign():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        rdf._cached_fixed_point.cache_clear()
        decimal(first)
        assert decimal(second).lexical == repr(second)
        assert decimal(first).lexical == repr(first)
    assert decimal(1) == decimal(1.0) == Literal("1.0", XSD_DECIMAL)
    assert decimal(2.25) is decimal(2.25)


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(-10**6, 10**6)),
       st.integers(0, 12))
def test_decimal_matches_uncached_form(value, places):
    assert decimal(value, places) == rdf._fixed_point(value, places)
