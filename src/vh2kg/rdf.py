"""Minimal RDF model with deterministic N-Triples / Turtle serialization.

Documents are plain triple sets plus a prefix table.  Serialization sorts
triples lexicographically by subject, predicate, object so identical
documents always produce byte-identical output.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .errors import NTriplesSyntaxError

# Namespace table.  The instance/ontology/action namespaces follow the
# conventional virtualhome2kg layout; ho/hra hang off the ontology root;
# x3do and time use the public X3D Ontology 4.0 and W3C Time namespaces.
EX = "http://example.org/virtualhome2kg/instance/"
VH2KG = "http://example.org/virtualhome2kg/ontology/"
AN = "http://example.org/virtualhome2kg/ontology/action/"
HO = "http://example.org/virtualhome2kg/ontology/ho/"
HRA = "http://example.org/virtualhome2kg/ontology/hra/"
X3DO = "https://www.web3d.org/specifications/X3dOntology4.0#"
TIME = "http://www.w3.org/2006/time#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"

PREFIXES = {
    "ex": EX,
    "": VH2KG,
    "vh2kg-an": AN,
    "ho": HO,
    "hra": HRA,
    "x3do": X3DO,
    "time": TIME,
    "rdf": RDF,
    "rdfs": RDFS,
    "xsd": XSD,
}

#: Namespaces whose IRIs count as schema constants, not entities.
SCHEMA_NAMESPACES = (VH2KG, AN, HO, HRA, X3DO, TIME, RDF, RDFS, XSD)

XSD_STRING = XSD + "string"
XSD_INT = XSD + "int"
XSD_DECIMAL = XSD + "decimal"


class Literal(NamedTuple):
    lexical: str
    datatype: str = XSD_STRING


class Triple(NamedTuple):
    """One statement.  Equal to, and hashed like, the plain tuple
    ``(subject, predicate, object)``; hashing and equality run in C."""
    subject: str
    predicate: str
    object: object  # str (IRI) or Literal

    def sort_key(self):
        o = self.object
        okey = (0, o, "") if isinstance(o, str) else (1, o.lexical, o.datatype)
        return (self.subject, self.predicate, okey)


@contextmanager
def _paused_gc():
    """Switch off cyclic garbage collection while a bulk builder runs.

    The builders make only acyclic objects (strings, tuples, and lists and
    dicts of them), so a collection finds nothing, yet one runs for about
    every 700 new tuples, lists or dicts.  The earlier state is restored on exit, so a caller's
    own ``gc.disable()`` stays in force; nothing is collected here.  This
    stands in for plain-tuple triples, which CPython stops tracking, until
    the benchmark reads triples by position instead of by attribute.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def integer(value: int) -> Literal:
    return Literal(str(int(value)), XSD_INT)


def _fixed_point(value: float, places: int) -> Literal:
    # Fixed-point lexical form keeps serialization byte-stable.
    lex = f"{value:.{places}f}".rstrip("0")
    if lex.endswith("."):
        lex += "0"
    return Literal(lex, XSD_DECIMAL)


_cached_fixed_point = lru_cache(maxsize=1 << 14)(_fixed_point)


def decimal(value: float, places: int = 9) -> Literal:
    # One object per repeated value.  0.0 and -0.0 are one cache key but
    # print "0.0" and "-0.0", so zero bypasses the cache.
    if value:
        return _cached_fixed_point(value, places)
    return _fixed_point(value, places)


def string(value: str) -> Literal:
    return Literal(value, XSD_STRING)


@dataclass
class KgDocument:
    """A triple set plus a prefix table.

    ``index()``, ``sorted_triples()`` and ``graph_stats(doc)`` are views
    cached on the document.  ``add``, ``add_all`` and ``update`` drop them;
    a direct edit of ``triples`` is seen only when it replaces the set or
    changes its size, so mutate through those three.
    """
    prefixes: dict = field(default_factory=lambda: dict(PREFIXES))
    triples: set = field(default_factory=set)
    _views: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def add(self, s: str, p: str, o) -> None:
        self.triples.add(Triple(s, p, o))
        if self._views:
            self._views.clear()

    def add_all(self, triples) -> None:
        """Add many ``Triple``s with one set update."""
        self.triples.update(triples)
        self._views.clear()

    def update(self, other: "KgDocument") -> None:
        self.triples |= other.triples
        self._views.clear()

    def _view(self, name: str, build):
        # The entry keeps the set it was built from, so its identity cannot
        # be reused by another set while the entry lives.
        triples = self.triples
        entry = self._views.get(name)
        if entry is None or entry[0] is not triples or entry[1] != len(triples):
            with _paused_gc():
                entry = self._views[name] = (triples, len(triples), build())
        return entry[2]

    def index(self) -> "KgIndex":
        """The document's shared KgIndex, built once per version."""
        return self._view("index", lambda: KgIndex(self))

    def sorted_triples(self) -> tuple[Triple, ...]:
        """Triples in (subject, predicate, object) order, sorted once per
        version and shared by the serializers."""
        return self._view("sorted", lambda: tuple(
            sorted(self.triples, key=Triple.sort_key)))


def _escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
           '"': '"', "'": "'", "\\": "\\"}


def _unescape(text: str, line_no: int) -> str:
    """Resolve N-Triples string escapes in one left-to-right pass."""
    if "\\" not in text:  # most literals; skips the regex callback machinery
        return text

    def one(m):
        code, char = m.group(1) or m.group(2), m.group(3)
        if char in _ECHARS:
            return _ECHARS[char]
        if code and int(code, 16) <= 0x10FFFF:
            return chr(int(code, 16))
        raise NTriplesSyntaxError(f"line {line_no}: bad escape {m.group(0)!r}")
    return _ESCAPE_RE.sub(one, text)


def _nt_term(o) -> str:
    if isinstance(o, str):
        return f"<{o}>"
    if o.datatype == XSD_STRING:
        return f'"{_escape(o.lexical)}"'
    return f'"{_escape(o.lexical)}"^^<{o.datatype}>'


def serialize_ntriples(doc: KgDocument) -> str:
    lines = [f"<{t.subject}> <{t.predicate}> {_nt_term(t.object)} ."
             for t in doc.sorted_triples()]
    return "\n".join(lines) + ("\n" if lines else "")


_LOCAL_RE = re.compile(r"^[A-Za-z0-9_.-]*$")


def _qname(iri: str, prefixes: dict) -> str:
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


def _ttl_term(o, qname) -> str:
    if isinstance(o, str):
        return qname(o)
    if o.datatype == XSD_STRING:
        return f'"{_escape(o.lexical)}"'
    return f'"{_escape(o.lexical)}"^^{qname(o.datatype)}'


def serialize_turtle(doc: KgDocument) -> str:
    qnames: dict[str, str] = {}

    def qname(iri: str) -> str:
        # _qname tries every prefix; each IRI recurs across many triples
        q = qnames.get(iri)
        if q is None:
            q = qnames[iri] = _qname(iri, doc.prefixes)
        return q

    out = []
    for prefix, ns in doc.prefixes.items():
        out.append(f"@prefix {prefix}: <{ns}> .")
    out.append("")
    for t in doc.sorted_triples():
        p = "a" if t.predicate == RDF + "type" else qname(t.predicate)
        out.append(f"{qname(t.subject)} {p} {_ttl_term(t.object, qname)} .")
    return "\n".join(out) + "\n"


_NT_LINE = re.compile(
    r'^<([^>]*)>\s+<([^>]*)>\s+'
    r'(?:<([^>]*)>|"((?:[^"\\]|\\.)*)"(?:\^\^<([^>]*)>)?)\s*\.\s*$')


def parse_ntriples(text: str) -> KgDocument:
    """Parse N-Triples text back into a KgDocument (IRIs and typed literals).

    Each distinct IRI and each distinct literal becomes one object, however
    often it recurs."""
    iris: dict[str, str] = {}
    literals: dict[tuple, Literal] = {}
    triples = []
    with _paused_gc():
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = _NT_LINE.match(line)
            if not m:
                raise NTriplesSyntaxError(f"line {line_no}: cannot parse {line!r}")
            s, p, o_iri, o_lex, o_dt = m.groups()
            if o_iri is not None:
                o = iris.setdefault(o_iri, o_iri)
            else:
                dt = iris.setdefault(o_dt, o_dt) if o_dt else XSD_STRING
                key = (_unescape(o_lex, line_no), dt)
                o = literals.get(key)
                if o is None:
                    o = literals[key] = Literal(*key)
            triples.append(Triple(iris.setdefault(s, s), iris.setdefault(p, p), o))
        return KgDocument(triples=set(triples))


def graph_stats(doc: KgDocument) -> dict:
    """Entity / property / triple counts, read from the shared index.

    Entities are distinct IRIs in subject or object position excluding
    schema-level constants (anything in an ontology namespace).  Counted
    once per document version; each call returns its own copy.
    """
    return dict(doc._view("stats", lambda: _count_graph(doc)))


def _count_graph(doc: KgDocument) -> dict:
    idx = doc.index()
    terms = set(map(attrgetter("object"), doc.triples))
    terms.update(idx.by_subject)
    entities = sum(1 for term in terms if isinstance(term, str)
                   and not term.startswith(SCHEMA_NAMESPACES))
    return {"entities": entities, "properties": len(idx.by_predicate),
            "triples": len(doc.triples)}


class KgIndex:
    """Lookup structures over a document for pattern evaluation.

    Triples are listed per subject and per predicate, as cheap to build as
    one pass over the set.  ``subjects(p, o)`` hashes object -> subjects for
    predicate ``p`` the first time ``p`` is queried with an object; every
    lookup returns its items in the order of that one pass.  Get the
    document's shared instance from ``KgDocument.index()``.
    """

    def __init__(self, doc: KgDocument):
        # The triple set, not the document: a document caches its index,
        # and a reference back would make every indexed document a cycle.
        self.triples = doc.triples
        self.by_subject: dict[str, list[Triple]] = {}
        self.by_predicate: dict[str, list[Triple]] = {}
        self._by_object: dict[str, dict[object, list[str]]] = {}
        for t in doc.triples:
            self.by_subject.setdefault(t.subject, []).append(t)
            self.by_predicate.setdefault(t.predicate, []).append(t)

    def objects(self, subject: str, predicate: str) -> list:
        return [t.object for t in self.by_subject.get(subject, ())
                if t.predicate == predicate]

    def object(self, subject: str, predicate: str):
        for t in self.by_subject.get(subject, ()):
            if t.predicate == predicate:
                return t.object
        return None

    def subjects(self, predicate: str, obj=None) -> list[str]:
        triples = self.by_predicate.get(predicate, ())
        if obj is None:
            return [t.subject for t in triples]
        table = self._by_object.get(predicate)
        if table is None:
            table = self._by_object[predicate] = {}
            for t in triples:
                table.setdefault(t.object, []).append(t.subject)
        return list(table.get(obj, ()))

    def has(self, s, p, o) -> bool:
        return (s, p, o) in self.triples
