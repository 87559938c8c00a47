"""Minimal RDF model with deterministic N-Triples / Turtle serialization.

Documents are insertion-ordered triple sets, so every whole-graph pass
visits triples in the order they were made, whatever the hash seed.  A
corpus is its activity documents merged with ``update``; a triple that
several of them hold is kept once, as the first one's object.
Serialization sorts triples by subject, predicate, object so identical
documents always produce byte-identical output; the sort and the writers
do their Python-level work per subject, not per triple.  Each writer is a
line formatter over a sorted triple sequence plus its framing, so the
lines of one sorted document also give, by position, the text of any
part of it.
"""

from __future__ import annotations

import gc
import math
import re
from bisect import bisect
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, islice
from operator import attrgetter
from typing import NamedTuple

from .errors import InvalidTrace, NTriplesSyntaxError

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


def _fixed_point(value: float) -> Literal:
    # Fixed-point lexical form on one grid of 9 places keeps serialization
    # byte-stable; the trace rules read numbers back from it.  xsd:decimal
    # has no form for nan or infinity; a finite input can still overflow
    # on the way here (a putBack lands on top of its target).
    if not math.isfinite(value):
        raise InvalidTrace(f"{value!r} has no xsd:decimal form")
    lex = f"{value:.9f}".rstrip("0")
    if lex.endswith("."):
        lex += "0"
    return Literal(lex, XSD_DECIMAL)


_cached_fixed_point = lru_cache(maxsize=1 << 14)(_fixed_point)


def decimal(value: float) -> Literal:
    # One object per repeated value.  0.0 and -0.0 are one cache key but
    # print "0.0" and "-0.0", so zero bypasses the cache.
    if value:
        return _cached_fixed_point(value)
    return _fixed_point(value)


def string(value: str) -> Literal:
    return Literal(value, XSD_STRING)


@dataclass
class KgDocument:
    """An insertion-ordered triple set; the serializers abbreviate with
    ``PREFIXES``.

    ``triples`` maps each ``Triple`` to ``None``, in the order added; the
    constructor also takes any iterable of triples.

    ``index()``, ``sorted_triples()`` and ``graph_stats(doc)`` are views
    cached on the document.  ``add`` and ``update`` drop them; a direct
    edit of ``triples`` is seen only when it replaces the dict or changes
    its size, so mutate through those two.
    """
    triples: dict = field(default_factory=dict)
    _views: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if not isinstance(self.triples, dict):
            self.triples = dict.fromkeys(self.triples)

    def add(self, s: str, p: str, o) -> None:
        self.triples[Triple(s, p, o)] = None
        if self._views:
            self._views.clear()

    def update(self, other: "KgDocument") -> None:
        self.triples |= other.triples
        self._views.clear()

    def _view(self, name: str, build):
        # The entry keeps the dict it was built from, so its identity cannot
        # be reused by another dict while the entry lives.
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
        """Triples in ``Triple.sort_key`` order, sorted once per version and
        shared by the serializers."""
        return self._view("sorted", lambda: _canonical_order(self.triples))


def _insertions(doc: KgDocument, extra: KgDocument) -> list[tuple[int, Triple]]:
    """``(position, triple)`` for each triple of ``extra`` that ``doc``
    lacks, ascending: inserted in turn into ``doc.sorted_triples()``, they
    give the union's sorted order."""
    order = doc.sorted_triples()
    new = sorted((t for t in extra.triples if t not in doc.triples),
                 key=Triple.sort_key)
    return [(bisect(order, t.sort_key(), key=Triple.sort_key) + rank, t)
            for rank, t in enumerate(new)]


def sorted_positions(doc: KgDocument, parts) -> list[list[int]]:
    """For each part, an iterable of distinct triples of ``doc``, the
    positions of its triples in ``doc.sorted_triples()``, ascending.

    A part's sorted order is the whole's restricted to the part, so the
    part's lines are the whole's lines at these positions: no part is
    sorted or formatted on its own.
    """
    order = doc.sorted_triples()
    position = dict(zip(order, range(len(order))))
    return [sorted(map(position.__getitem__, part)) for part in parts]


def _canonical_order(triples) -> tuple:
    """``sorted(triples, key=Triple.sort_key)`` as a tuple, sorted per subject.

    One dict pass groups the triples by subject; the distinct subjects sort
    as plain strings, and each group of two or more in natural tuple order.
    Within one subject that is ``sort_key`` order, except that an IRI and a
    literal under one predicate do not compare: such a group raises
    TypeError and is re-sorted by ``sort_key``.  Triples are read by
    attribute, so any object with the three fields sorts.
    """
    groups: dict[str, list] = {}
    for t in triples:
        group = groups.get(t.subject)
        if group is None:
            groups[t.subject] = [t]
        else:
            group.append(t)
    ordered = []
    for subject in sorted(groups):
        group = groups[subject]
        if len(group) > 1:
            try:
                group.sort()
            except TypeError:
                group.sort(key=Triple.sort_key)
        ordered += group
    return tuple(ordered)


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


def _nt_literal(o: Literal) -> str:
    if o.datatype == XSD_STRING:
        return f'"{_escape(o.lexical)}"'
    return f'"{_escape(o.lexical)}"^^<{o.datatype}>'


def ntriples_lines(triples) -> list[str]:
    """One N-Triples line per triple, for ``triples`` in sorted order."""
    lines = []
    subject = None
    for t in triples:
        if t.subject is not subject:  # a subject's text is made once per run
            subject = t.subject
            head = f"<{subject}> <"
        o = t.object
        if isinstance(o, str):
            lines.append(f"{head}{t.predicate}> <{o}> .")
        else:
            lines.append(f"{head}{t.predicate}> {_nt_literal(o)} .")
    return lines


def augmented_lines(doc: KgDocument, lines: list, extra: KgDocument) -> list[str]:
    """The N-Triples lines of ``doc``'s triples plus ``extra``'s, given
    ``doc``'s sorted ``lines``: only the triples that ``extra`` adds are
    formatted, and nothing is sorted again."""
    places = _insertions(doc, extra)
    lines = list(lines)
    for (at, _), line in zip(places, ntriples_lines([t for _, t in places])):
        lines.insert(at, line)
    return lines


def _text(lines: list, header=()) -> str:
    """The text of an RDF file: each line of ``header``, then of ``lines``,
    followed by a line break.  ``lines`` is extended in place, so no copy
    of it is made."""
    lines[:0] = header
    lines.append("")
    return "\n".join(lines)


#: Lines per write in ``write_lines``.
_CHUNK = 4096


def write_lines(path, lines, header=()) -> None:
    """Write ``_text(lines, header)`` to ``path`` as UTF-8, ``_CHUNK`` lines
    at a time, so neither the whole text nor its bytes is ever held."""
    lines = chain(header, lines)
    with open(path, "w", encoding="utf-8") as f:
        while chunk := list(islice(lines, _CHUNK)):
            chunk.append("")
            f.write("\n".join(chunk))


def serialize_ntriples(doc: KgDocument) -> str:
    return _text(ntriples_lines(doc.sorted_triples()))


#: A Turtle local name: empty, or no leading "." or "-" and no trailing ".".
_LOCAL_PART = r"(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?\Z"


def _qnamer(prefixes: dict):
    """``qname(iri)`` for one prefix table, memoized per IRI.

    One regex holds the namespaces, longest first, as an ordered
    alternation followed by the local part, so a match picks the longest
    namespace whose remainder is a valid local name; an IRI with none is
    written ``<iri>``.  Of two prefixes for one namespace, the first wins.
    """
    by_ns: dict[str, str] = {}
    for prefix, ns in prefixes.items():
        by_ns.setdefault(ns, prefix)
    namespaces = sorted(by_ns, key=len, reverse=True)
    match = re.compile(
        f"({'|'.join(map(re.escape, namespaces))}){_LOCAL_PART}").match
    qnames: dict[str, str] = {}

    def qname(iri: str) -> str:
        q = qnames.get(iri)
        if q is None:
            m = match(iri) if by_ns else None
            q = qnames[iri] = (f"{by_ns[m[1]]}:{iri[m.end(1):]}" if m
                               else f"<{iri}>")
        return q
    return qname


def turtle_header() -> list[str]:
    """The lines that open a Turtle text: one ``@prefix`` per entry of
    ``PREFIXES``, then a blank line."""
    return [f"@prefix {prefix}: <{ns}> ." for prefix, ns in PREFIXES.items()] + [""]


def turtle_lines(triples) -> list[str]:
    """One Turtle line per triple, for ``triples`` in sorted order, with
    IRIs abbreviated by one qname table built from ``PREFIXES``."""
    qname = _qnamer(PREFIXES)
    predicates = {RDF + "type": "a"}
    lines = []
    subject = None
    for t in triples:
        if t.subject is not subject:  # a subject's text is made once per run
            subject = t.subject
            head = qname(subject)
        p = predicates.get(t.predicate)
        if p is None:
            p = predicates[t.predicate] = qname(t.predicate)
        o = t.object
        if isinstance(o, str):
            o = qname(o)
        elif o.datatype == XSD_STRING:
            o = f'"{_escape(o.lexical)}"'
        else:
            o = f'"{_escape(o.lexical)}"^^{qname(o.datatype)}'
        lines.append(f"{head} {p} {o} .")
    return lines


def serialize_turtle(doc: KgDocument) -> str:
    return _text(turtle_lines(doc.sorted_triples()), turtle_header())


_LINES = re.compile(r".*\n?")  # a line and its break; the last match is empty
_NT_LINE = re.compile(
    r'^<([^>]*)>\s+<([^>]*)>\s+'
    r'(?:<([^>]*)>|"((?:[^"\\]|\\.)*)"(?:\^\^<([^>]*)>)?)\s*\.\s*$')


#: ``Triple`` from a 3-tuple, built in C without NamedTuple's ``__new__``.
_as_triple = partial(tuple.__new__, Triple)


def parse_ntriples(text: str) -> KgDocument:
    """Parse N-Triples text back into a KgDocument (IRIs and typed literals).

    Each distinct IRI and each distinct literal becomes one object, however
    often it recurs."""
    iris: dict[str, str] = {}
    literals: dict[tuple, Literal] = {}
    triples = []
    with _paused_gc():
        for line_no, line in enumerate(_LINES.finditer(text), start=1):
            line = line[0].strip()
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
            triples.append(_as_triple(
                (iris.setdefault(s, s), iris.setdefault(p, p), o)))
        return KgDocument(triples=dict.fromkeys(triples))


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
    one pass over the document.  ``subjects(p, o)`` hashes object ->
    subjects for predicate ``p`` the first time ``p`` is queried with an
    object; every lookup returns its items in the document's insertion
    order.  Get the document's shared instance from ``KgDocument.index()``.
    """

    def __init__(self, doc: KgDocument):
        # The triples, not the document: a document caches its index,
        # and a reference back would make every indexed document a cycle.
        self.triples = doc.triples
        by_subject: dict[str, list[Triple]] = {}
        by_predicate: dict[str, list[Triple]] = {}
        # A list only for a new key, as setdefault(key, []) makes one per
        # triple.  Start it empty: [t] then append over-allocates.
        for t in doc.triples:
            s, p, _ = t
            listed = by_subject.get(s)
            if listed is None:
                listed = by_subject[s] = []
            listed.append(t)
            listed = by_predicate.get(p)
            if listed is None:
                listed = by_predicate[p] = []
            listed.append(t)
        self.by_subject, self.by_predicate = by_subject, by_predicate
        self._by_object: dict[str, dict[object, list[str]]] = {}

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
