import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vh2kg import rdf, walks
from vh2kg import schema as S
from vh2kg.errors import MalformedWalks, NoRoots
from vh2kg.rdf import (SCHEMA_NAMESPACES, KgDocument, Literal, graph_stats,
                       integer, string)
from vh2kg.walks import (DEFAULT_SKIP_PREDICATES, WalkConfig, WalkCorpus,
                         extract_walks, parse_walks, wl_labelings, wl_relabel)

P = "http://t/p/"
N = "http://t/n/"


def toy_doc():
    """10-node toy graph with branching, a cycle, and literal sinks."""
    doc = KgDocument()
    doc.add(N + "a", P + "x", N + "b")
    doc.add(N + "a", P + "x", N + "c")
    doc.add(N + "a", P + "y", N + "d")
    doc.add(N + "b", P + "x", N + "e")
    doc.add(N + "b", P + "z", string("label b"))
    doc.add(N + "c", P + "x", N + "f")
    doc.add(N + "c", P + "y", N + "a")  # cycle back
    doc.add(N + "d", P + "z", integer(7))
    doc.add(N + "e", P + "x", N + "g")
    doc.add(N + "f", P + "y", N + "h")
    doc.add(N + "g", P + "z", N + "i")
    doc.add(N + "h", P + "z", N + "j")
    return doc


def brute_force_walks(doc, root, depth):
    """Independent path enumerator over raw triples (no GraphView)."""
    adjacency = {}
    for t in doc.triples:
        obj = t.object.lexical if isinstance(t.object, Literal) else t.object
        adjacency.setdefault(t.subject, []).append(
            (t.predicate, obj, isinstance(t.object, str)))

    walks = []

    def rec(node, tokens, remaining, can_continue):
        out = adjacency.get(node, []) if can_continue else []
        if remaining == 0 or not out:
            walks.append(tuple(tokens))
            return
        for pred, obj, is_iri in sorted(out):
            rec(obj, tokens + [pred, obj], remaining - 1, is_iri)

    rec(root, [root], depth, True)
    return walks


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_exhaustive_matches_brute_force(depth):
    doc = toy_doc()
    cfg = WalkConfig(depth=depth, wl_iterations=0, exhaustive=True,
                     roots=(N + "a",), skip_predicates=frozenset())
    corpus = extract_walks(doc, cfg)
    ours = Counter(tuple(seq) for seq in corpus.sequences)
    oracle = Counter(brute_force_walks(doc, N + "a", depth))
    assert ours == oracle


def test_walk_token_shape():
    doc = toy_doc()
    cfg = WalkConfig(depth=3, wl_iterations=0, exhaustive=True,
                     roots=(N + "a",), skip_predicates=frozenset())
    for seq in extract_walks(doc, cfg).sequences:
        assert len(seq) % 2 == 1
        assert len(seq) <= 2 * 3 + 1
        assert seq[0] == N + "a"


def test_skip_predicates_never_appear():
    doc = toy_doc()
    cfg = WalkConfig(depth=3, wl_iterations=0, exhaustive=True,
                     roots=(N + "a",), skip_predicates=frozenset({P + "y"}))
    for seq in extract_walks(doc, cfg).sequences:
        assert P + "y" not in seq


def test_default_skip_predicates_on_corpus(base_doc):
    cfg = WalkConfig(depth=3, walks_per_entity=5, wl_iterations=0, seed=1)
    for seq in extract_walks(base_doc, cfg).sequences:
        assert not set(seq) & DEFAULT_SKIP_PREDICATES


def test_literals_are_sinks():
    doc = KgDocument()
    doc.add(N + "a", P + "x", string("stop"))
    # a literal lexically equal to a node IRI must still act as a sink
    doc.add(N + "a", P + "y", string(N + "a"))
    cfg = WalkConfig(depth=4, wl_iterations=0, exhaustive=True,
                     roots=(N + "a",), skip_predicates=frozenset())
    walks = {tuple(s) for s in extract_walks(doc, cfg).sequences}
    assert walks == {(N + "a", P + "x", "stop"), (N + "a", P + "y", N + "a")}


def test_deterministic_under_seed(base_doc):
    cfg = WalkConfig(depth=4, walks_per_entity=10, wl_iterations=0, seed=42)
    a = extract_walks(base_doc, cfg).sequences
    b = extract_walks(base_doc, cfg).sequences
    assert a == b
    c = extract_walks(base_doc, WalkConfig(depth=4, walks_per_entity=10,
                                           wl_iterations=0, seed=43)).sequences
    assert a != c


def test_no_roots_raises():
    with pytest.raises(NoRoots):
        extract_walks(toy_doc(), WalkConfig(depth=2))


def test_wl_iteration_zero_is_identity():
    doc = toy_doc()
    maps = wl_labelings(doc, 2)
    assert all(k == v for k, v in maps[0].items())
    assert len(maps) == 3


def test_wl_distinguishes_structure():
    doc = toy_doc()
    maps = wl_labelings(doc, 2)
    # e and f have one outgoing edge each but different predicates/continuations
    assert maps[1][N + "e"] != maps[1][N + "f"]
    # labels seed from the vertex IRIs, so even twin sinks stay distinct
    assert maps[1][N + "i"] != maps[1][N + "j"]
    # deterministic: rebuilding the maps reproduces them exactly
    assert wl_labelings(toy_doc(), 2) == maps


def test_wl_relabel_union_size():
    doc = toy_doc()
    base = extract_walks(doc, WalkConfig(depth=2, wl_iterations=0,
                                         exhaustive=True, roots=(N + "a",),
                                         skip_predicates=frozenset()))
    union = wl_relabel(doc, WalkConfig(depth=2, wl_iterations=2,
                                       exhaustive=True, roots=(N + "a",),
                                       skip_predicates=frozenset()))
    assert len(union.sequences) == 3 * len(base.sequences)
    # iteration 0 walks appear verbatim in the union
    raw = {tuple(s) for s in base.sequences}
    assert raw <= {tuple(s) for s in union.sequences}
    # predicates are never relabeled
    for seq in union.sequences:
        for i, tok in enumerate(seq):
            if i % 2 == 1:
                assert tok.startswith(P)


# --- oracles for the index-backed views ---

class EagerGraphView:
    """The GraphView that built and sorted every subject's adjacency up
    front; kept as the oracle of the lazy one."""

    def __init__(self, doc, skip_predicates=frozenset()):
        adj = {}
        for t in doc.triples:
            if t.predicate in skip_predicates:
                continue
            obj = t.object.lexical if isinstance(t.object, Literal) else t.object
            adj.setdefault(t.subject, []).append(
                (t.predicate, obj, isinstance(t.object, str)))
        self.adj = {k: sorted(v) for k, v in adj.items()}

    def out(self, node):
        return self.adj.get(node, [])


def eager_wl_labelings(doc, iterations, skip_predicates=frozenset()):
    view = EagerGraphView(doc, skip_predicates)
    vertices = set(view.adj)
    for out in view.adj.values():
        vertices.update(obj for _, obj, is_iri in out if is_iri)
    maps = [{v: v for v in sorted(vertices)}]
    for _ in range(iterations):
        prev, nxt = maps[-1], {}
        for v in prev:
            neighborhood = sorted((pred, prev.get(obj, obj))
                                  for pred, obj, is_iri in view.out(v))
            digest = hashlib.md5(repr((prev[v], neighborhood)).encode()).hexdigest()
            nxt[v] = "wl-" + digest[:16]
        maps.append(nxt)
    return maps


def scan_graph_stats(doc):
    """graph_stats as one pass over every triple; the oracle of the
    index-backed version."""
    entities, predicates = set(), set()
    for t in doc.triples:
        predicates.add(t.predicate)
        for term in (t.subject, t.object):
            if isinstance(term, str) and not term.startswith(SCHEMA_NAMESPACES):
                entities.add(term)
    return {"entities": len(entities), "properties": len(predicates),
            "triples": len(doc.triples)}


_NODES = [N + c for c in "abcde"]
_SKIPPED = P + "skip"
_PREDS = [P + "x", P + "y", _SKIPPED]
# Objects include schema-namespace IRIs and literals whose lexical form
# equals a node IRI, so a view must tell an IRI from a literal.
_OBJS = _NODES + [S.ACTIVITY, S.RDF_NIL, string(_NODES[0]),
                  Literal(_NODES[1], rdf.XSD_INT), integer(1), string("1")]
_rows = st.lists(st.tuples(st.sampled_from(_NODES), st.sampled_from(_PREDS),
                           st.sampled_from(_OBJS)), max_size=40)


@settings(max_examples=150, deadline=None)
@given(_rows, st.sampled_from(_NODES))
def test_lazy_view_matches_eager_oracle(rows, root):
    doc = KgDocument()
    # "e" has edges, all skipped; it must be no WL vertex unless an object
    doc.add(N + "e", _SKIPPED, N + "a")
    for row in rows:
        doc.add(*row)
    skip = frozenset({_SKIPPED})
    view, oracle = walks.GraphView(doc, skip), EagerGraphView(doc, skip)
    for node in _NODES + [S.ACTIVITY, "unknown"]:
        assert view.out(node) == oracle.out(node)
    assert wl_labelings(doc, 2, skip) == eager_wl_labelings(doc, 2, skip)
    assert graph_stats(doc) == scan_graph_stats(doc)

    configs = [WalkConfig(depth=3, wl_iterations=0, exhaustive=True,
                          roots=(root,), skip_predicates=skip),
               WalkConfig(depth=4, walks_per_entity=5, wl_iterations=0,
                          roots=tuple(_NODES), skip_predicates=skip, seed=3)]
    lazy = [extract_walks(doc, cfg).sequences for cfg in configs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "GraphView", EagerGraphView)
        eager = [extract_walks(doc, cfg).sequences for cfg in configs]
    assert lazy == eager


def test_corpus_walks_and_stats_match_oracles(base_doc, monkeypatch):
    cfg = WalkConfig(depth=4, walks_per_entity=3, wl_iterations=0, seed=5)
    lazy = extract_walks(base_doc, cfg).sequences
    assert graph_stats(base_doc) == scan_graph_stats(base_doc)
    monkeypatch.setattr(walks, "GraphView", EagerGraphView)
    assert extract_walks(base_doc, cfg).sequences == lazy


def test_walk_builds_only_visited_adjacency(monkeypatch):
    views = []

    class Recorded(walks.GraphView):
        def __init__(self, *args):
            super().__init__(*args)
            views.append(self)

    monkeypatch.setattr(walks, "GraphView", Recorded)
    doc = toy_doc()
    extract_walks(doc, WalkConfig(depth=1, walks_per_entity=10, wl_iterations=0,
                                  roots=(N + "a",)))
    assert list(views[0].adj) == [N + "a"]
    exhaustive = extract_walks(doc, WalkConfig(
        depth=2, wl_iterations=0, exhaustive=True, roots=(N + "a",)))
    visited = {seq[i] for seq in exhaustive.sequences
               for i in range(0, len(seq) - 1, 2)}
    assert set(views[1].adj) == visited == {N + "a", N + "b", N + "c", N + "d"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.text(st.characters(blacklist_categories=("Cs",))
                                 | st.sampled_from(" \\\t\n\r\u2028tnr")),
                         min_size=1, max_size=5),
                max_size=5))
def test_walks_text_round_trips(sequences):
    text = WalkCorpus(sequences).as_lines()
    assert text.count("\n") == len(sequences)
    assert parse_walks(text).sequences == sequences


def test_corpus_walks_read_back(base_doc):
    # literal tokens hold spaces, so each walk must come back whole
    corpus = wl_relabel(base_doc, WalkConfig(depth=4, walks_per_entity=25,
                                             wl_iterations=0, seed=7))
    assert any(" " in tok for seq in corpus.sequences for tok in seq)
    assert parse_walks(corpus.as_lines()).sequences == corpus.sequences


@pytest.mark.parametrize("text", ["a\\q\tb\n", "a\tb\\\n"])
def test_parse_walks_rejects_bad_escapes(text):
    with pytest.raises(MalformedWalks):
        parse_walks(text)
