"""Random graph walks with optional Weisfeiler-Lehman relabeling.

Walks start at activity entities and alternate vertex and predicate tokens;
literals are tokenized by lexical form and act as sinks.  With WL enabled,
the final corpus is the union of the walk sets under every relabeling
iteration (iteration 0 keeps the original labels).
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from dataclasses import dataclass, field

from . import schema as S
from .errors import BadConfig, MalformedWalks, NoRoots
from .rdf import KgDocument, Literal

DEFAULT_SKIP_PREDICATES = frozenset({
    S.AGENT, S.HAS_ACTIVITY, S.VIRTUAL_HOME, S.PART_OF, S.PREVIOUS_EVENT,
})


@dataclass(frozen=True)
class WalkConfig:
    depth: int = 4
    walks_per_entity: int = 25
    wl_iterations: int = 0
    skip_predicates: frozenset = DEFAULT_SKIP_PREDICATES
    roots: tuple | None = None   # default: activity instances
    seed: int = 0
    exhaustive: bool = False     # enumerate all walks (small depths only)

    def __post_init__(self):
        if self.depth < 1:
            raise BadConfig("depth must be >= 1")
        if self.walks_per_entity < 1:
            raise BadConfig("walks_per_entity must be >= 1")
        if self.wl_iterations < 0:
            raise BadConfig("wl_iterations must be >= 0")
        if self.roots is not None and not self.roots:
            raise BadConfig("roots must not be empty")


# Walk tokens include literal lexical forms, so a token may hold the
# separators of walks.txt and vectors.tsv; both write them as backslash
# escapes.
_TSV_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_TSV_ESCAPE = str.maketrans(_TSV_ESCAPES)
_TSV_UNESCAPES = {esc[1]: char for char, esc in _TSV_ESCAPES.items()}
_TSV_ESCAPE_RE = re.compile(r"\\(.?)", re.S)
_TSV_SPECIALS = re.compile(r"[\\\t\n\r]")


def _escape_token(token: str) -> str:
    """``token`` with its tabs, line breaks and backslashes escaped
    (``str.translate`` with this table is slow, so only where needed)."""
    return token.translate(_TSV_ESCAPE) if _TSV_SPECIALS.search(token) else token


def _unescape_token(token: str, line_no: int, error: type) -> str:
    """Inverse of ``_escape_token``; raises ``error`` on an unknown escape
    or a backslash at the end of the token."""
    def one(m):
        try:
            return _TSV_UNESCAPES[m.group(1)]
        except KeyError:
            raise error(f"line {line_no}: bad escape {m.group(0)!r}") from None
    return _TSV_ESCAPE_RE.sub(one, token) if "\\" in token else token


@dataclass
class WalkCorpus:
    sequences: list = field(default_factory=list)

    def as_lines(self) -> str:
        """One walk per line: its escaped tokens, tab-separated.  A walk
        holds at least one token; ``parse_walks`` reads the text back."""
        escaped = {tok: _escape_token(tok)
                   for tok in set(itertools.chain.from_iterable(self.sequences))}
        return "".join("\t".join(map(escaped.__getitem__, seq)) + "\n"
                       for seq in self.sequences)


def parse_walks(text: str) -> WalkCorpus:
    """Inverse of ``WalkCorpus.as_lines``; raises MalformedWalks on a bad
    escape."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return WalkCorpus([[_unescape_token(tok, line_no, MalformedWalks)
                        for tok in line.split("\t")]
                       for line_no, line in enumerate(lines, 1)])


def _token(term) -> str:
    return term.lexical if isinstance(term, Literal) else term


class GraphView:
    """Outgoing-edge adjacency over a document's shared index, with skip
    predicates removed.  A node's sorted adjacency is built the first time
    ``out`` asks for it, so a walk pays only for the nodes it steps on."""

    def __init__(self, doc: KgDocument, skip_predicates=frozenset()):
        self.by_subject = doc.index().by_subject
        self.skip_predicates = skip_predicates
        self.adj: dict[str, list] = {}

    def out(self, node: str) -> list:
        edges = self.adj.get(node)
        if edges is None:
            skip = self.skip_predicates
            # sorted adjacency keeps sampling deterministic under a seed
            edges = self.adj[node] = sorted(
                (t.predicate, _token(t.object), isinstance(t.object, str))
                for t in self.by_subject.get(node, ())
                if t.predicate not in skip)
        return edges


def activity_roots(doc: KgDocument) -> list[str]:
    return sorted(set(doc.index().subjects(S.HAS_EVENT)))


def root_rows(doc: KgDocument, tokens) -> tuple[list[str], list[int]]:
    """The activity roots of ``doc`` that ``tokens`` holds, in
    ``activity_roots`` order, and the position of each in ``tokens``.

    The pipeline and ``cluster --roots`` both cluster these rows, and
    k-means++ seeds by row, so they must come in one order whatever order
    ``tokens`` (a vocabulary sorted by count) has."""
    position = {t: i for i, t in enumerate(tokens)}
    roots = [r for r in activity_roots(doc) if r in position]
    return roots, [position[r] for r in roots]


def _root_rng(seed: int, root: str) -> random.Random:
    digest = hashlib.md5(f"{seed}:{root}".encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


def _random_walk(view: GraphView, root: str, depth: int, rng: random.Random) -> list[str]:
    tokens = [root]
    node = root
    traversable = True
    for _ in range(depth):
        if not traversable:
            break
        out = view.out(node)
        if not out:
            break
        pred, obj, is_iri = rng.choice(out)
        tokens.extend((pred, obj))
        node = obj
        traversable = is_iri
    return tokens


def _all_walks(view: GraphView, root: str, depth: int) -> list[list[str]]:
    results = []

    def rec(node, tokens, remaining, traversable):
        out = view.out(node) if traversable and remaining else []
        if not out:
            results.append(tokens)
            return
        for pred, obj, is_iri in out:
            rec(obj, tokens + [pred, obj], remaining - 1, is_iri)

    rec(root, [root], depth, True)
    return results


def extract_walks(doc: KgDocument, cfg: WalkConfig = WalkConfig()) -> WalkCorpus:
    """Sample (or exhaustively enumerate) walks from every root entity."""
    roots = list(cfg.roots) if cfg.roots is not None else activity_roots(doc)
    if not roots:
        raise NoRoots("no walk roots found in the document")
    view = GraphView(doc, cfg.skip_predicates)
    corpus = WalkCorpus()
    for root in sorted(roots):
        if cfg.exhaustive:
            corpus.sequences.extend(_all_walks(view, root, cfg.depth))
        else:
            rng = _root_rng(cfg.seed, root)
            for _ in range(cfg.walks_per_entity):
                corpus.sequences.append(_random_walk(view, root, cfg.depth, rng))
    return corpus


# --- Weisfeiler-Lehman relabeling ---

def wl_labelings(doc: KgDocument, iterations: int,
                 skip_predicates=frozenset()) -> list[dict]:
    """Per-iteration vertex label maps; iteration 0 is the identity."""
    view = GraphView(doc, skip_predicates)
    vertices = set()
    for subject in view.by_subject:  # every subject, unlike a walk
        out = view.out(subject)
        if out:
            vertices.add(subject)
            vertices.update(obj for _, obj, is_iri in out if is_iri)
    labels = {v: v for v in sorted(vertices)}
    maps = [labels]
    for _ in range(iterations):
        prev = maps[-1]
        nxt = {}
        for v in prev:
            neighborhood = sorted((pred, prev.get(obj, obj))
                                  for pred, obj, is_iri in view.out(v))
            digest = hashlib.md5(repr((prev[v], neighborhood)).encode()).hexdigest()
            nxt[v] = "wl-" + digest[:16]
        maps.append(nxt)
    return maps


def wl_relabel(doc: KgDocument, cfg: WalkConfig = WalkConfig()) -> WalkCorpus:
    """Union of the walk corpus under labelings 0..wl_iterations.

    Walk structure (the visited nodes and predicates) is extracted once, so
    each iteration contributes the same paths under progressively refined
    vertex labels.
    """
    base = extract_walks(doc, cfg)
    if cfg.wl_iterations == 0:
        return base
    maps = wl_labelings(doc, cfg.wl_iterations, cfg.skip_predicates)
    corpus = WalkCorpus()
    for labels in maps:
        for seq in base.sequences:
            corpus.sequences.append(
                [labels.get(tok, tok) if i % 2 == 0 else tok
                 for i, tok in enumerate(seq)])
    return corpus

