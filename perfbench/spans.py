"""Outside-in tracing: wrap the package's public functions where its modules
look them up at call time, record one span per call, and turn the spans of
a pass into per-layer metrics.

A span has a name, start, end and parent; the layer is the part of the name
before the first dot.  Counts are taken in the wrapper, at the same boundary
as the span.  Nothing inside ``src/`` is changed: the wrappers replace module
attributes while a traced pass runs and are removed afterwards.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from time import process_time


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    wrapper_s: float = 0.0   # time in the wrapper, bookkeeping included
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _skipgram_pairs(corpus, window):
    """(center, context) pairs one epoch of skip-gram visits."""
    pairs = 0
    for seq in corpus.sequences:
        n = len(seq)
        pairs += sum(min(t, window) + min(n - 1 - t, window) for t in range(n))
    return pairs


def targets(vh):
    """(module, attribute, span name, counter) for every wrapped function.

    A counter maps (args, kwargs, result, exception) to the span's counts.
    The pipeline's stage functions are wrapped where ``vh2kg.pipeline``
    binds them; the rest where the other modules and the benchmark's own
    passes look them up.
    """
    has_event = vh.schema.HAS_EVENT

    def script_counts(args, kwargs, trace, exc):
        if isinstance(exc, vh.errors.Unexecutable):
            return {"unexecutable": 1}
        if exc is not None:
            return {}
        return {"steps": len(trace.transitions),
                "repaired_walks": sum(st.inserted for st in trace.script.steps)}

    def synth_counts(args, kwargs, doc, exc):
        return {"triples": len(doc.triples)} if exc is None else {}

    def bytes_counts(args, kwargs, text, exc):
        return {"bytes": len(text.encode("utf-8"))} if exc is None else {}

    def parse_counts(args, kwargs, doc, exc):
        return {"triples": len(doc.triples)} if exc is None else {}

    def risk_counts(args, kwargs, result, exc):
        if exc is not None:
            return {}
        doc = _arg(args, kwargs, 0, "doc")
        return {"events": sum(1 for t in doc.triples if t.predicate == has_event),
                "findings": len(result[0])}

    def walk_counts(args, kwargs, corpus, exc):
        if exc is not None:
            return {}
        return {"sequences": len(corpus.sequences),
                "tokens": sum(len(seq) for seq in corpus.sequences)}

    def skipgram_counts(args, kwargs, result, exc):
        if exc is not None:
            return {}
        model, losses = result
        cfg = _arg(args, kwargs, 1, "cfg")
        corpus = _arg(args, kwargs, 0, "corpus")
        return {"pairs": _skipgram_pairs(corpus, cfg.window) * cfg.epochs,
                "vocab": len(model.vocab), "final_loss": losses[-1]}

    def kmeans_counts(args, kwargs, result, exc):
        return {"points": len(_arg(args, kwargs, 0, "points"))} if exc is None else {}

    p, sim, rdf, risk = vh.pipeline, vh.simulate, vh.rdf, vh.risk
    return [
        (p, "run_pipeline", "pipeline", None),
        (p, "run_script", "simulate", script_counts),
        (p, "build_activity_kg", "synth", synth_counts),
        (p, "serialize_ntriples", "rdf.serialize_nt", bytes_counts),
        (p, "serialize_turtle", "rdf.serialize_ttl", bytes_counts),
        (p, "analysis_report", "analytics", None),
        (p, "evaluate_findings", "analytics.evaluate", None),
        (p, "wl_relabel", "walks", walk_counts),
        (p, "train_skipgram", "skipgram", skipgram_counts),
        (p, "kmeans", "cluster", kmeans_counts),
        (sim, "run_script", "simulate", script_counts),
        (sim, "execute_step", "simulate.step", None),
        (sim, "recompute_relations", "simulate.recompute", None),
        (vh.synth, "build_activity_kg", "synth", synth_counts),
        (rdf, "serialize_ntriples", "rdf.serialize_nt", bytes_counts),
        (rdf, "serialize_turtle", "rdf.serialize_ttl", bytes_counts),
        (rdf, "parse_ntriples", "rdf.parse_nt", parse_counts),
        (risk, "KgIndex", "rdf.index", None),
        (vh.analytics, "KgIndex", "rdf.index", None),
        (risk, "detect_risks", "risk.kg", risk_counts),
        (risk, "eval_rules_trace", "risk.trace", None),
        (risk, "explain", "risk.explain", None),
        (vh.walks, "wl_relabel", "walks", walk_counts),
        (vh.skipgram, "train_skipgram", "skipgram", skipgram_counts),
        (vh.cluster, "kmeans", "cluster", kmeans_counts),
    ]


class Tracer:
    """Keeps the spans of traced passes in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = process_time()
            span = Span(len(spans), name, stack[-1].id if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                span.start = process_time()
                result = fn(*args, **kwargs)
            except Exception as error:
                span.end = process_time()
                span.error = type(error).__name__
                if counter is not None:
                    span.counts = counter(args, kwargs, None, error)
                raise
            else:
                span.end = process_time()
                if counter is not None:
                    span.counts = counter(args, kwargs, result, None)
                return result
            finally:
                stack.pop()
                span.wrapper_s = process_time() - enter

        return traced

    def install(self, vh):
        for module, attr, name, counter in targets(vh):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def traced_pass(self, vh, run):
        """Run `run()` with the wrappers installed; returns its result and
        the spans it recorded."""
        first = len(self.spans)
        self.install(vh)
        try:
            result = run()
        finally:
            self.remove()
        return result, self.spans[first:]

    def dump(self):
        return [asdict(s) for s in self.spans]


#: Per-layer metrics and their units, in the order they are printed.
LAYER_UNITS = {
    "simulate.s": "s", "simulate.steps": "count", "simulate.step_calls": "count",
    "simulate.useful_step_ratio": "ratio", "simulate.recompute.s": "s",
    "simulate.recompute.calls": "count", "simulate.repaired_walks": "count",
    "simulate.unexecutable": "count",
    "synth.s": "s", "synth.triples": "count", "synth.triples_per_s": "1/s",
    "rdf.serialize_nt.s": "s", "rdf.serialize_nt.bytes": "bytes",
    "rdf.serialize_ttl.s": "s", "rdf.serialize_ttl.bytes": "bytes",
    "rdf.parse_nt.s": "s", "rdf.parse_nt.triples": "count",
    "rdf.parse_nt.triples_per_s": "1/s", "rdf.index.builds": "count",
    "rdf.index.s": "s",
    "risk.kg.s": "s", "risk.kg.events": "count", "risk.findings": "count",
    "risk.trace.s": "s", "risk.explain.s": "s", "risk.explain.calls": "count",
    "analytics.s": "s", "analytics.evaluate.s": "s",
    "walks.s": "s", "walks.sequences": "count", "walks.tokens": "count",
    "skipgram.s": "s", "skipgram.pairs": "count", "skipgram.pairs_per_s": "1/s",
    "skipgram.vocab": "count", "skipgram.final_loss": "nats",
    "cluster.s": "s", "cluster.points": "count",
    "pipeline.self_s": "s", "trace.spans": "count", "trace.overhead_s": "s",
}


#: Counts that describe a call's result rather than add up over calls.
LAST_VALUE = frozenset({"skipgram.vocab", "skipgram.final_loss"})


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass.

    ``<layer>.s`` is the self time of every span of that layer; a dotted
    name such as ``risk.kg.s`` is the self time of the spans of exactly that
    name.  Self time is a span's duration minus the wrapper time of its
    children, so tracing bookkeeping is charged to ``trace.overhead_s``.
    """
    children_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children_s[s.parent] = children_s.get(s.parent, 0.0) + s.wrapper_s
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s in spans:
        t = s.duration - children_s.get(s.id, 0.0)
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        layer = s.name.split(".")[0]
        if layer != s.name:
            self_s[layer] = self_s.get(layer, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            key = f"{s.name}.{key}"
            counts[key] = value if key in LAST_VALUE else counts.get(key, 0) + value

    def per_s(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    m = {
        "simulate.s": self_s.get("simulate", 0.0),
        "simulate.steps": counts.get("simulate.steps", 0),
        "simulate.step_calls": calls.get("simulate.step", 0),
        "simulate.recompute.s": self_s.get("simulate.recompute", 0.0),
        "simulate.recompute.calls": calls.get("simulate.recompute", 0),
        "simulate.repaired_walks": counts.get("simulate.repaired_walks", 0),
        "simulate.unexecutable": counts.get("simulate.unexecutable", 0),
        "synth.s": self_s.get("synth", 0.0),
        "synth.triples": counts.get("synth.triples", 0),
        "rdf.serialize_nt.s": self_s.get("rdf.serialize_nt", 0.0),
        "rdf.serialize_nt.bytes": counts.get("rdf.serialize_nt.bytes", 0),
        "rdf.serialize_ttl.s": self_s.get("rdf.serialize_ttl", 0.0),
        "rdf.serialize_ttl.bytes": counts.get("rdf.serialize_ttl.bytes", 0),
        "rdf.parse_nt.s": self_s.get("rdf.parse_nt", 0.0),
        "rdf.parse_nt.triples": counts.get("rdf.parse_nt.triples", 0),
        "rdf.index.builds": calls.get("rdf.index", 0),
        "rdf.index.s": self_s.get("rdf.index", 0.0),
        "risk.kg.s": self_s.get("risk.kg", 0.0),
        "risk.kg.events": counts.get("risk.kg.events", 0),
        "risk.findings": counts.get("risk.kg.findings", 0),
        "risk.trace.s": self_s.get("risk.trace", 0.0),
        "risk.explain.s": self_s.get("risk.explain", 0.0),
        "risk.explain.calls": calls.get("risk.explain", 0),
        "analytics.s": self_s.get("analytics", 0.0),
        "analytics.evaluate.s": self_s.get("analytics.evaluate", 0.0),
        "walks.s": self_s.get("walks", 0.0),
        "walks.sequences": counts.get("walks.sequences", 0),
        "walks.tokens": counts.get("walks.tokens", 0),
        "skipgram.s": self_s.get("skipgram", 0.0),
        "skipgram.pairs": counts.get("skipgram.pairs", 0),
        "skipgram.vocab": counts.get("skipgram.vocab", 0),
        "skipgram.final_loss": counts.get("skipgram.final_loss", 0.0),
        "cluster.s": self_s.get("cluster", 0.0),
        "cluster.points": counts.get("cluster.points", 0),
        "pipeline.self_s": self_s.get("pipeline", 0.0),
        "trace.spans": len(spans),
        "trace.overhead_s": sum(s.wrapper_s - s.duration for s in spans),
    }
    m["simulate.useful_step_ratio"] = (m["simulate.steps"] / m["simulate.step_calls"]
                                       if m["simulate.step_calls"] else 0.0)
    m["synth.triples_per_s"] = per_s(m["synth.triples"], m["synth.s"])
    m["rdf.parse_nt.triples_per_s"] = per_s(m["rdf.parse_nt.triples"], m["rdf.parse_nt.s"])
    m["skipgram.pairs_per_s"] = per_s(m["skipgram.pairs"], m["skipgram.s"])
    return {name: m[name] for name in LAYER_UNITS}
