"""Built-in aggregations over synthesized KGs plus detection metrics.

These mirror the common triplestore queries (grab frequency, state-change
frequency, time spent per activity) without requiring a query engine; the
SPARQL texts are shipped alongside the fixtures for external verification.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from . import schema as S
from .errors import EventNotInCorpus, MissingDurations
from .rdf import HO, KgDocument, KgIndex, Literal


def _object_class(idx: KgIndex, obj: str) -> str:
    for t in idx.objects(obj, S.RDF_TYPE):
        if isinstance(t, str) and t.startswith(HO):
            return t[len(HO):]
    return obj.rsplit("/", 1)[-1]


def _ranked(counts: dict) -> list[tuple[str, float]]:
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def grab_frequency(doc: KgDocument) -> list[tuple[str, int]]:
    """Grabbed-object classes ranked by grab-event count (ties alphabetical)."""
    idx = doc.index()
    counts: dict[str, int] = {}
    for ev in idx.subjects(S.ACTION, S.action_iri("grab")):
        for obj in idx.objects(ev, S.MAIN_OBJECT):
            cls = _object_class(idx, obj)
            counts[cls] = counts.get(cls, 0) + 1
    return _ranked(counts)


def state_change_frequency(doc: KgDocument) -> list[tuple[str, int]]:
    """Objects ranked by the number of state transitions that changed the
    state-token set; pure coordinate moves do not count."""
    idx = doc.index()
    counts: dict[str, int] = {}
    for t in idx.by_predicate.get(S.NEXT_STATE, ()):
        before, after = t.subject, t.object
        if set(idx.objects(before, S.STATE_PROP)) == set(idx.objects(after, S.STATE_PROP)):
            continue
        obj = idx.object(before, S.IS_STATE_OF)
        cls = _object_class(idx, obj) if obj else "?"
        counts[cls] = counts.get(cls, 0) + 1
    return _ranked(counts)


def duration_by_activity(doc: KgDocument,
                         category_filter: str | None = None) -> list[tuple[str, float]]:
    """Activities ranked by summed event duration, optionally filtered by
    category class name (e.g. "Leisure")."""
    idx = doc.index()
    totals: dict[str, float] = {}
    any_duration = False
    for activity in set(idx.subjects(S.HAS_EVENT)):
        if category_filter is not None:
            if HO + category_filter not in idx.objects(activity, S.RDF_TYPE):
                continue
        durations = []
        for ev in idx.objects(activity, S.HAS_EVENT):
            lit = idx.object(ev, S.TIME_PROP)
            if isinstance(lit, Literal):
                durations.append(float(lit.lexical))
        any_duration = any_duration or bool(durations)
        # exactly rounded, so the total does not depend on hash order
        totals[activity] = math.fsum(durations)
    if totals and not any_duration:
        raise MissingDurations("no event duration literals in the document")
    return _ranked(totals)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def read_ground_truth(path) -> dict[str, str]:
    """Ground truth CSV `event_iri,risk_type` -> {event: R1|R2}."""
    gt = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0] == "event_iri":
                continue
            gt[row[0]] = row[1]
    return gt


def confusion(findings, ground_truth: dict[str, str], all_events) -> ConfusionMatrix:
    """Event-level confusion counts; findings/annotations must lie in
    all_events."""
    events = set(all_events)
    flagged = {x.event_iri for x in findings}
    annotated = {e for e, r in ground_truth.items() if r and r.lower() != "none"}
    for e in sorted(flagged | annotated):
        if e not in events:
            raise EventNotInCorpus(e)
    tp = len(flagged & annotated)
    fp = len(flagged - annotated)
    fn = len(annotated - flagged)
    tn = len(events) - tp - fp - fn
    return ConfusionMatrix(tp, fp, fn, tn)


def prf1(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """(precision, recall, f1) with 0/0 treated as 0."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    # count form keeps the ratio exact (e.g. 12/16 = 0.75, no float detour)
    f1 = 2 * cm.tp / (2 * cm.tp + cm.fp + cm.fn) if cm.tp + cm.fp + cm.fn else 0.0
    return precision, recall, f1


def all_event_iris(doc: KgDocument) -> list[str]:
    idx = doc.index()
    return sorted({obj for a in set(idx.subjects(S.HAS_EVENT))
                   for obj in idx.objects(a, S.HAS_EVENT)})


def format_ranking(ranking, header=("item", "count")) -> str:
    """Aligned-column text table for a ranking."""
    rows = [header] + [(name, f"{value:g}") for name, value in ranking]
    width = max(len(r[0]) for r in rows)
    out = io.StringIO()
    for name, value in rows:
        out.write(f"{name:<{width}}  {value}\n")
    return out.getvalue()
