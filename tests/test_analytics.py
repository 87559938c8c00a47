import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from vh2kg import analytics
from vh2kg.analytics import ConfusionMatrix, confusion, prf1
from vh2kg.errors import EventNotInCorpus, MissingDurations
from vh2kg.risk import RiskFinding


def finding(event):
    return RiskFinding("http://x/act", event, "R1", "http://x/agent",
                       "http://x/obj", (), (("s", "p", "o"),))


def test_prf1_table_values():
    cm = ConfusionMatrix(tp=6, fp=4, fn=0, tn=93)
    precision, recall, f1 = prf1(cm)
    assert precision == 0.6
    assert recall == 1.0
    assert f1 == 0.75


def test_prf1_zero_conventions():
    assert prf1(ConfusionMatrix(0, 0, 0, 10)) == (0.0, 0.0, 0.0)
    assert prf1(ConfusionMatrix(0, 3, 0, 7)) == (0.0, 0.0, 0.0)
    assert prf1(ConfusionMatrix(0, 0, 2, 8)) == (0.0, 0.0, 0.0)


def test_confusion_counts():
    events = [f"http://x/e{i}" for i in range(10)]
    truth = {events[0]: "R1", events[1]: "R1"}
    findings = [finding(events[0]), finding(events[5])]
    cm = confusion(findings, truth, events)
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 7)


def test_confusion_validates_membership():
    events = ["http://x/e0"]
    with pytest.raises(EventNotInCorpus):
        confusion([finding("http://x/other")], {}, events)
    with pytest.raises(EventNotInCorpus):
        confusion([], {"http://x/other": "R1"}, events)


def test_confusion_brute_force_oracle():
    rng = random.Random(0)
    events = [f"http://x/e{i}" for i in range(20)]
    for _ in range(1000):
        truth_set = set(rng.sample(events, rng.randint(0, 8)))
        found_set = set(rng.sample(events, rng.randint(0, 8)))
        cm = confusion([finding(e) for e in sorted(found_set)],
                       {e: "R1" for e in truth_set}, events)
        # independent set arithmetic
        tp = len(found_set & truth_set)
        fp = len(found_set - truth_set)
        fn = len(truth_set - found_set)
        tn = len(set(events) - truth_set - found_set)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)
        precision, recall, f1 = prf1(cm)
        if tp:
            assert precision == pytest.approx(tp / (tp + fp))
            assert recall == pytest.approx(tp / (tp + fn))
            assert f1 == pytest.approx(2 * precision * recall / (precision + recall))


def test_grab_frequency_ranking(base_doc):
    ranking = analytics.grab_frequency(base_doc)
    assert ranking
    counts = [c for _, c in ranking]
    assert counts == sorted(counts, reverse=True)
    # ties are alphabetical
    for (n1, c1), (n2, c2) in zip(ranking, ranking[1:]):
        if c1 == c2:
            assert n1 < n2
    assert sum(counts) >= 10  # the corpus grabs plenty of objects


def test_state_change_frequency(base_doc):
    ranking = analytics.state_change_frequency(base_doc)
    classes = dict(ranking)
    # switches and doors change state tokens in the corpus
    assert any(c > 0 for c in classes.values())


def test_duration_by_activity_filter(base_doc):
    all_durations = analytics.duration_by_activity(base_doc)
    assert len(all_durations) == 20
    leisure = analytics.duration_by_activity(base_doc, "Leisure")
    assert 0 < len(leisure) < 20
    assert set(dict(leisure)) <= set(dict(all_durations))
    # a category with no member activities simply yields an empty ranking
    assert analytics.duration_by_activity(base_doc, "PhysicalActivity") == []


_DURATION_RANKING = """
from vh2kg import analytics
from vh2kg.fixtures import (load_fixture_affordance_table,
                            load_fixture_environment, load_fixture_scripts)
from vh2kg.pipeline import simulate_corpus
from vh2kg.rdf import KgDocument
from vh2kg.synth import build_activity_kg

aff = load_fixture_affordance_table()
doc = KgDocument()
for trace, meta in simulate_corpus(load_fixture_scripts(),
                                   load_fixture_environment(),
                                   affordance_table=aff):
    doc.update(build_activity_kg(trace, meta, aff))
print(repr(analytics.duration_by_activity(doc)))
print(repr(analytics.duration_by_activity(doc, "Leisure")))
"""


def test_duration_ranking_independent_of_hash_seed():
    src = str(Path(analytics.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _DURATION_RANKING], env=env,
            capture_output=True, check=True, timeout=120).stdout)
    assert outputs[0] == outputs[1]


def test_duration_missing_literals():
    from vh2kg import schema as S
    from vh2kg.rdf import KgDocument
    doc = KgDocument()
    doc.add("http://x/act", S.HAS_EVENT, "http://x/ev")
    with pytest.raises(MissingDurations):
        analytics.duration_by_activity(doc)


def test_format_ranking_alignment():
    text = analytics.format_ranking([("alpha", 3), ("b", 12)], ("name", "n"))
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert len(lines) == 3
