"""The benchmark's workloads: seeded input generators, one timed pass each,
and the correctness oracle that checks a pass's outputs.

Every workload is set up from a freshly imported package (``vh``, see
``run.import_package``) and the workload seed.  The program only ever sees
the generated inputs.  Each pass calls the package's public functions
through their modules (``vh.synth.build_activity_kg``), so the traced run
can wrap them from outside.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import process_time

#: Class names for the clutter objects of the big scene.  None of them is
#: named by a fixture script, so clutter changes geometry work only.
CLUTTER_CLASSES = ("coin", "pen", "candle", "remotecontrol", "magazine",
                   "dishbowl", "toy", "slippers", "sponge", "notes")
CLUTTER_FIRST_ID = 1000
#: Scripts that stay unexecutable in repair mode once their walks are
#: removed (repair inserts walks only before NotClose failures).
UNREPAIRABLE = frozenset({"Clean desk", "Prepare breakfast", "Wash clothes"})


@dataclass
class PassResult:
    """What one pass measured and the outputs its oracle needs.  Times are
    on the process CPU clock (see run.py)."""
    pass_s: float
    findings_s: float
    operations: int          # scripts simulated + documents parsed + 1 output check
    outputs: dict = field(default_factory=dict)
    events: int = 0          # filled by the oracle from the pass's outputs
    embed_loss: float | None = None
    digest: str = ""         # of the artifacts a pass wrote, when it writes any


def _fixture_inputs(vh):
    fx = vh.fixtures
    return (fx.load_fixture_scripts(), fx.load_fixture_environment(),
            fx.load_fixture_affordance_table(), fx.load_fixture_ground_truth())


def _meta(vh, script, index=0):
    return vh.synth.ActivityMeta(name=script.name, category=script.category,
                                 description=script.description, index=index)


def _keys(findings):
    """(event IRI, rule id) of every finding."""
    return {f.key() for f in findings}


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


# --- fixture-pipeline ---------------------------------------------------

class FixturePipeline:
    """run_pipeline over the fixture corpus: the paper's job end to end."""

    name = "fixture-pipeline"

    def __init__(self, walks_per_entity=None, epochs=None):
        # None keeps the pipeline's default embedding config; the self-check
        # passes small values to shrink the workload.
        self.walks_per_entity = walks_per_entity
        self.epochs = epochs

    def setup(self, vh, seed, work_dir: Path):
        scripts, env, affordances, ground_truth = _fixture_inputs(vh)
        cfg = vh.pipeline.PipelineConfig(seed=seed, formats=("nt", "ttl"))
        walk = replace(cfg.walk, seed=seed)
        skipgram = replace(cfg.skipgram, seed=seed)
        if self.walks_per_entity is not None:
            walk = replace(walk, walks_per_entity=self.walks_per_entity)
        if self.epochs is not None:
            skipgram = replace(skipgram, epochs=self.epochs)
        cfg = replace(cfg, walk=walk, skipgram=skipgram,
                      kmeans=replace(cfg.kmeans, seed=seed))
        return {"vh": vh, "cfg": cfg, "scripts": scripts, "env": env,
                "affordances": affordances, "ground_truth": ground_truth,
                "work_dir": work_dir}

    def run_pass(self, inp) -> PassResult:
        vh = inp["vh"]
        out = Path(tempfile.mkdtemp(prefix="pass-", dir=inp["work_dir"]))
        cfg = replace(inp["cfg"], output_dir=str(out))
        marks = []

        def log(message):
            marks.append((process_time(), message))

        start = process_time()
        manifest = vh.pipeline.run_pipeline(
            cfg, scripts=inp["scripts"], env=inp["env"],
            affordance_table=inp["affordances"],
            ground_truth=inp["ground_truth"], log=log)
        seconds = process_time() - start
        # run_pipeline logs one message before risk detection and the next
        # one once findings.json and the evaluation are written.
        risk_at = next(i for i, (_, m) in enumerate(marks) if "risk" in m)
        findings_s = marks[risk_at + 1][0] - start
        return PassResult(seconds, findings_s, len(inp["scripts"]) + 1,
                          outputs={"dir": out, "manifest": manifest},
                          embed_loss=manifest["epoch_losses"][-1])

    def check(self, inp, result: PassResult, previous: PassResult | None) -> list[str]:
        vh = inp["vh"]
        out = result.outputs["dir"]
        failures = []
        gt = inp["ground_truth"]
        findings = vh.risk.findings_from_json((out / "findings.json").read_text())
        _expect(failures, _keys(findings) == set(gt.items()),
                "findings differ from the annotated events")
        evaluation = json.loads((out / "report.json").read_text())["evaluation"]
        _expect(failures, evaluation["f1"] == 1.0,
                f"evaluation F1 is {evaluation['f1']}, not 1.0")
        result.events = sum(evaluation[k] for k in ("tp", "fp", "fn", "tn"))
        losses = result.outputs["manifest"]["epoch_losses"]
        _expect(failures, losses[-1] < losses[0], "skip-gram loss did not fall")
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        result.digest = digest.hexdigest()
        if previous is not None:
            _expect(failures, result.digest == previous.digest,
                    "two passes under one seed wrote different artifacts")
        shutil.rmtree(out)
        return failures


# --- corpus-x10-kg ------------------------------------------------------

class CorpusKg:
    """The fixture traces synthesized under distinct activity indices, then
    every KG stage in order: the KG layers do all the work."""

    name = "corpus-x10-kg"

    def __init__(self, replicas=10):
        self.replicas = replicas

    def setup(self, vh, seed, work_dir: Path):
        scripts, env, affordances, ground_truth = _fixture_inputs(vh)
        traces = [vh.simulate.run_script(s, env, affordance_table=affordances)
                  for s in scripts]
        # The same traces under `replicas` distinct three-digit activity
        # indices, with the annotations carried over to every replica.
        indices = random.Random(seed).sample(range(100, 1000), self.replicas)
        runs, replicated_gt = [], {}
        for k in indices:
            for script, trace in zip(scripts, traces):
                meta = _meta(vh, script, k)
                runs.append((trace, meta))
                base = vh.synth.IriFactory.for_meta(_meta(vh, script))
                mine = vh.synth.IriFactory.for_meta(meta)
                for n in range(len(trace.transitions)):
                    if base.event(n) in ground_truth:
                        replicated_gt[mine.event(n)] = ground_truth[base.event(n)]
        replica0 = {vh.synth.IriFactory.for_meta(meta).activity()
                    for _, meta in runs[:len(scripts)]}
        walk = vh.pipeline.PipelineConfig().walk
        return {"vh": vh, "runs": runs, "affordances": affordances,
                "ground_truth": replicated_gt, "replica0": replica0,
                "walk": replace(walk, seed=seed)}

    def run_pass(self, inp) -> PassResult:
        vh = inp["vh"]
        start = process_time()
        doc = vh.rdf.KgDocument()
        for trace, meta in inp["runs"]:
            doc.update(vh.synth.build_activity_kg(trace, meta, inp["affordances"]))
        nt = vh.rdf.serialize_ntriples(doc)
        ttl = vh.rdf.serialize_turtle(doc)
        parsed = vh.rdf.parse_ntriples(nt)
        findings, _ = vh.risk.detect_risks(parsed)
        findings_s = process_time() - start
        report = vh.pipeline.analysis_report(parsed)
        evaluation = vh.pipeline.evaluate_findings(findings, inp["ground_truth"], parsed)
        explanations = [vh.risk.explain(f, parsed) for f in findings
                        if f.activity_iri in inp["replica0"]]
        walks = vh.walks.wl_relabel(parsed, inp["walk"])
        seconds = process_time() - start
        return PassResult(seconds, findings_s, 2, outputs={
            "doc": doc, "parsed": parsed, "findings": findings, "ttl": ttl,
            "report": report, "evaluation": evaluation,
            "explanations": explanations, "walks": walks})

    def check(self, inp, result: PassResult, previous: PassResult | None) -> list[str]:
        vh = inp["vh"]
        o = result.outputs
        failures = []
        expected = set()
        for trace, meta in inp["runs"]:
            expected |= _keys(vh.risk.eval_rules_trace(
                trace, meta, affordance_table=inp["affordances"]))
        _expect(failures, len(expected) == 6 * self.replicas,
                f"{len(expected)} trace findings, expected {6 * self.replicas}")
        _expect(failures, _keys(o["findings"]) == expected,
                "KG findings differ from the per-replica trace findings")
        _expect(failures, o["parsed"].triples == o["doc"].triples,
                "N-Triples round trip changed the document")
        subjects = {t.subject for t in o["doc"].triples}
        _expect(failures, o["ttl"].count(" .\n") >= len(subjects),
                "Turtle output has fewer statements than subjects")
        ev = o["evaluation"]
        _expect(failures, ev["f1"] == 1.0, f"evaluation F1 is {ev['f1']}, not 1.0")
        result.events = sum(ev[k] for k in ("tp", "fp", "fn", "tn"))
        _expect(failures, result.events == 103 * self.replicas,
                f"{result.events} events, expected {103 * self.replicas}")
        _expect(failures, o["report"]["stats"]["triples"] == len(o["doc"].triples),
                "analysis report counts a different number of triples")
        _expect(failures, len(o["explanations"]) == 6
                and all(e["text"] and e["dot"] for e in o["explanations"]),
                "replica 0 findings were not all explained")
        walk = inp["walk"]
        _expect(failures, len(o["walks"].sequences) == len(inp["runs"]) * walk.walks_per_entity,
                "walk corpus has the wrong number of sequences")
        return failures


# --- big-scene-sim ------------------------------------------------------

def clutter_environment(vh, seed, objects=400):
    """The base fixture environment plus `objects` small clutter objects,
    spread evenly over the rooms, standing on the floor at seeded positions
    with seeded sizes and classes.  An even spread keeps the number of
    CLOSE pairs, and so the work per step, nearly the same for every seed."""
    document = json.loads(vh.fixtures.fixture_path("environment.json").read_text())
    rooms = [n for n in document["nodes"] if n["is_room"]]
    rng = random.Random(seed)
    for i in range(objects):
        room = rooms[i % len(rooms)]
        (cx, _, cz), (sx, _, sz) = (room["bounding_box"]["center"],
                                    room["bounding_box"]["size"])
        size = [round(rng.uniform(0.05, 0.3), 3) for _ in range(3)]
        center = [round(rng.uniform(cx - sx / 2 + 0.3, cx + sx / 2 - 0.3), 3),
                  size[1] / 2,
                  round(rng.uniform(cz - sz / 2 + 0.3, cz + sz / 2 - 0.3), 3)]
        oid = CLUTTER_FIRST_ID + i
        document["nodes"].append({
            "id": oid, "class_name": rng.choice(CLUTTER_CLASSES),
            "category": "Objects", "is_room": False, "is_agent": False,
            "states": [], "properties": ["MOVABLE"],
            "bounding_box": {"center": center, "size": size}})
        document["edges"].append({"from_id": oid, "relation_type": "INSIDE",
                                  "to_id": room["id"]})
    return vh.home.load_environment(document)


class BigSceneSim:
    """Strict and repair-mode simulation over a cluttered scene, then the KG
    and both risk evaluations: simulation dominates."""

    name = "big-scene-sim"

    def __init__(self, clutter=400):
        self.clutter = clutter

    def setup(self, vh, seed, work_dir: Path):
        scripts, _, affordances, ground_truth = _fixture_inputs(vh)
        env = clutter_environment(vh, seed, self.clutter)
        walkless = [replace(s, steps=[st for st in s.steps if st.verb != "walk"])
                    for s in scripts]
        return {"vh": vh, "scripts": scripts, "walkless": walkless, "env": env,
                "affordances": affordances, "ground_truth": ground_truth}

    def run_pass(self, inp) -> PassResult:
        vh = inp["vh"]
        env, affordances = inp["env"], inp["affordances"]
        start = process_time()
        runs = [(vh.simulate.run_script(s, env, mode="strict",
                                        affordance_table=affordances),
                 _meta(vh, s)) for s in inp["scripts"]]
        doc = vh.rdf.KgDocument()
        for trace, meta in runs:
            doc.update(vh.synth.build_activity_kg(trace, meta, affordances))
        trace_findings = [f for trace, meta in runs
                          for f in vh.risk.eval_rules_trace(
                              trace, meta, affordance_table=affordances)]
        kg_findings, _ = vh.risk.detect_risks(doc)
        findings_s = process_time() - start
        # Repair runs last: no finding depends on it.
        repaired, unexecutable = [], []
        for script in inp["walkless"]:
            try:
                repaired.append(vh.simulate.run_script(
                    script, env, mode="repair", affordance_table=affordances))
            except vh.errors.Unexecutable:
                unexecutable.append(script.name)
        seconds = process_time() - start
        return PassResult(seconds, findings_s,
                          len(inp["scripts"]) + len(inp["walkless"]) + 1,
                          outputs={"runs": runs, "doc": doc,
                                   "trace_findings": trace_findings,
                                   "kg_findings": kg_findings,
                                   "repaired": repaired,
                                   "unexecutable": unexecutable})

    def check(self, inp, result: PassResult, previous: PassResult | None) -> list[str]:
        o = result.outputs
        failures = []
        result.events = sum(len(t.transitions) for t, _ in o["runs"])
        _expect(failures, result.events == 103, f"{result.events} events, expected 103")
        _expect(failures, len(o["repaired"]) == 17,
                f"{len(o['repaired'])} repaired traces, expected 17")
        _expect(failures, set(o["unexecutable"]) == UNREPAIRABLE
                and len(o["unexecutable"]) == 3,
                f"unexecutable scripts {sorted(o['unexecutable'])}")
        _expect(failures, _keys(o["trace_findings"]) == _keys(o["kg_findings"]),
                "trace findings differ from KG findings")
        _expect(failures, _keys(o["kg_findings"]) == set(inp["ground_truth"].items()),
                "findings differ from the annotated events")
        return failures


#: Full-size workloads, by name.
WORKLOADS = {w.name: w for w in (FixturePipeline(), CorpusKg(), BigSceneSim())}
#: Reduced-size workloads for the self-check.
SMALL_WORKLOADS = {w.name: w for w in (FixturePipeline(walks_per_entity=2, epochs=2),
                                       CorpusKg(replicas=2), BigSceneSim(clutter=20))}
