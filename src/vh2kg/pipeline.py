"""End-to-end orchestration: simulate, synthesize, detect, embed, analyze.

Every stage is file-decoupled so the CLI subcommands can run independently;
this module wires them together for corpus runs and keeps all outputs
deterministic under a single seed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

from . import analytics, risk
from .cluster import KMeansConfig, clusters_csv, kmeans
from .errors import BadConfig, MissingSetting, NoRoots
from .home import EnvironmentGraph, check_name
from .rdf import (KgDocument, augmented_lines, graph_stats, ntriples_lines,
                  sorted_positions, turtle_header, turtle_lines, write_lines)
# Not called here; the benchmark's tracer wraps these names.
from .rdf import serialize_ntriples, serialize_turtle  # noqa: F401
from .scripts import ActivityScript
from .simulate import MODES, DurationModel, SimConfig, Trace, run_script
from .skipgram import SkipGramConfig, export_vectors, train_skipgram
from .synth import ActivityMeta, IriFactory, build_activity_kg, snake_case
from .walks import WalkConfig, root_rows, wl_relabel


#: Per-activity file formats, in the order they are written.
FORMATS = ("nt", "ttl")

#: The config sections whose seed ``run_pipeline`` sets from the top-level one.
SEEDED = ("walk", "skipgram", "kmeans")


@dataclass(frozen=True)
class PipelineConfig:
    scripts_dir: str = ""
    environment_file: str = ""
    affordance_file: str = ""
    ground_truth_file: str = ""
    output_dir: str = "out"
    mode: str = "strict"
    seed: int = 0
    scene_id: str = "scene1"
    formats: tuple = FORMATS
    sim: SimConfig = SimConfig()
    duration: DurationModel = DurationModel()
    walk: WalkConfig = WalkConfig()
    skipgram: SkipGramConfig = SkipGramConfig()
    kmeans: KMeansConfig = KMeansConfig()

    def __post_init__(self):
        unknown = [fmt for fmt in self.formats if fmt not in FORMATS]
        if unknown:
            raise BadConfig(f"unknown format(s) {', '.join(map(repr, unknown))}; "
                            f"choose from {', '.join(FORMATS)}")
        if self.mode not in MODES:
            raise BadConfig(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        check_name("scene id", self.scene_id)
        if self.seed < 0:
            raise BadConfig("seed must be >= 0")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        """Read a config file.  A nested object sets only the keys it names
        and keeps the pipeline's defaults for the rest of its section;
        malformed JSON, an unknown key or a bad value raises ``BadConfig``."""
        try:
            raw = json.loads(Path(path).read_text())
        except ValueError as exc:
            raise BadConfig(f"{path}: not valid JSON ({exc})") from None
        return _from_dict(cls(), raw, str(path))


#: The scalar types a config value may replace, as an error names them.
_SCALARS = {int: "an integer", float: "a number", bool: "true or false",
            str: "a string"}


def _from_dict(default, raw, where: str):
    """The dataclass instance ``default`` with the keys of the JSON object
    ``raw`` applied.  Each value is read as the type of the default it
    replaces: a nested object is applied to that section's default, a list
    setting (``walk.roots`` included) takes a list of strings and keeps it as
    a tuple or frozenset, and a scalar must have the default's type (a
    number may replace a float).
    An error names its place: ``where``, then the section keys down to the
    bad value."""
    if not isinstance(raw, dict):
        raise BadConfig(f"{where}: expected a JSON object")
    unknown = sorted(raw.keys() - {f.name for f in fields(default)})
    if unknown:
        raise BadConfig(f"{where}: unknown key(s) {', '.join(unknown)}")
    values = {}
    try:
        for key, value in raw.items():
            current = getattr(default, key)
            kind = type(current)
            if is_dataclass(kind):
                if key in SEEDED and isinstance(value, dict) and "seed" in value:
                    raise BadConfig(f"{key}: seed is not read here; "
                                    "set the top-level seed")
                value = _from_dict(current, value, key)
            elif kind in (tuple, frozenset) or (current is None and value is not None):
                # every list setting; walk.roots defaults to None
                if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                    raise ValueError(f"{key} must be a list of strings, got {value!r}")
                value = (frozenset if kind is frozenset else tuple)(value)
            elif kind is dict and not isinstance(value, dict):
                raise ValueError(f"{key} must be a JSON object")
            elif kind in _SCALARS:
                # type(), not isinstance(): JSON true is no integer here
                if type(value) not in ((int, float) if kind is float else (kind,)):
                    raise ValueError(f"{key} must be {_SCALARS[kind]}, got {value!r}")
            values[key] = value
        return replace(default, **values)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"{where}: {exc}") from None


def simulate_corpus(scripts: list[ActivityScript], env: EnvironmentGraph,
                    dm: DurationModel = DurationModel(), mode: str = "strict",
                    sim: SimConfig = SimConfig(), affordance_table=None,
                    scene_id: str = "scene1",
                    ) -> list[tuple[Trace, ActivityMeta]]:
    """Simulate every script; scripts whose names share a slug get activity
    indices 0, 1, ... in script order, so their IRIs never collide."""
    results = []
    seen = Counter()
    for script in scripts:
        slug = snake_case(script.name)
        trace = run_script(script, env, dm, mode, sim, affordance_table)
        meta = ActivityMeta(name=script.name, category=script.category,
                            description=script.description, scene_id=scene_id,
                            index=seen[slug])
        seen[slug] += 1
        results.append((trace, meta))
    return results


def evaluate_findings(findings, ground_truth, doc: KgDocument):
    cm = analytics.confusion(findings, ground_truth, analytics.all_event_iris(doc))
    precision, recall, f1 = analytics.prf1(cm)
    return {
        "tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn,
        "precision": precision, "recall": recall, "f1": f1,
    }


def analysis_report(doc: KgDocument) -> dict:
    return {
        "grab_frequency": analytics.grab_frequency(doc),
        "state_change_frequency": analytics.state_change_frequency(doc),
        "duration_by_activity": analytics.duration_by_activity(doc),
        "leisure_duration": analytics.duration_by_activity(doc, "Leisure"),
        "stats": graph_stats(doc),
    }


def _write_graphs(out: Path, doc: KgDocument, risk_doc: KgDocument,
                  names: list, parts: list, formats) -> None:
    """Write ``corpus.nt``, ``corpus_with_risks.nt`` and, in each of
    ``formats``, one file per activity: ``names[i]`` holds the triples
    ``parts[i]`` of ``doc``.

    The corpus is sorted once and each triple formatted once per format;
    an activity's file is the corpus lines at its triples' positions (see
    ``rdf.sorted_positions``), so one qname table serves every Turtle file.
    The N-Triples lines are freed before the Turtle lines are made, and
    each file is written in chunks.
    """
    order = doc.sorted_triples()
    activities = list(zip(names, sorted_positions(doc, parts)))
    lines = ntriples_lines(order)
    write_lines(out / "corpus.nt", lines)
    write_lines(out / "corpus_with_risks.nt", augmented_lines(doc, lines, risk_doc))
    if "nt" in formats:
        for name, at in activities:
            write_lines(out / f"{name}.nt", map(lines.__getitem__, at))
    del lines
    if "ttl" in formats:
        lines = turtle_lines(order)
        header = turtle_header()
        for name, at in activities:
            write_lines(out / f"{name}.ttl", map(lines.__getitem__, at), header)


def run_pipeline(cfg: PipelineConfig, scripts=None, env=None,
                 affordance_table=None, ground_truth=None,
                 log=lambda msg: None) -> dict:
    """Full corpus run; returns a manifest of written artifact paths.

    ``cfg.seed`` overrides the walk, skip-gram and k-means seeds."""
    from .fixtures import load_scripts_dir

    for given, key, flag in ((scripts, "scripts_dir", "--scripts"),
                             (env, "environment_file", "--environment")):
        if given is None and not getattr(cfg, key):
            raise MissingSetting(f"{flag} (config key {key}) is not set")
    cfg = replace(cfg, **{key: replace(getattr(cfg, key), seed=cfg.seed)
                          for key in SEEDED})
    if scripts is None:
        scripts = load_scripts_dir(cfg.scripts_dir)
    if env is None:
        from .home import load_environment_file
        env = load_environment_file(cfg.environment_file)
    if affordance_table is None and cfg.affordance_file:
        from .home import filter_affordances, read_affordance_csv
        affordance_table = filter_affordances(read_affordance_csv(cfg.affordance_file))
    out = Path(cfg.output_dir)

    log(f"simulating {len(scripts)} scripts")
    runs = simulate_corpus(scripts, env, cfg.duration, cfg.mode, cfg.sim,
                           affordance_table, cfg.scene_id)

    doc = KgDocument()
    names, parts = [], []
    for trace, meta in runs:
        activity_doc = build_activity_kg(trace, meta, affordance_table)
        doc.update(activity_doc)
        names.append(IriFactory.for_meta(meta).local)
        parts.append(list(activity_doc.triples))
    # the index is the one detect_risks reads
    missing = [r for r in cfg.walk.roots or () if r not in doc.index().by_subject]
    if missing:
        raise NoRoots(f"walk root(s) not in the corpus: {', '.join(missing)}")
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"activities": [str(out / f"{name}.{fmt}") for name in names
                               for fmt in FORMATS if fmt in cfg.formats]}

    log("writing corpus graph and stats")
    (out / "stats.json").write_text(
        json.dumps(graph_stats(doc), indent=2, sort_keys=True) + "\n")

    log("detecting risks")
    findings, risk_doc = risk.detect_risks(doc)
    (out / "findings.json").write_text(risk.findings_to_json(findings))
    _write_graphs(out, doc, risk_doc, names, parts, cfg.formats)
    del parts

    report = analysis_report(doc)
    if ground_truth is None and cfg.ground_truth_file:
        ground_truth = analytics.read_ground_truth(cfg.ground_truth_file)
    if ground_truth is not None:
        report["evaluation"] = evaluate_findings(findings, ground_truth, doc)

    log("extracting walks and training embeddings")
    corpus = wl_relabel(doc, cfg.walk)
    (out / "walks.txt").write_text(corpus.as_lines(), encoding="utf-8")
    model, losses = train_skipgram(corpus, cfg.skipgram)
    (out / "vectors.tsv").write_text(export_vectors(model), encoding="utf-8")

    roots, rows = root_rows(doc, model.vocab)
    if len(roots) >= cfg.kmeans.k:
        assignments, _, inertia = kmeans(model.input_vectors[rows], cfg.kmeans)
        (out / "clusters.csv").write_text(clusters_csv(roots, assignments),
                                          encoding="utf-8")
        report["clustering_inertia"] = inertia
        manifest["clusters"] = str(out / "clusters.csv")

    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    manifest.update({
        "corpus": str(out / "corpus.nt"),
        "findings": str(out / "findings.json"),
        "report": str(out / "report.json"),
        "vectors": str(out / "vectors.tsv"),
        "walks": str(out / "walks.txt"),
        "epoch_losses": losses,
    })
    return manifest
