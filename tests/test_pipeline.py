"""Corpus-level guarantees of run_pipeline: distinct activities for
duplicate script names, and one seed driving every stage."""

import json
from dataclasses import replace
from pathlib import Path

from vh2kg import rdf
from vh2kg import schema as S
from vh2kg.cli import main
from vh2kg.fixtures import fixture_path
from vh2kg.pipeline import PipelineConfig, run_pipeline, simulate_corpus
from vh2kg.rdf import EX, KgDocument, KgIndex
from vh2kg.risk import detect_risks
from vh2kg.skipgram import SkipGramConfig
from vh2kg.synth import build_activity_kg
from vh2kg.walks import WalkConfig

# Small embedding stages keep each pipeline run around a second.
SMALL = {"walk": {"depth": 2, "walks_per_entity": 2, "wl_iterations": 0},
         "skipgram": {"vector_size": 8, "epochs": 1}}
FILES = {"scripts_dir": str(fixture_path("scripts")),
         "environment_file": str(fixture_path("environment.json")),
         "affordance_file": str(fixture_path("affordances.csv"))}


def small_config(**fields):
    return PipelineConfig(walk=WalkConfig(**SMALL["walk"]),
                          skipgram=SkipGramConfig(**SMALL["skipgram"]), **fields)


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def twin_carry_boxes(scripts):
    by_name = {s.name: s for s in scripts}
    return [by_name["Carry box"], replace(by_name["Read book"], name="Carry box")]


def test_duplicate_names_get_distinct_activities(scripts, base_env,
                                                 affordance_table, property_table):
    runs = simulate_corpus(twin_carry_boxes(scripts), base_env,
                           affordance_table=affordance_table,
                           property_table=property_table)
    assert [meta.index for _, meta in runs] == [0, 1]
    doc = KgDocument()
    for trace, meta in runs:
        build_activity_kg(trace, meta, affordance_table, property_table, doc=doc)
    assert len(KgIndex(doc).subjects(S.RDF_TYPE, S.EVENT)) == 10
    findings, _ = detect_risks(doc)
    assert (EX + "event1_carry_box0_scene1", "R2") in {f.key() for f in findings}


def test_duplicate_names_write_distinct_files(scripts, base_env, tmp_path):
    cfg = small_config(output_dir=str(tmp_path), formats=("nt",))
    manifest = run_pipeline(cfg, scripts=twin_carry_boxes(scripts), env=base_env)
    one, two = sorted(manifest["activities"])
    assert one.endswith("/carry_box0_scene1.nt")
    assert two.endswith("/carry_box1_scene1.nt")
    assert Path(one).read_bytes() != Path(two).read_bytes()


def test_seed_reaches_every_stage(tmp_path):
    for seed in (13, 14):
        run_pipeline(small_config(output_dir=str(tmp_path / str(seed)),
                                  seed=seed, **FILES))
    assert (tmp_path / "13" / "walks.txt").read_bytes() != \
        (tmp_path / "14" / "walks.txt").read_bytes()

    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FILES, **SMALL, "seed": 13,
                                  "output_dir": str(tmp_path / "json")}))
    run_pipeline(PipelineConfig.from_json(config))
    assert outputs(tmp_path / "json") == outputs(tmp_path / "13")

    config.write_text(json.dumps({**FILES, **SMALL}))
    assert main(["pipeline", "--config", str(config), "--seed", "13",
                 "-o", str(tmp_path / "cli")]) == 0
    assert outputs(tmp_path / "cli") == outputs(tmp_path / "13")


def test_stats_counted_once_per_run(tmp_path, monkeypatch):
    counts = []
    count_graph = rdf._count_graph
    monkeypatch.setattr(rdf, "_count_graph",
                        lambda doc: counts.append(doc) or count_graph(doc))
    run_pipeline(small_config(output_dir=str(tmp_path), **FILES))
    report = json.loads((tmp_path / "report.json").read_text())
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats == report["stats"] and stats["triples"] > 20000
    assert len(counts) == 1
