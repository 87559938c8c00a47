"""Corpus-level guarantees of run_pipeline: distinct activities for
duplicate script names, one seed driving every stage, and every RDF file
written from one sorted corpus."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from vh2kg import rdf
from vh2kg import schema as S
from vh2kg.cli import main
from vh2kg.errors import NoRoots
from vh2kg.fixtures import fixture_path
from vh2kg.pipeline import PipelineConfig, run_pipeline, simulate_corpus
from vh2kg.rdf import (EX, KgDocument, KgIndex, serialize_ntriples,
                       serialize_turtle)
from vh2kg.risk import detect_risks
from vh2kg.synth import IriFactory, build_activity_kg
from vh2kg.walks import WalkConfig

# Small embedding stages keep each pipeline run around a second.
SMALL = {"walk": {"depth": 2, "walks_per_entity": 2, "wl_iterations": 0},
         "skipgram": {"vector_size": 8, "epochs": 1}}
FILES = {"scripts_dir": str(fixture_path("scripts")),
         "environment_file": str(fixture_path("environment.json")),
         "affordance_file": str(fixture_path("affordances.csv"))}


def small_config(**fields):
    """``SMALL`` applied to the pipeline's defaults, as a config file is."""
    default = PipelineConfig()
    return PipelineConfig(walk=replace(default.walk, **SMALL["walk"]),
                          skipgram=replace(default.skipgram, **SMALL["skipgram"]),
                          **fields)


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def twin_carry_boxes(scripts):
    by_name = {s.name: s for s in scripts}
    return [by_name["Carry box"], replace(by_name["Read book"], name="Carry box")]


def test_duplicate_names_get_distinct_activities(scripts, base_env, affordance_table):
    runs = simulate_corpus(twin_carry_boxes(scripts), base_env,
                           affordance_table=affordance_table)
    assert [meta.index for _, meta in runs] == [0, 1]
    doc = KgDocument()
    for trace, meta in runs:
        doc.update(build_activity_kg(trace, meta, affordance_table))
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


def test_config_section_keeps_the_pipeline_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"walk": {"depth": 2}, "skipgram": {"epochs": 1}}')
    cfg = PipelineConfig.from_json(config)
    default = PipelineConfig()
    assert cfg.walk == replace(default.walk, depth=2) == WalkConfig(
        depth=2, walks_per_entity=25, wl_iterations=0)
    assert cfg.skipgram == replace(default.skipgram, epochs=1)
    assert (cfg.skipgram.vector_size, cfg.skipgram.window) == (64, 5)


def test_config_values_keep_their_json_types(tmp_path):
    # A float setting takes an integer; roots become a tuple of strings.
    config = tmp_path / "config.json"
    config.write_text('{"seed": 3, "sim": {"walk_speed": 2}, '
                      '"walk": {"roots": ["a"], "exhaustive": true}}')
    cfg = PipelineConfig.from_json(config)
    assert (cfg.seed, cfg.sim.walk_speed) == (3, 2)
    assert (cfg.walk.roots, cfg.walk.exhaustive) == (("a",), True)


def test_roots_outside_the_corpus_write_nothing(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(output_dir=str(out), **FILES)
    cfg = replace(cfg, walk=replace(cfg.walk, roots=(EX + "carry_box0_scene1", "x")))
    with pytest.raises(NoRoots, match="walk root\\(s\\) not in the corpus: x$"):
        run_pipeline(cfg)
    assert not out.exists()


def test_one_sort_per_run_and_the_same_log(tmp_path, monkeypatch):
    sorts, messages = [], []
    real = rdf._canonical_order
    monkeypatch.setattr(rdf, "_canonical_order",
                        lambda triples: sorts.append(1) or real(triples))

    def log(message):  # with the RDF files present when it is logged
        messages.append((message, sorted(p.name for p in tmp_path.iterdir()
                                         if p.suffix in (".nt", ".ttl"))))
    run_pipeline(small_config(output_dir=str(tmp_path), **FILES), log=log)
    assert len(sorts) == 1
    assert [m for m, _ in messages] == [
        "simulating 20 scripts", "writing corpus graph and stats",
        "detecting risks", "extracting walks and training embeddings"]
    rdf_files = sorted(p.name for p in tmp_path.iterdir()
                       if p.suffix in (".nt", ".ttl"))
    assert len(rdf_files) == 42 and messages[-1][1] == rdf_files


@pytest.mark.parametrize("fmt, render", [("nt", serialize_ntriples),
                                         ("ttl", serialize_turtle)])
def test_one_format_writes_only_its_files(tmp_path, base_runs, base_doc,
                                          affordance_table, fmt, render):
    run_pipeline(small_config(output_dir=str(tmp_path), formats=(fmt,), **FILES))
    expected = {"corpus.nt": serialize_ntriples(base_doc)}
    for trace, meta in base_runs:
        name = f"{IriFactory.for_meta(meta).local}.{fmt}"
        expected[name] = render(build_activity_kg(trace, meta, affordance_table))
    _, risk_doc = detect_risks(base_doc)
    expected["corpus_with_risks.nt"] = serialize_ntriples(
        KgDocument(triples=base_doc.triples | risk_doc.triples))
    written = {p.name: p.read_bytes().decode("utf-8") for p in tmp_path.iterdir()
               if p.suffix in (".nt", ".ttl")}
    assert written == expected
