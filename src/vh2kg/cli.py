"""Command line entry point.

Exit codes: 0 success, 1 domain failure (unexecutable script, failed
validation, missing data), 2 usage error. All logging goes to stderr;
stdout carries only the requested artifact.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytics, risk
from .cluster import KMeansConfig, clusters_csv, kmeans
from .errors import VH2KGError
from .home import filter_affordances, load_environment_file, read_affordance_csv
from .pipeline import PipelineConfig, evaluate_findings, run_pipeline
from .rdf import (augmented_lines, graph_stats, ntriples_lines, parse_ntriples,
                  serialize_ntriples, serialize_turtle, write_lines)
from .scripts import CATEGORIES, parse_script, serialize_script, validate_vocabulary
from .simulate import DurationModel, check_executable, run_script, trace_to_json
from .skipgram import (SkipGramConfig, cosine_neighbors, export_vectors,
                       parse_vectors, train_skipgram)
from .synth import ActivityMeta, build_activity_kg
from .walks import WalkConfig, _escape_token, root_rows, wl_relabel

log = logging.getLogger("vh2kg")


def _read_graph(path):
    return parse_ntriples(Path(path).read_text(encoding="utf-8"))


def _load_affordances(args):
    if not args.affordances:
        return None
    return filter_affordances(read_affordance_csv(args.affordances), args.threshold)


def _load_script(args):
    text = Path(args.script).read_text(encoding="utf-8")
    return parse_script(text, category=getattr(args, "category", "Other"))


def _simulate(args):
    script = _load_script(args)
    env = load_environment_file(args.environment)
    affordance = _load_affordances(args)
    mode = "repair" if args.repair else "strict"
    trace = run_script(script, env, DurationModel(), mode,
                       affordance_table=affordance)
    return script, trace, affordance


def cmd_parse(args):
    script = _load_script(args)
    unknown = validate_vocabulary(script)
    for idx, verb in unknown:
        log.warning("step %d uses a verb outside the core vocabulary: %s",
                    idx, verb)
    if args.echo:
        sys.stdout.write(serialize_script(script))
    else:
        payload = {
            "name": script.name,
            "category": script.category,
            "description": script.description,
            "steps": len(script.steps),
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_simulate(args):
    script, trace, _ = _simulate(args)
    payload = trace_to_json(trace)
    if not args.full:
        payload.pop("situations")
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    log.info("simulated %s: %d events, %.1f s total",
             script.name, len(trace.transitions), trace.total_seconds)
    return 0


def cmd_check(args):
    script = _load_script(args)
    env = load_environment_file(args.environment)
    report = check_executable(script, env,
                              affordance_table=_load_affordances(args))
    json.dump({"executable": report.executable,
               "failing_step_index": report.failing_step_index,
               "reason": report.reason, "detail": report.detail},
              sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if report.executable else 1


def cmd_build_kg(args):
    _, trace, affordance = _simulate(args)
    meta = ActivityMeta(name=trace.script.name, category=trace.script.category,
                        description=trace.script.description,
                        scene_id=args.scene, index=args.index)
    doc = build_activity_kg(trace, meta, affordance)
    render = serialize_turtle if args.format == "ttl" else serialize_ntriples
    sys.stdout.write(render(doc))
    return 0


def cmd_stats(args):
    doc = _read_graph(args.graph)
    json.dump(graph_stats(doc), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_detect_risk(args):
    doc = _read_graph(args.graph)
    findings, risk_doc = risk.detect_risks(doc, tuple(args.rules))
    if args.augmented:
        write_lines(args.augmented, augmented_lines(
            doc, ntriples_lines(doc.sorted_triples()), risk_doc))
    sys.stdout.write(risk.findings_to_json(findings))
    log.info("%d risk findings", len(findings))
    return 0


def cmd_explain(args):
    doc = _read_graph(args.graph)
    findings = risk.findings_from_json(
        Path(args.findings).read_text(encoding="utf-8"))
    wanted = [f for f in findings if f.event_iri == args.event
              and (args.rule is None or f.rule_id == args.rule)]
    if not wanted:
        log.error("no finding for event %s", args.event)
        return 1
    for finding in wanted:
        detail = risk.explain(finding, doc)
        if args.dot:
            sys.stdout.write(detail["dot"])
        else:
            sys.stdout.write(detail["text"] + "\n")
    return 0


def cmd_walks(args):
    cfg = WalkConfig(depth=args.depth, walks_per_entity=args.walks,
                     wl_iterations=args.wl, seed=args.seed,
                     exhaustive=args.exhaustive)
    corpus = wl_relabel(_read_graph(args.graph), cfg)
    sys.stdout.write(corpus.as_lines())
    log.info("%d walks", len(corpus.sequences))
    return 0


def cmd_embed(args):
    wcfg = WalkConfig(depth=args.depth, walks_per_entity=args.walks,
                      wl_iterations=args.wl, seed=args.seed)
    scfg = SkipGramConfig(vector_size=args.dims, window=args.window,
                          epochs=args.epochs, seed=args.seed,
                          negative_samples=args.negative)
    corpus = wl_relabel(_read_graph(args.graph), wcfg)
    model, losses = train_skipgram(corpus, scfg)
    sys.stdout.write(export_vectors(model))
    log.info("epoch losses: %s", ", ".join(f"{x:.4f}" for x in losses))
    return 0


def cmd_neighbors(args):
    tokens, matrix = parse_vectors(Path(args.vectors).read_text(encoding="utf-8"))
    from .skipgram import EmbeddingModel
    model = EmbeddingModel(list(tokens), matrix, np.zeros_like(matrix))
    for token, score in cosine_neighbors(model, args.token, args.n):
        sys.stdout.write(f"{score:.6f}\t{_escape_token(token)}\n")
    return 0


def cmd_cluster(args):
    cfg = KMeansConfig(k=args.k, seed=args.seed)
    tokens, matrix = parse_vectors(Path(args.vectors).read_text(encoding="utf-8"))
    if args.roots:
        tokens, rows = root_rows(_read_graph(args.roots), tokens)
        matrix = matrix[rows]
    assignments, _, inertia = kmeans(matrix, cfg)
    sys.stdout.write(clusters_csv(tokens, assignments))
    log.info("inertia %.6f", inertia)
    return 0


def cmd_analyze(args):
    doc = _read_graph(args.graph)
    if args.query == "grab-frequency":
        ranking = analytics.grab_frequency(doc)
        sys.stdout.write(analytics.format_ranking(ranking, ("object class", "grabs")))
    elif args.query == "state-changes":
        ranking = analytics.state_change_frequency(doc)
        sys.stdout.write(analytics.format_ranking(ranking, ("object class", "changes")))
    elif args.query == "durations":
        ranking = analytics.duration_by_activity(doc, args.category)
        sys.stdout.write(analytics.format_ranking(ranking, ("activity", "seconds")))
    return 0


def cmd_evaluate(args):
    doc = _read_graph(args.graph)
    findings = risk.findings_from_json(
        Path(args.findings).read_text(encoding="utf-8"))
    truth = analytics.read_ground_truth(args.ground_truth)
    json.dump(evaluate_findings(findings, truth, doc), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_pipeline(args):
    if args.config:
        cfg = PipelineConfig.from_json(args.config)
    else:
        cfg = PipelineConfig()
    overrides = {}
    if args.scripts:
        overrides["scripts_dir"] = args.scripts
    if args.environment:
        overrides["environment_file"] = args.environment
    if args.affordances:
        overrides["affordance_file"] = args.affordances
    if args.ground_truth:
        overrides["ground_truth_file"] = args.ground_truth
    if args.output:
        overrides["output_dir"] = args.output
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.repair:
        overrides["mode"] = "repair"
    cfg = replace(cfg, **overrides)
    manifest = run_pipeline(cfg, log=log.info)
    json.dump(manifest, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _add_script_args(p, environment=True):
    p.add_argument("script", help="activity script file")
    if environment:
        p.add_argument("environment", help="environment JSON file")
        p.add_argument("--affordances", help="crowdsourced affordance CSV")
        p.add_argument("--threshold", type=float, default=4.0,
                       help="mean-score cutoff for affordance rows")
        p.add_argument("--repair", action="store_true",
                       help="insert walk steps to fix NotClose failures")
    p.add_argument("--category", default="Other", choices=CATEGORIES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vh2kg",
        description="Simulate household activity scripts and analyze the "
                    "resulting knowledge graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and normalize a script")
    _add_script_args(p, environment=False)
    p.add_argument("--echo", action="store_true", help="print normalized script")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("simulate", help="run a script and dump the trace")
    _add_script_args(p)
    p.add_argument("--full", action="store_true",
                   help="include every intermediate environment snapshot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="report whether a script is executable")
    _add_script_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("build-kg", help="simulate and emit RDF")
    _add_script_args(p)
    p.add_argument("--format", choices=("nt", "ttl"), default="nt")
    p.add_argument("--scene", default="scene1")
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_build_kg)

    p = sub.add_parser("stats", help="count triples, entities, classes")
    p.add_argument("graph", help="N-Triples file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("detect-risk", help="run geometric risk rules on a graph")
    p.add_argument("graph")
    p.add_argument("--rules", nargs="+", default=["R1", "R2"])
    p.add_argument("--augmented", help="write graph with risk triples added")
    p.set_defaults(func=cmd_detect_risk)

    p = sub.add_parser("explain", help="explain one risk finding")
    p.add_argument("graph")
    p.add_argument("findings", help="findings JSON from detect-risk")
    p.add_argument("event", help="event IRI")
    p.add_argument("--rule")
    p.add_argument("--dot", action="store_true", help="emit Graphviz instead of text")
    p.set_defaults(func=cmd_explain)

    # flag defaults are the config classes' own, which the pipeline uses
    walk, skipgram, kmeans = WalkConfig(), SkipGramConfig(), KMeansConfig()

    def add_walk_args(p):
        p.add_argument("graph")
        p.add_argument("--depth", type=int, default=walk.depth)
        p.add_argument("--walks", type=int, default=walk.walks_per_entity)
        p.add_argument("--wl", type=int, default=walk.wl_iterations,
                       help="structural relabeling iterations")
        p.add_argument("--seed", type=int, default=walk.seed)

    p = sub.add_parser("walks", help="extract random walks from a graph")
    add_walk_args(p)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_walks)

    p = sub.add_parser("embed", help="walks plus skip-gram, emit vectors TSV")
    add_walk_args(p)
    p.add_argument("--dims", type=int, default=skipgram.vector_size)
    p.add_argument("--window", type=int, default=skipgram.window)
    p.add_argument("--epochs", type=int, default=skipgram.epochs)
    p.add_argument("--negative", type=int, default=skipgram.negative_samples)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("neighbors", help="nearest tokens by cosine similarity")
    p.add_argument("vectors", help="TSV from embed")
    p.add_argument("token")
    p.add_argument("-n", type=int, default=10)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("cluster", help="k-means over embedding vectors")
    p.add_argument("vectors")
    p.add_argument("-k", type=int, default=kmeans.k)
    p.add_argument("--seed", type=int, default=kmeans.seed)
    p.add_argument("--roots", metavar="GRAPH",
                   help="cluster only the activity roots of this N-Triples graph")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("analyze", help="aggregate queries over a graph")
    p.add_argument("graph")
    p.add_argument("query", choices=("grab-frequency", "state-changes", "durations"))
    p.add_argument("--category", help="restrict durations to one activity category")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evaluate", help="score findings against ground truth")
    p.add_argument("graph")
    p.add_argument("findings")
    p.add_argument("ground_truth", help="CSV of event_iri,risk_type")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="full corpus run into an output directory")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--scripts", help="directory of script files")
    p.add_argument("--environment")
    p.add_argument("--affordances")
    p.add_argument("--ground-truth", dest="ground_truth")
    p.add_argument("--output", "-o")
    p.add_argument("--seed", type=int)
    p.add_argument("--repair", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("VH2KG_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VH2KGError as exc:
        log.error("%s", exc)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); not our error
        return 0
    except OSError as exc:
        # an input path that cannot be read, e.g. a directory given as a file
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
