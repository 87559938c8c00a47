import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from vh2kg.cli import main
from vh2kg.errors import MalformedVectors
from vh2kg.fixtures import fixture_path
from vh2kg.rdf import EX, KgDocument, parse_ntriples, serialize_ntriples
from vh2kg.risk import detect_risks
from vh2kg.skipgram import EmbeddingModel, export_vectors, parse_vectors
from vh2kg.walks import _unescape_token

SCRIPT = str(fixture_path("scripts", "carry_box.txt"))
ENV = str(fixture_path("environment.json"))
AFF = str(fixture_path("affordances.csv"))
GT = str(fixture_path("ground_truth.csv"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse(capsys):
    code, out = run(capsys, "parse", SCRIPT)
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "Carry box"
    assert payload["steps"] == 5


def test_parse_echo_round_trip(capsys, tmp_path):
    code, out = run(capsys, "parse", SCRIPT, "--echo")
    assert code == 0
    assert "[GRAB] <box> (194)" in out


def test_check_executable(capsys):
    code, out = run(capsys, "check", SCRIPT, ENV, "--affordances", AFF)
    assert code == 0
    assert json.loads(out)["executable"] is True


def test_simulate(capsys):
    code, out = run(capsys, "simulate", SCRIPT, ENV, "--affordances", AFF)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["transitions"]) == 5


def test_build_detect_evaluate_chain(capsys, tmp_path):
    code, out = run(capsys, "build-kg", SCRIPT, ENV, "--affordances", AFF)
    assert code == 0
    graph = tmp_path / "g.nt"
    graph.write_text(out)

    code, out = run(capsys, "stats", str(graph))
    assert code == 0
    assert json.loads(out)["triples"] > 500

    augmented = tmp_path / "with_risks.nt"
    code, out = run(capsys, "detect-risk", str(graph), "--augmented", str(augmented))
    assert code == 0
    findings = tmp_path / "f.json"
    findings.write_text(out)
    parsed = json.loads(out)
    assert len(parsed) == 1
    assert parsed[0]["rule"] == "R2"
    doc = parse_ntriples(graph.read_text())
    _, risk_doc = detect_risks(doc)
    assert augmented.read_text() == serialize_ntriples(
        KgDocument(triples=doc.triples | risk_doc.triples))

    gt = tmp_path / "gt.csv"
    gt.write_text("event_iri,risk_type\n"
                  f"{parsed[0]['event']},R2\n")
    code, out = run(capsys, "evaluate", str(graph), str(findings), str(gt))
    assert code == 0
    scores = json.loads(out)
    assert scores["precision"] == 1.0
    assert scores["recall"] == 1.0

    code, out = run(capsys, "explain", str(graph), str(findings),
                    parsed[0]["event"])
    assert code == 0
    assert out.startswith("R2:")


def test_explain_unknown_event(capsys, tmp_path):
    code, out = run(capsys, "build-kg", SCRIPT, ENV, "--affordances", AFF)
    graph = tmp_path / "g.nt"
    graph.write_text(out)
    code, out = run(capsys, "detect-risk", str(graph))
    findings = tmp_path / "f.json"
    findings.write_text(out)
    code, _ = run(capsys, "explain", str(graph), str(findings), "http://nope")
    assert code == 1


def test_embed_and_cluster(capsys, tmp_path):
    code, out = run(capsys, "build-kg", SCRIPT, ENV, "--affordances", AFF)
    graph = tmp_path / "g.nt"
    graph.write_text(out)
    code, out = run(capsys, "embed", str(graph), "--depth", "2", "--walks", "5",
                    "--dims", "8", "--epochs", "2")
    assert code == 0
    vectors = tmp_path / "v.tsv"
    vectors.write_text(out)
    code, out = run(capsys, "cluster", str(vectors), "-k", "3")
    assert code == 0
    assert all("," in line for line in out.splitlines())


@pytest.mark.parametrize("argv, message", [
    (("walks", "{graph}", "--depth", "0"), "depth must be >= 1"),
    (("embed", "{graph}", "--dims", "0"), "vector_size must be >= 1"),
    (("embed", "{graph}", "--epochs", "0"), "epochs must be >= 1"),
    (("cluster", "{vectors}", "-k", "0"), "k must be >= 1"),
    (("cluster", "{vectors}", "-k", "1", "--seed", "-1"), "seed must be >= 0"),
    (("embed", "{graph}", "--seed", "-1"), "seed must be >= 0"),
    (("pipeline", "--seed", "-1", "-o", "{graph}.out"), "seed must be >= 0")])
def test_out_of_range_flag_is_exit_1(capsys, caplog, tmp_path, argv, message):
    graph, vectors = tmp_path / "g.nt", tmp_path / "v.tsv"
    graph.write_text("<http://x/a> <http://x/p> <http://x/b> .\n", encoding="utf-8")
    vectors.write_text(export_vectors(EmbeddingModel(
        ["a", "b"], np.eye(2), np.zeros((2, 2)))), encoding="utf-8")
    code = main([arg.format(graph=graph, vectors=vectors) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "Traceback" not in captured.err
    assert message in caplog.text


def test_unknown_category_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", SCRIPT, "--category", "Nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'Nope'" in capsys.readouterr().err


def test_missing_file_is_exit_1(capsys):
    code, _ = run(capsys, "parse", "/nonexistent/script.txt")
    assert code == 1


def test_name_minting_invalid_iri_is_exit_1(capsys, tmp_path):
    env = json.loads(Path(ENV).read_text(encoding="utf-8"))
    next(n for n in env["nodes"] if not n.get("is_room")
         and not n.get("is_agent"))["class_name"] = "coffee table"
    bad_env = tmp_path / "environment.json"
    bad_env.write_text(json.dumps(env))
    code, out = run(capsys, "check", SCRIPT, str(bad_env))
    assert (code, out) == (1, "")
    code, out = run(capsys, "build-kg", SCRIPT, ENV, "--affordances", AFF,
                    "--scene", "a>b")
    assert (code, out) == (1, "")


def test_bad_state_token_is_exit_1(capsys, tmp_path):
    env = json.loads(Path(ENV).read_text(encoding="utf-8"))
    next(n for n in env["nodes"] if not n.get("is_room")
         and not n.get("is_agent")).setdefault("states", []).append("ON FIRE")
    bad_env = tmp_path / "environment.json"
    bad_env.write_text(json.dumps(env))
    code, out = run(capsys, "build-kg", SCRIPT, str(bad_env), "--format", "ttl")
    assert (code, out) == (1, "")


def _box(env):
    return next(n for n in env["nodes"] if n["id"] == 194)


#: Each edit makes the fixture environment malformed, with the text the
#: logged error must hold.
BAD_ENVIRONMENTS = {
    "nan-center": (lambda env: _box(env)["bounding_box"]["center"].__setitem__(
        0, float("nan")), "node 194: bbox center"),
    "infinite-size": (lambda env: _box(env)["bounding_box"]["size"].__setitem__(
        1, float("inf")), "node 194: bbox size"),
    "unknown-relation": (lambda env: env["edges"][0].update(relation_type="NEAR"),
                         "unknown relation"),
    "node-without-id": (lambda env: _box(env).pop("id"), "has no integer id"),
    "two-coordinate-center": (lambda env: _box(env)["bounding_box"]["center"].pop(),
                              "node 194: bbox center must be 3 finite numbers"),
    "negative-size": (lambda env: _box(env)["bounding_box"]["size"].__setitem__(0, -0.1),
                      "node 194: negative bbox size"),
    "string-coordinate": (lambda env: _box(env)["bounding_box"]["center"].__setitem__(
        2, "1.5"), "node 194: bbox center"),
}


@pytest.mark.parametrize("case", sorted(BAD_ENVIRONMENTS))
def test_malformed_environment_is_exit_1(capsys, caplog, tmp_path, case):
    edit, message = BAD_ENVIRONMENTS[case]
    env = json.loads(Path(ENV).read_text(encoding="utf-8"))
    edit(env)
    bad_env = tmp_path / "environment.json"
    bad_env.write_text(json.dumps(env), encoding="utf-8")
    out = tmp_path / "out"
    for argv in (["build-kg", SCRIPT, str(bad_env), "--affordances", AFF],
                 ["pipeline", "--scripts", str(fixture_path("scripts")),
                  "--environment", str(bad_env), "-o", str(out)]):
        caplog.clear()
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "Traceback" not in captured.err
        assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("row", ["mug", "mug,grab,high"])
def test_malformed_affordances_is_exit_1(capsys, caplog, tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"object_class,verb,s1\n{row}\n", encoding="utf-8")
    code, out = run(capsys, "check", SCRIPT, ENV, "--affordances", str(bad))
    assert (code, out) == (1, "")
    assert "affordance CSV line 2" in caplog.text


@pytest.mark.parametrize("flags, unset", [
    ((), "--scripts"),
    (("--scripts", str(fixture_path("scripts"))), "--environment")])
def test_pipeline_names_the_unset_flag(capsys, caplog, tmp_path, flags, unset):
    code, out = run(capsys, "pipeline", *flags, "-o", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert f"{unset} (config key" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ('{"walk": ', "not valid JSON"),
    ('{"walk": {"depht": 3}}', "walk: unknown key(s) depht"),
    ('{"seeed": 3}', "unknown key(s) seeed"),
    ('{"walk": {"depth": 0}}', "walk: depth must be >= 1"),
    ('{"walk": {"seed": 5}}', "walk: seed is not read here; set the top-level seed"),
    ('{"formats": 3}', "formats must be a list of strings, got 3"),
    ('{"formats": "nt"}', "formats must be a list of strings, got 'nt'"),
    ('{"formats": ["nt", "xml"]}', "unknown format(s) 'xml'; choose from nt, ttl"),
    ('["seed"]', "expected a JSON object"),
    ('{"duration": {"default_seconds": -1}}', "duration: default_seconds must be > 0"),
    ('{"duration": {"per_verb_seconds": {"grab": 0}}}',
     "duration: per_verb_seconds: grab must be > 0"),
    ('{"duration": {"per_verb_seconds": [1]}}',
     "duration: per_verb_seconds must be a JSON object"),
    ('{"duration": {"per_verb_seconds": {"grab": true}}}',
     "duration: per_verb_seconds: grab must be a number, got True"),
    ('{"duration": {"per_verb_seconds": {"grab": "x"}}}',
     "duration: per_verb_seconds: grab must be a number, got 'x'"),
    ('{"sim": {"walk_speed": 0}}', "sim: walk_speed must be > 0"),
    ('{"sim": {"walk_speed": NaN}}', "sim: walk_speed must be > 0"),
    ('{"mode": "fast"}', "unknown mode 'fast'; choose from strict, repair"),
    ('{"scene_id": "a b"}', "scene id 'a b' must match"),
    ('{"kmeans": {"max_iters": 0}}', "kmeans: max_iters must be >= 1"),
    ('{"skipgram": {"learning_rate": -1}}', "skipgram: learning_rate must be > 0"),
    ('{"skipgram": {"negative_samples": -2}}', "skipgram: negative_samples must be >= 0"),
    ('{"skipgram": {"epochs": 0}}', "skipgram: epochs must be >= 1"),
    ('{"seed": "x"}', "seed must be an integer, got 'x'"),
    ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
    ('{"seed": true}', "seed must be an integer, got True"),
    ('{"seed": -1}', "seed must be >= 0"),
    ('{"walk": {"depth": "4"}}', "walk: depth must be an integer, got '4'"),
    ('{"walk": {"exhaustive": "yes"}}', "walk: exhaustive must be true or false, got 'yes'"),
    ('{"walk": {"roots": 5}}', "walk: roots must be a list of strings, got 5"),
    ('{"walk": {"roots": ["a", 1]}}', "walk: roots must be a list of strings, got ['a', 1]"),
    ('{"walk": {"roots": []}}', "walk: roots must not be empty"),
    ('{"walk": {"skip_predicates": [[1]]}}',
     "walk: skip_predicates must be a list of strings, got [[1]]"),
    ('{"sim": {"walk_speed": true}}', "sim: walk_speed must be a number, got True"),
    ('{"mode": 1}', "mode must be a string, got 1")])
def test_bad_pipeline_config_is_exit_1(capsys, caplog, tmp_path, text, message):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    code = main(["pipeline", "--config", str(config), "-o", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "Traceback" not in captured.err
    assert message in caplog.text
    assert not (tmp_path / "out").exists()


def test_unreadable_pipeline_config_is_exit_1(capsys, caplog, tmp_path):
    code = main(["pipeline", "--config", str(tmp_path), "-o", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "Traceback" not in captured.err
    assert "Is a directory" in caplog.text
    assert not (tmp_path / "out").exists()


def test_bad_usage_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_pipeline_subcommand(capsys, tmp_path):
    code, out = run(capsys, "pipeline",
                    "--scripts", str(fixture_path("scripts")),
                    "--environment", ENV,
                    "--affordances", AFF,
                    "--ground-truth", GT,
                    "-o", str(tmp_path / "out"),
                    "--seed", "3")
    assert code == 0
    manifest = json.loads(out)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["evaluation"]["recall"] == 1.0
    assert (tmp_path / "out" / "corpus.nt").exists()
    assert (tmp_path / "out" / "vectors.tsv").exists()


def test_cluster_roots_keeps_only_activities(capsys, tmp_path):
    graph = tmp_path / "g.nt"
    for script in ("carry_box.txt", "read_book.txt"):
        code, out = run(capsys, "build-kg", str(fixture_path("scripts", script)),
                        ENV, "--affordances", AFF)
        assert code == 0
        with graph.open("a") as fh:
            fh.write(out)
    code, out = run(capsys, "embed", str(graph), "--depth", "2", "--walks", "5",
                    "--dims", "8", "--epochs", "2")
    vectors = tmp_path / "v.tsv"
    vectors.write_text(out)
    code, out = run(capsys, "cluster", str(vectors), "-k", "2",
                    "--roots", str(graph))
    assert code == 0
    tokens = sorted(line.split(",")[0] for line in out.splitlines())
    assert tokens == [EX + "carry_box0_scene1", EX + "read_book0_scene1"]


def test_cluster_roots_matches_the_pipelines_clusters(capsys, tmp_path):
    """Exhaustive walks give the activities different token counts, so
    vectors.tsv, sorted by count, lists them out of ``activity_roots``
    order; k-means++ seeds by row, so ``cluster --roots`` must take the
    pipeline's rows in the pipeline's order to write its clusters.csv."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"walk": {"exhaustive": True, "depth": 2},
                                  "skipgram": {"epochs": 1}}))
    out = tmp_path / "out"
    code, _ = run(capsys, "pipeline", "--scripts", str(fixture_path("scripts")),
                  "--environment", ENV, "--affordances", AFF, "--ground-truth", GT,
                  "--config", str(config), "-o", str(out), "--seed", "7")
    assert code == 0
    clusters = (out / "clusters.csv").read_text(encoding="utf-8")
    roots = [line.split(",")[0] for line in clusters.splitlines()]
    tokens = parse_vectors((out / "vectors.tsv").read_text(encoding="utf-8"))[0]
    in_vector_order = [t for t in tokens if t in roots]
    assert len(roots) == 20 and in_vector_order != roots  # the two orders differ
    code, text = run(capsys, "cluster", str(out / "vectors.tsv"), "-k", "10",
                     "--seed", "7", "--roots", str(out / "corpus.nt"))
    assert code == 0
    assert text == clusters


def test_cluster_reads_tokens_with_separators(capsys, tmp_path):
    """A tab in a script description reaches a walk token through the
    activity's rdfs:comment; vectors.tsv must still read back."""
    scripts = tmp_path / "scripts"
    shutil.copytree(fixture_path("scripts"), scripts)
    shutil.copy(fixture_path("scripts_meta.json"), tmp_path)
    script = scripts / "carry_box.txt"
    lines = script.read_text(encoding="utf-8").split("\n")
    lines[1] = "Tab\there"
    script.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    code, _ = run(capsys, "pipeline", "--scripts", str(scripts),
                  "--environment", ENV, "--affordances", AFF,
                  "-o", str(out), "--seed", "7")
    assert code == 0
    vectors = out / "vectors.tsv"
    assert "Tab\there" in parse_vectors(vectors.read_text(encoding="utf-8"))[0]
    code, _ = run(capsys, "cluster", str(vectors), "-k", "10", "--seed", "7")
    assert code == 0


def test_cluster_and_neighbors_keep_one_row_per_token(capsys, tmp_path):
    """Literal tokens hold CSV and TSV separators; each output row still
    reads back as one token."""
    tokens = [EX + "a", 'a, "quoted" token', "two\nlines", "tab\there",
              "back\\slash\r"]
    matrix = np.arange(1.0, 1.0 + 2 * len(tokens)).reshape(len(tokens), 2)
    vectors = tmp_path / "v.tsv"
    vectors.write_text(export_vectors(EmbeddingModel(tokens, matrix, matrix)),
                       encoding="utf-8")
    code, out = run(capsys, "cluster", str(vectors), "-k", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert all(len(row) == 2 for row in rows)
    assert [row[0] for row in rows] == tokens
    code, out = run(capsys, "neighbors", str(vectors), EX + "a", "-n", "10")
    assert code == 0
    lines = out.split("\n")
    assert lines.pop() == ""
    fields = [line.split("\t") for line in lines]
    assert all(len(f) == 2 for f in fields)
    assert sorted(_unescape_token(f[1], 0, MalformedVectors)
                  for f in fields) == sorted(tokens[1:])


def test_cluster_malformed_vectors_is_exit_1(capsys, tmp_path):
    vectors = tmp_path / "v.tsv"
    vectors.write_text("a\t1.0\t2.0\nb\t1.0\n", encoding="utf-8")
    assert run(capsys, "cluster", str(vectors), "-k", "1") == (1, "")
