"""Byte identity with history: seeded fixture runs and simulator traces must
write the same bytes as the commit that recorded the digests.

``golden/pipeline_seed7.sha256`` holds the SHA-256 of the 45 seed-7 fixture
artifacts that do not go through numpy (every per-activity ``.nt``/``.ttl``,
``corpus.nt``, ``corpus_with_risks.nt``, ``findings.json``, ``stats.json``
and ``walks.txt``), in ``sha256sum`` format, so CI can also check a CLI run
with ``sha256sum -c``.  ``report.json``, ``vectors.tsv`` and ``clusters.csv``
depend on floating-point training and are left out.

``golden/simulate_full.sha256`` holds the stdout of ``vh2kg simulate
--full`` with the fixture affordances: ``<script>.strict.json`` for every
fixture script, and ``<script>.repair.json`` for ``--repair`` over the
script with its ``[WALK]`` lines dropped.  Three such walkless scripts stay
unexecutable and have no digest.
"""

import hashlib
from pathlib import Path

from vh2kg.cli import main
from vh2kg.fixtures import fixture_path
from vh2kg.pipeline import PipelineConfig, run_pipeline

GOLDEN = Path(__file__).parent / "golden"
UNEXECUTABLE_WALKLESS = {"clean_desk", "prepare_breakfast", "wash_clothes"}


def read_golden(name):
    digests = {}
    for line in (GOLDEN / name).read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_seed7_pipeline_matches_golden_digests(tmp_path):
    run_pipeline(PipelineConfig(
        seed=7, output_dir=str(tmp_path),
        scripts_dir=str(fixture_path("scripts")),
        environment_file=str(fixture_path("environment.json")),
        affordance_file=str(fixture_path("affordances.csv"))))
    golden = read_golden("pipeline_seed7.sha256")
    assert len(golden) == 45
    written = {p.name for p in tmp_path.iterdir()}
    assert written - golden.keys() == {"report.json", "vectors.tsv",
                                       "clusters.csv"}
    actual = {name: sha256((tmp_path / name).read_bytes()) for name in golden}
    assert actual == golden


def test_simulate_full_matches_golden_digests(capsys, tmp_path):
    def simulate(script, *flags):
        code = main(["simulate", str(script), str(fixture_path("environment.json")),
                     "--affordances", str(fixture_path("affordances.csv")),
                     "--full", *flags])
        return code, capsys.readouterr().out

    actual = {}
    for script in sorted(fixture_path("scripts").glob("*.txt")):
        code, out = simulate(script)
        assert code == 0, script.name
        actual[f"{script.stem}.strict.json"] = sha256(out.encode())
        walkless = tmp_path / script.name
        walkless.write_bytes(b"".join(
            line for line in script.read_bytes().splitlines(keepends=True)
            if not line.startswith(b"[WALK]")))
        code, out = simulate(walkless, "--repair")
        if script.stem in UNEXECUTABLE_WALKLESS:
            assert (code, out) == (1, ""), script.name
        else:
            assert code == 0, script.name
            actual[f"{script.stem}.repair.json"] = sha256(out.encode())
    golden = read_golden("simulate_full.sha256")
    assert len(golden) == 37
    assert actual == golden
