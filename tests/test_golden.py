"""Byte identity with history: a seeded fixture run must write the same
pure-Python artifacts as the commit that recorded the digests.

``golden/pipeline_seed7.sha256`` holds the SHA-256 of the 45 seed-7 fixture
artifacts that do not go through numpy (every per-activity ``.nt``/``.ttl``,
``corpus.nt``, ``corpus_with_risks.nt``, ``findings.json``, ``stats.json``
and ``walks.txt``), in ``sha256sum`` format, so CI can also check a CLI run
with ``sha256sum -c``.  ``report.json``, ``vectors.tsv`` and ``clusters.csv``
depend on floating-point training and are left out.
"""

import hashlib
from pathlib import Path

from vh2kg.fixtures import fixture_path
from vh2kg.pipeline import PipelineConfig, run_pipeline

GOLDEN = Path(__file__).parent / "golden" / "pipeline_seed7.sha256"


def read_golden():
    digests = {}
    for line in GOLDEN.read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def test_seed7_pipeline_matches_golden_digests(tmp_path):
    run_pipeline(PipelineConfig(
        seed=7, output_dir=str(tmp_path),
        scripts_dir=str(fixture_path("scripts")),
        environment_file=str(fixture_path("environment.json")),
        affordance_file=str(fixture_path("affordances.csv"))))
    golden = read_golden()
    assert len(golden) == 45
    written = {p.name for p in tmp_path.iterdir()}
    assert written - golden.keys() == {"report.json", "vectors.tsv",
                                       "clusters.csv"}
    actual = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in golden}
    assert actual == golden
