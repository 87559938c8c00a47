from dataclasses import replace

import pytest

from vh2kg.errors import Unexecutable
from vh2kg.fixtures import (load_fixture_affordance_table,
                            load_fixture_environment, load_fixture_ground_truth,
                            load_fixture_scripts)
from vh2kg.pipeline import simulate_corpus
from vh2kg.rdf import KgDocument
from vh2kg.simulate import run_script
from vh2kg.synth import build_activity_kg


@pytest.fixture(scope="session")
def base_env():
    return load_fixture_environment()


@pytest.fixture(scope="session")
def fp_env():
    return load_fixture_environment(false_positive_geometry=True)


@pytest.fixture(scope="session")
def scripts():
    return load_fixture_scripts()


@pytest.fixture(scope="session")
def affordance_table():
    return load_fixture_affordance_table()


@pytest.fixture(scope="session")
def ground_truth():
    return load_fixture_ground_truth()


@pytest.fixture(scope="session")
def base_runs(base_env, scripts, affordance_table):
    return simulate_corpus(scripts, base_env, affordance_table=affordance_table)


@pytest.fixture(scope="session")
def fp_runs(fp_env, scripts, affordance_table):
    return simulate_corpus(scripts, fp_env, affordance_table=affordance_table)


@pytest.fixture(scope="session")
def repair_traces(base_env, fp_env, scripts, affordance_table):
    """Each fixture script with its walk steps dropped, run in repair mode
    in both environments; the unexecutable copies are left out."""
    traces = []
    for env in (base_env, fp_env):
        for script in scripts:
            walkless = replace(script, steps=[s for s in script.steps
                                              if s.verb != "walk"])
            try:
                traces.append(run_script(walkless, env, mode="repair",
                                         affordance_table=affordance_table))
            except Unexecutable:
                pass
    return traces


@pytest.fixture(scope="session")
def base_doc(base_runs, affordance_table):
    doc = KgDocument()
    for trace, meta in base_runs:
        doc.update(build_activity_kg(trace, meta, affordance_table))
    return doc


@pytest.fixture(scope="session")
def fp_doc(fp_runs, affordance_table):
    doc = KgDocument()
    for trace, meta in fp_runs:
        doc.update(build_activity_kg(trace, meta, affordance_table))
    return doc


@pytest.fixture(scope="session")
def planted(base_runs, affordance_table):
    """The fixture corpus plus a twin (activity index 1) of every fourth
    activity, five twins in all; returns the graph and the (original, twin)
    metadata pairs."""
    doc = KgDocument()
    pairs = []
    for i, (trace, meta) in enumerate(base_runs):
        doc.update(build_activity_kg(trace, meta, affordance_table))
        if i % 4 == 0 and len(pairs) < 5:
            twin = replace(meta, index=1)
            doc.update(build_activity_kg(trace, twin, affordance_table))
            pairs.append((meta, twin))
    return doc, pairs
