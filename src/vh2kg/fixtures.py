"""Access to the bundled fixture corpus (scripts, environments, tables)."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .home import (EnvironmentGraph, filter_affordances, load_environment_file,
                   read_affordance_csv)
from .scripts import ActivityScript, parse_script


def fixture_path(*parts) -> Path:
    return Path(resources.files("vh2kg") / "fixtures").joinpath(*parts)


def load_fixture_environment(false_positive_geometry: bool = False) -> EnvironmentGraph:
    name = "environment_fp.json" if false_positive_geometry else "environment.json"
    return load_environment_file(fixture_path(name))


def load_scripts_dir(directory) -> list[ActivityScript]:
    """Parse every .txt script in a directory, applying category metadata
    from the sibling scripts_meta.json when present."""
    directory = Path(directory)
    meta_file = directory.parent / "scripts_meta.json"
    meta = {}
    if meta_file.exists():
        meta = json.loads(meta_file.read_text())
    out = []
    for path in sorted(directory.glob("*.txt")):
        entry = meta.get(path.name, {})
        out.append(parse_script(path.read_text(),
                                name=entry.get("name"),
                                category=entry.get("category", "Other")))
    return out


def load_fixture_scripts() -> list[ActivityScript]:
    return load_scripts_dir(fixture_path("scripts"))


def load_fixture_affordance_table():
    return filter_affordances(read_affordance_csv(fixture_path("affordances.csv")))


def load_fixture_ground_truth() -> dict[str, str]:
    from .analytics import read_ground_truth
    return read_ground_truth(fixture_path("ground_truth.csv"))


def schema_turtle() -> str:
    return fixture_path("schema.ttl").read_text()


def rule_query(rule_id: str) -> str:
    return fixture_path("queries", f"{rule_id.lower()}.rq").read_text()
