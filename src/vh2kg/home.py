"""Home environment graph: objects, spatial relations, properties, affordances.

The environment is loaded from the JSON layout produced by household
simulators: nodes carry class names, states, properties and axis-aligned
bounding boxes (y vertical); edges carry qualitative spatial relations.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, replace

from .errors import (DanglingEdge, DuplicateId, InvalidName, MalformedAffordances,
                     MalformedEnvironment, NoAgent, Orphan, ScoreOutOfRange)

RELATIONS = frozenset({"INSIDE", "ON", "CLOSE", "FACING", "HOLDS_RH", "HOLDS_LH"})

# Property token -> the verbs it affords.  Every other token, unknown ones
# included, is a descriptive attribute (EATABLE, SURFACES, ...).
PROPERTY_VERBS: dict[str, tuple[str, ...]] = {
    "GRABBABLE": ("grab",),
    "HAS_SWITCH": ("switchOn", "switchOff"),
    "CAN_OPEN": ("open", "close"),
    "SITTABLE": ("sit",),
    "LIEABLE": ("lie",),
    "READABLE": ("read",),
    "DRINKABLE": ("drink",),
    "POURABLE": ("pour",),
}


_IRI_SAFE = re.compile(r"[A-Za-z0-9_]+")


def check_name(kind: str, name: str) -> str:
    """Return ``name`` if it can be spliced into an IRI local name as is;
    raise InvalidName otherwise."""
    if not isinstance(name, str) or not _IRI_SAFE.fullmatch(name):
        raise InvalidName(f"{kind} {name!r} must match [A-Za-z0-9_]+")
    return name


@dataclass(frozen=True)
class BoundingBox:
    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def __post_init__(self):
        if len(self.center) != 3 or len(self.size) != 3:
            raise ValueError(f"bbox center and size need 3 coordinates: {self}")
        if any(s < 0 for s in self.size):
            raise ValueError(f"negative bbox size: {self.size}")

    @property
    def top(self) -> float:
        return self.center[1] + self.size[1] / 2.0

    def distance_to(self, other: "BoundingBox") -> float:
        return math.dist(self.center, other.center)


@dataclass(frozen=True)
class ObjectNode:
    id: int
    class_name: str
    category: str = ""
    is_room: bool = False
    is_agent: bool = False
    states: frozenset[str] = frozenset()
    properties: frozenset[str] = frozenset()
    bbox: BoundingBox = BoundingBox((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    @property
    def height_meters(self) -> float:
        # Height is structurally tied to the bbox, never stored separately.
        return self.bbox.size[1]


@dataclass(frozen=True)
class RelationEdge:
    from_id: int
    relation: str
    to_id: int

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class EnvironmentGraph:
    """A scene snapshot.

    The constructor indexes the nodes once: an id -> position map, the
    agent's position and the room positions.  ``with_nodes`` and
    ``with_edges`` keep node order, so a graph derived by them shares that
    index and costs what the edit changes, not what the scene holds."""
    scene_id: str
    nodes: tuple[ObjectNode, ...]
    edges: tuple[RelationEdge, ...]

    def node(self, node_id: int) -> ObjectNode:
        return self.nodes[self._pos[node_id]]

    def __post_init__(self):
        nodes = self.nodes
        room_at = tuple(i for i, n in enumerate(nodes) if n.is_room)
        self.__dict__.update(
            _pos={n.id: i for i, n in enumerate(nodes)},
            _agent_at=next((i for i, n in enumerate(nodes) if n.is_agent), None),
            _room_at=room_at,
            _rooms=tuple(nodes[i] for i in room_at),
            # simulate.run_script's initial state per SimConfig: every
            # script over this scene starts from the same one.
            _initial_states={},
            # synth's node table per (scene id, affordance table)
            _node_tables={})

    def _derive(self, nodes, edges) -> "EnvironmentGraph":
        """A graph over ``nodes`` in this graph's node order, sharing its index."""
        graph = object.__new__(type(self))
        rooms = (self._rooms if nodes is self.nodes
                 else tuple(nodes[i] for i in self._room_at))
        graph.__dict__.update(self.__dict__, nodes=nodes, edges=edges,
                              _rooms=rooms, _initial_states={}, _node_tables={})
        return graph

    @property
    def agent(self) -> ObjectNode:
        if self._agent_at is None:
            raise NoAgent(f"scene {self.scene_id} has no agent node")
        return self.nodes[self._agent_at]

    @property
    def rooms(self) -> tuple[ObjectNode, ...]:
        return self._rooms

    def with_nodes(self, replacements: dict[int, ObjectNode]) -> "EnvironmentGraph":
        """This graph with the node of each id in ``replacements`` swapped
        for its value; an id not in the graph is ignored."""
        pos = self._pos
        nodes = list(self.nodes)
        # A repeated id, or a replacement that changes a node's id, agent
        # flag or room flag, changes the index: that graph is built afresh.
        rebuild = len(pos) != len(nodes)
        for node_id, new in replacements.items():
            i = pos.get(node_id)
            if i is None or rebuild:
                continue
            old = nodes[i]
            rebuild = (new.id, new.is_agent, new.is_room) != (old.id, old.is_agent, old.is_room)
            nodes[i] = new
        if rebuild:
            return replace(self, nodes=tuple(
                replacements.get(n.id, n) for n in self.nodes))
        return self._derive(tuple(nodes), self.edges)

    def with_edges(self, edges) -> "EnvironmentGraph":
        return self._derive(self.nodes, tuple(edges))


def _coordinates(node_id: int, bb: dict, key: str) -> tuple:
    values = bb.get(key)
    if (not isinstance(values, (list, tuple)) or len(values) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and math.isfinite(v) for v in values)):
        raise MalformedEnvironment(
            f"node {node_id}: bbox {key} must be 3 finite numbers, not {values!r}")
    if key == "size" and any(v < 0 for v in values):
        raise MalformedEnvironment(f"node {node_id}: negative bbox size {values!r}")
    return tuple(values)


def load_environment(document: dict) -> EnvironmentGraph:
    """Build a validated EnvironmentGraph from its JSON document.

    Class names, states and properties end up in IRIs, so each must pass
    ``check_name``.  A node without an integer id or a class name, a bbox
    whose center or size is not 3 finite numbers (sizes non-negative), and
    an edge without both ids or with an unknown relation raise
    MalformedEnvironment, naming the node or edge."""
    nodes = []
    seen = set()
    for position, nd in enumerate(document["nodes"]):
        if not isinstance(nd.get("id"), int) or isinstance(nd["id"], bool):
            raise MalformedEnvironment(
                f"node #{position} ({nd.get('class_name')}) has no integer id")
        if "class_name" not in nd:
            raise MalformedEnvironment(f"node {nd['id']} has no class_name")
        if nd["id"] in seen:
            raise DuplicateId(f"node id {nd['id']} appears twice")
        seen.add(nd["id"])
        bb = nd.get("bounding_box") or {"center": [0, 0, 0], "size": [0, 0, 0]}
        nodes.append(ObjectNode(
            id=nd["id"],
            class_name=check_name("class name", nd["class_name"]),
            category=nd.get("category", ""),
            is_room=bool(nd.get("is_room", False)),
            is_agent=bool(nd.get("is_agent", False)),
            states=frozenset(check_name("state", tok)
                             for tok in nd.get("states", [])),
            properties=frozenset(check_name("property", tok)
                                 for tok in nd.get("properties", [])),
            bbox=BoundingBox(_coordinates(nd["id"], bb, "center"),
                             _coordinates(nd["id"], bb, "size")),
        ))
    ids = {n.id for n in nodes}
    edges = []
    for ed in document["edges"]:
        if "from_id" not in ed or "to_id" not in ed:
            raise MalformedEnvironment(f"edge {ed!r} needs a from_id and a to_id")
        if ed.get("relation_type") not in RELATIONS:
            raise MalformedEnvironment(
                f"edge {ed!r}: unknown relation; choose from {', '.join(sorted(RELATIONS))}")
        if ed["from_id"] not in ids or ed["to_id"] not in ids:
            raise DanglingEdge(f"edge {ed} references a missing node")
        edges.append(RelationEdge(ed["from_id"], ed["relation_type"], ed["to_id"]))

    agents = [n for n in nodes if n.is_agent]
    if len(agents) != 1:
        raise NoAgent(f"expected exactly one agent node, found {len(agents)}")
    if agents[0].height_meters <= 0:
        raise NoAgent("agent must have a positive height")

    room_ids = {n.id for n in nodes if n.is_room}
    inside = {}
    for e in edges:
        if e.relation == "INSIDE" and e.to_id in room_ids:
            inside.setdefault(e.from_id, set()).add(e.to_id)
    for n in nodes:
        if n.is_room:
            continue
        if len(inside.get(n.id, ())) != 1:
            raise Orphan(f"node {n.class_name}#{n.id} must be INSIDE exactly one room")

    return EnvironmentGraph(document["scene_id"], tuple(nodes), tuple(edges))


def load_environment_file(path) -> EnvironmentGraph:
    with open(path, encoding="utf-8") as fh:
        return load_environment(json.load(fh))


def dump_environment(env: EnvironmentGraph) -> dict:
    """Inverse of load_environment (used for trace export and round-trips)."""
    return {
        "scene_id": env.scene_id,
        "nodes": [
            {
                "id": n.id,
                "class_name": n.class_name,
                "category": n.category,
                "is_room": n.is_room,
                "is_agent": n.is_agent,
                "states": sorted(n.states),
                "properties": sorted(n.properties),
                "bounding_box": {"center": list(n.bbox.center), "size": list(n.bbox.size)},
            }
            for n in env.nodes
        ],
        "edges": [
            {"from_id": e.from_id, "relation_type": e.relation, "to_id": e.to_id}
            for e in env.edges
        ],
    }


@dataclass(frozen=True)
class AffordanceRecord:
    object_class: str
    verb: str
    rater_scores: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.rater_scores) / len(self.rater_scores)


def read_affordance_csv(path) -> list[AffordanceRecord]:
    """Read `object_class,verb,s1,...` rows; fewer than 5 scores is tolerated.

    A verb becomes an action IRI, so it must pass ``check_name``; any other
    malformed row raises MalformedAffordances, naming its line."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#") or row[0] == "object_class":
                continue
            try:
                object_class, verb, *raw = row
                scores = tuple(float(v) for v in raw if v != "")
            except ValueError as exc:
                raise MalformedAffordances(
                    f"affordance CSV line {reader.line_num}: {exc}") from None
            records.append(AffordanceRecord(
                object_class, check_name("affordance verb", verb), scores))
    return records


def filter_affordances(records, threshold: float = 4.0) -> dict[str, frozenset[str]]:
    """Keep (class, verb) pairs whose mean rater score reaches the threshold."""
    if not 1.0 <= threshold <= 5.0:
        raise ScoreOutOfRange(f"threshold {threshold} outside [1.0, 5.0]")
    table: dict[str, set[str]] = {}
    for rec in records:
        if any(not 1.0 <= s <= 5.0 for s in rec.rater_scores):
            raise ScoreOutOfRange(f"scores out of [1.0, 5.0] for {rec.object_class}/{rec.verb}")
        if rec.mean >= threshold:
            table.setdefault(rec.object_class, set()).add(rec.verb)
    return {k: frozenset(v) for k, v in table.items()}


def afforded_verbs(node: ObjectNode, affordance_table=None) -> frozenset[str]:
    """Verbs the object affords: property-derived plus crowdsourced table entries."""
    verbs = [v for tok in node.properties for v in PROPERTY_VERBS.get(tok, ())]
    if affordance_table:
        verbs.extend(affordance_table.get(node.class_name, ()))
    return frozenset(verbs)
