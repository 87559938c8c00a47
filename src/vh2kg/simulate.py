"""Symbolic executor for activity scripts over an environment graph.

Each verb has a precondition/effect entry: ``PRECONDITIONS`` names the verbs
that need their main object within reach and the affordance each needs,
``STATE_SWAPS`` the state flips, and ``execute_step`` holds the rest.
Execution threads an immutable state (graph snapshot, held objects, room,
facing) through the steps and records per-step transitions with durations and
changed-object sets; the agent's posture is one of its states.  No
rendering, no physics: coordinates move in straight horizontal lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import BadConfig, Unexecutable
from .home import (BoundingBox, EnvironmentGraph, ObjectNode, RelationEdge,
                   afforded_verbs, dump_environment)
from .scripts import ActivityScript, ObjectRef, Step

POSTURES = ("STANDING", "SITTING", "LYING")

MODES = ("strict", "repair")

REASONS = ("NotClose", "NoAffordance", "WrongState", "ObjectAbsent",
           "HandsFull", "NotHolding", "UnknownVerb")

#: Verbs that act on a main object within reach, each with the affordance
#: that object needs (None: reach alone).
PRECONDITIONS = {
    "grab": "grab", "switchOn": "switchOn", "switchOff": "switchOff",
    "open": "open", "close": "open", "sit": "sit", "lie": "lie",
    "touch": None, "watch": None, "lookAt": None, "turnTo": None,
}

#: The state a verb needs its main object in, and the state it leaves.
STATE_SWAPS = {"switchOn": ("OFF", "ON"), "switchOff": ("ON", "OFF"),
               "open": ("CLOSED", "OPEN"), "close": ("OPEN", "CLOSED")}


@dataclass(frozen=True)
class SimConfig:
    close_threshold: float = 1.5   # CLOSE iff center distance <= this (inclusive)
    interaction_offset: float = 0.5
    walk_speed: float = 1.0        # m/s
    hold_offset: float = 0.3
    min_walk_seconds: float = 0.1  # durations must stay strictly positive

    def __post_init__(self):
        if not self.walk_speed > 0:  # walk durations divide by it
            raise BadConfig("walk_speed must be > 0")


@dataclass(frozen=True)
class DurationModel:
    per_verb_seconds: dict = field(default_factory=dict)
    default_seconds: float = 2.0

    def __post_init__(self):
        if not self.default_seconds > 0:
            raise BadConfig("default_seconds must be > 0")
        for verb, value in self.per_verb_seconds.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise BadConfig(f"per_verb_seconds: {verb} must be a number, got {value!r}")
            if not value > 0:
                raise BadConfig(f"per_verb_seconds: {verb} must be > 0")

    def seconds_for(self, verb: str) -> float:
        return self.per_verb_seconds.get(verb, self.default_seconds)


@dataclass(frozen=True)
class ExecutabilityReport:
    executable: bool
    failing_step_index: int | None = None
    reason: str | None = None
    detail: str = ""


class StepFailure(Exception):
    def __init__(self, reason: str, detail: str = ""):
        assert reason in REASONS
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True)
class SimulationState:
    graph: EnvironmentGraph
    held: tuple = (("LH", None), ("RH", None))  # hand -> object id
    current_room_id: int | None = None
    facing: tuple[int, int] | None = None  # set by turnTo/lookAt/find only
    cfg: SimConfig = SimConfig()

    @property
    def posture(self) -> str:
        return _posture(self.graph.agent)

    @property
    def held_map(self) -> dict:
        return dict(self.held)

    def held_ids(self) -> set[int]:
        return {oid for _, oid in self.held if oid is not None}


@dataclass(frozen=True)
class TransitionRecord:
    step: Step
    duration_seconds: float
    changed_object_ids: frozenset[int]
    start_room_id: int
    end_room_id: int


@dataclass(frozen=True)
class Trace:
    script: ActivityScript
    situations: tuple[SimulationState, ...]
    transitions: tuple[TransitionRecord, ...]

    @property
    def total_seconds(self) -> float:
        return sum(t.duration_seconds for t in self.transitions)


def _room_of_point(env: EnvironmentGraph, x: float, z: float) -> ObjectNode | None:
    for room in env.rooms:
        cx, _, cz = room.bbox.center
        sx, _, sz = room.bbox.size
        if abs(x - cx) <= sx / 2 and abs(z - cz) <= sz / 2:
            return room
    return None


def recompute_relations(state: SimulationState) -> tuple[RelationEdge, ...]:
    """The relations of a situation, derived from its geometry on read.

    The edges come out as the stored ON edges, HOLDS per ``state.held``,
    FACING when the step that led here set one (turnTo/lookAt/find), CLOSE
    in node-pair order, then INSIDE in node order.  CLOSE pairs come from a
    sort-and-sweep on center x and are inclusive at
    ``state.cfg.close_threshold``; a held object is always CLOSE to the
    agent.  INSIDE follows the room whose floor area contains the node
    center.  No pipeline stage reads these; ``trace_to_json`` does."""
    env = state.graph
    agent = env.agent
    edges = list(env.edges)
    for hand, oid in state.held:
        if oid is not None:
            edges.append(RelationEdge(agent.id, f"HOLDS_{hand}", oid))
    if state.facing is not None:
        edges.append(RelationEdge(state.facing[0], "FACING", state.facing[1]))

    non_rooms = [n for n in env.nodes if not n.is_room]
    pos = {n.id: i for i, n in enumerate(non_rooms)}
    close = set(_sweep_close(non_rooms, state.cfg.close_threshold))
    for oid in state.held_ids() & pos.keys():  # a held room is CLOSE to nothing
        i, j = sorted((pos[agent.id], pos[oid]))
        close.add((i, j))
    edges.extend(RelationEdge(non_rooms[i].id, "CLOSE", non_rooms[j].id)
                 for i, j in sorted(close))
    for n in non_rooms:
        room = _room_of_point(env, n.bbox.center[0], n.bbox.center[2])
        if room is not None:
            edges.append(RelationEdge(n.id, "INSIDE", room.id))
    return tuple(edges)


def _agent_room(env: EnvironmentGraph, default: int | None) -> int | None:
    """Id of the room the agent stands in, or ``default`` outside every room."""
    room = _room_of_point(env, env.agent.bbox.center[0], env.agent.bbox.center[2])
    return room.id if room else default


def _sweep_close(nodes: list[ObjectNode], threshold: float) -> list[tuple[int, int]]:
    """Position pairs (i < j) of nodes whose centers lie within ``threshold``.

    Nodes are scanned in order of center x; the scan from a node stops at the
    first one more than ``threshold`` further along x, since center distance
    is never below |dx|."""
    order = sorted(range(len(nodes)), key=lambda i: nodes[i].bbox.center[0])
    boxes = [nodes[i].bbox for i in order]
    xs = [box.center[0] for box in boxes]
    pairs = []
    for k, a in enumerate(boxes):
        for m in range(k + 1, len(boxes)):
            if xs[m] - xs[k] > threshold:
                break
            if a.distance_to(boxes[m]) <= threshold:
                i, j = order[k], order[m]
                pairs.append((i, j) if i < j else (j, i))
    return pairs


def _posture(agent: ObjectNode) -> str:
    """The agent's first ``POSTURES`` token; an agent with none stands."""
    return next((p for p in POSTURES if p in agent.states), "STANDING")


def initial_state(env: EnvironmentGraph, cfg: SimConfig = SimConfig()) -> SimulationState:
    """The situation before a script's first step: the agent holds exactly
    one posture token, and the graph keeps only the ON edges."""
    agent = env.agent
    env = env.with_nodes({agent.id: replace(
        agent, states=(agent.states - set(POSTURES)) | {_posture(agent)})})
    env = env.with_edges(e for e in env.edges if e.relation == "ON")
    return SimulationState(graph=env, cfg=cfg, current_room_id=_agent_room(env, None))


def _require_close(state: SimulationState, obj: ObjectNode) -> None:
    """Raise NotClose unless the agent holds ``obj`` or is within reach of it."""
    if (obj.id not in state.held_ids()
            and state.graph.agent.bbox.distance_to(obj.bbox) > state.cfg.close_threshold):
        raise StepFailure("NotClose", f"agent not close to {obj.class_name}#{obj.id}")


def _resolve(state: SimulationState, ref: ObjectRef | None) -> ObjectNode:
    if ref is None:
        raise StepFailure("ObjectAbsent", "step names no object")
    try:
        node = state.graph.node(ref.id)
    except KeyError:
        raise StepFailure("ObjectAbsent", f"{ref.name}#{ref.id} not in environment") from None
    return node


def _move_agent(env: EnvironmentGraph, held: set[int], target: BoundingBox,
                cfg: SimConfig) -> tuple[dict[int, ObjectNode], float]:
    """The edits that move the agent toward the target center, stopping one
    interaction offset short, with held objects riding along; and the
    horizontal distance actually travelled."""
    agent = env.agent
    ax, ay, az = agent.bbox.center
    tx, _, tz = target.center
    dx, dz = tx - ax, tz - az
    dist = math.hypot(dx, dz)
    if dist > cfg.interaction_offset:
        travel = dist - cfg.interaction_offset
        nx = ax + dx / dist * travel
        nz = az + dz / dist * travel
    else:
        travel = 0.0
        nx, nz = ax, az
    moved = {agent.id: replace(agent, bbox=BoundingBox((nx, ay, nz), agent.bbox.size))}
    for oid in held:
        node = env.node(oid)
        moved[oid] = replace(node, bbox=BoundingBox(
            (nx + cfg.hold_offset, ay, nz), node.bbox.size))
    return moved, travel


def _swap_states(node: ObjectNode, remove, add) -> dict[int, ObjectNode]:
    """The edit that replaces ``node``'s states ``remove`` with ``add``."""
    return {node.id: replace(node, states=(node.states - set(remove)) | set(add))}


def execute_step(state: SimulationState, step: Step, dm: DurationModel = DurationModel(),
                 affordance_table=None) -> tuple[SimulationState, TransitionRecord]:
    """Apply one step; raises StepFailure when a precondition fails.

    ``state`` comes from ``initial_state`` or an earlier step, and its
    ``cfg`` sets the distances.  Its graph keeps only the ON edges, which
    grab and putBack edit; the step sets the agent's room and the FACING
    pair, and ``recompute_relations`` derives the other relations
    when they are read.  A verb's node edits are applied in one
    ``with_nodes`` call, and ``changed_object_ids`` names the edited nodes
    whose states or bbox differ from before the step."""
    verb = step.verb
    cfg, env = state.cfg, state.graph
    duration = dm.seconds_for(verb)
    edits = {}
    edges, held, facing = env.edges, state.held, None

    if verb in PRECONDITIONS:  # these verbs act on ``target`` below
        target = _resolve(state, step.main_object)
        _require_close(state, target)
        need = PRECONDITIONS[verb]
        if need is not None and need not in afforded_verbs(target, affordance_table):
            raise StepFailure("NoAffordance", f"{target.class_name} does not afford {need}")

    if verb == "walk":
        target = _resolve(state, step.main_object)
        edits, travelled = _move_agent(env, state.held_ids(), target.bbox, cfg)
        duration = max(travelled / cfg.walk_speed, cfg.min_walk_seconds)
    elif verb == "find":
        target = _resolve(state, step.main_object)
        room = _room_of_point(env, target.bbox.center[0], target.bbox.center[2])
        if room is None or room.id != state.current_room_id:
            raise StepFailure("NotClose", f"{target.class_name}#{target.id} is in another room")
        facing = (env.agent.id, target.id)
    elif verb == "grab":
        hands = state.held_map
        free = next((h for h in ("RH", "LH") if hands[h] is None), None)
        if free is None:
            raise StepFailure("HandsFull", "both hands occupied")
        hands[free] = target.id
        held = tuple(sorted(hands.items()))
        ax, ay, az = env.agent.bbox.center
        edits[target.id] = replace(
            target, bbox=BoundingBox((ax + cfg.hold_offset, ay, az), target.bbox.size))
        edges = tuple(e for e in edges if e.from_id != target.id)
    elif verb in STATE_SWAPS:
        frm, to = STATE_SWAPS[verb]
        if frm not in target.states:
            raise StepFailure("WrongState", f"{target.class_name} is not {frm}")
        edits = _swap_states(target, (frm,), (to,))
    elif verb in ("sit", "lie"):
        edits = _swap_states(env.agent, POSTURES,
                             ("SITTING" if verb == "sit" else "LYING",))
    elif verb == "standUp":
        if state.posture == "STANDING":
            raise StepFailure("WrongState", "agent is already standing")
        edits = _swap_states(env.agent, POSTURES, ("STANDING",))
    elif verb == "putBack":
        main = _resolve(state, step.main_object)
        target = _resolve(state, step.target_object)
        hands = state.held_map
        hand = next((h for h, oid in hands.items() if oid == main.id), None)
        if hand is None:
            raise StepFailure("NotHolding", f"agent is not holding {main.class_name}#{main.id}")
        _require_close(state, target)
        hands[hand] = None
        held = tuple(sorted(hands.items()))
        tx, _, tz = target.bbox.center
        edits[main.id] = replace(main, bbox=BoundingBox(
            (tx, target.bbox.top + main.bbox.size[1] / 2, tz), main.bbox.size))
        edges = (*edges, RelationEdge(main.id, "ON", target.id))
    elif verb in ("drink", "pour", "read"):
        main = _resolve(state, step.main_object)
        if main.id not in state.held_ids():
            raise StepFailure("NotHolding", f"agent is not holding {main.class_name}#{main.id}")
    elif verb in ("lookAt", "turnTo"):
        facing = (env.agent.id, target.id)
    elif verb not in PRECONDITIONS:  # touch and watch need reach and change nothing
        raise StepFailure("UnknownVerb", verb)

    changed = frozenset(i for i, new in edits.items()
                        if (old := env.node(i)).states != new.states or old.bbox != new.bbox)
    graph = env.with_nodes(edits) if edits else env
    if edges is not env.edges:
        graph = graph.with_edges(edges)
    after = replace(state, graph=graph, held=held, facing=facing,
                    current_room_id=_agent_room(graph, state.current_room_id))
    record = TransitionRecord(
        step=step,
        duration_seconds=duration,
        changed_object_ids=changed,
        start_room_id=state.current_room_id,
        end_room_id=after.current_room_id,
    )
    return after, record


def run_script(script: ActivityScript, env: EnvironmentGraph,
               dm: DurationModel = DurationModel(), mode: str = "strict",
               cfg: SimConfig = SimConfig(), affordance_table=None) -> Trace:
    """Execute a script in one pass.  Strict mode raises Unexecutable at the
    first failing step.  Repair mode answers a step failing with NotClose by
    a walk to its main object, then retries that step once; the trace's
    script holds the inserted walks, and a report's index counts them."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    start = env._initial_states.get(cfg)
    if start is None:
        start = env._initial_states[cfg] = initial_state(env, cfg)
    situations, transitions = [start], []

    def run(step):
        state, record = execute_step(situations[-1], step, dm, affordance_table)
        situations.append(state)
        transitions.append(record)

    try:
        for step in script.steps:
            try:
                run(step)
            except StepFailure as exc:
                if mode != "repair" or exc.reason != "NotClose":
                    raise
                run(Step("walk", step.main_object, inserted=True))
                run(step)
    except StepFailure as exc:
        raise Unexecutable(ExecutabilityReport(
            False, len(transitions), exc.reason, exc.detail)) from None
    return Trace(replace(script, steps=[t.step for t in transitions]),
                 tuple(situations), tuple(transitions))


def check_executable(script: ActivityScript, env: EnvironmentGraph,
                     affordance_table=None) -> ExecutabilityReport:
    """Whether ``script`` runs strictly at the default distances, and if
    not, the failing step and reason; durations never fail a step."""
    try:
        run_script(script, env, affordance_table=affordance_table)
    except Unexecutable as exc:
        return exc.report
    return ExecutabilityReport(True)


def trace_to_json(trace: Trace) -> dict:
    """Debug export: per-situation environment JSON plus a transitions array."""
    return {
        "activity": trace.script.name,
        "situations": [dump_environment(s.graph.with_edges(recompute_relations(s)))
                       for s in trace.situations],
        "transitions": [
            {
                "step_index": n,
                "verb": t.step.verb,
                "main_object": ([t.step.main_object.name, t.step.main_object.id]
                                if t.step.main_object else None),
                "target_object": ([t.step.target_object.name, t.step.target_object.id]
                                  if t.step.target_object else None),
                "inserted": t.step.inserted,
                "duration_seconds": t.duration_seconds,
                "changed_object_ids": sorted(t.changed_object_ids),
                "start_room_id": t.start_room_id,
                "end_room_id": t.end_room_id,
            }
            for n, t in enumerate(trace.transitions)
        ],
    }
