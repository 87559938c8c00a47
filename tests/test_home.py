import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from vh2kg.errors import (DanglingEdge, DuplicateId, InvalidName,
                          MalformedAffordances, NoAgent, Orphan,
                          ScoreOutOfRange)
from vh2kg.home import (AffordanceRecord, BoundingBox, EnvironmentGraph,
                        ObjectNode, RelationEdge, afforded_verbs,
                        dump_environment, filter_affordances,
                        load_environment, read_affordance_csv)


def toy_document():
    return {
        "scene_id": "scene1",
        "nodes": [
            {"id": 1, "class_name": "kitchen", "is_room": True,
             "bounding_box": {"center": [0, 1.25, 0], "size": [10, 2.5, 10]}},
            {"id": 2, "class_name": "character", "is_agent": True,
             "states": ["STANDING"],
             "bounding_box": {"center": [1, 0.9, 1], "size": [0.4, 1.8, 0.3]}},
            {"id": 3, "class_name": "mug", "properties": ["GRABBABLE"],
             "bounding_box": {"center": [2, 0.9, 1], "size": [0.1, 0.1, 0.1]}},
        ],
        "edges": [
            {"from_id": 2, "relation_type": "INSIDE", "to_id": 1},
            {"from_id": 3, "relation_type": "INSIDE", "to_id": 1},
        ],
    }


def test_load_and_dump_round_trip():
    doc = toy_document()
    env = load_environment(doc)
    assert env.agent.id == 2
    assert env.node(3).class_name == "mug"
    assert load_environment(dump_environment(env)) == env


def test_graph_without_agent():
    env = load_environment(toy_document())
    env = replace(env, nodes=tuple(n for n in env.nodes if not n.is_agent))
    with pytest.raises(NoAgent):
        env.agent
    assert [r.id for r in env.rooms] == [1]


def test_duplicate_id():
    doc = toy_document()
    doc["nodes"].append(dict(doc["nodes"][2]))
    with pytest.raises(DuplicateId):
        load_environment(doc)


def test_dangling_edge():
    doc = toy_document()
    doc["edges"].append({"from_id": 3, "relation_type": "ON", "to_id": 99})
    with pytest.raises(DanglingEdge):
        load_environment(doc)


def test_no_agent():
    doc = toy_document()
    doc["nodes"][1]["is_agent"] = False
    doc["edges"] = [doc["edges"][1]]  # drop the agent INSIDE edge too
    with pytest.raises(NoAgent):
        load_environment(doc)


def test_orphan_node():
    doc = toy_document()
    doc["edges"] = doc["edges"][:1]  # mug no longer INSIDE any room
    with pytest.raises(Orphan):
        load_environment(doc)


@pytest.mark.parametrize("name", ["coffee table", "a>b"])
def test_class_name_outside_iri_alphabet(name):
    doc = toy_document()
    doc["nodes"][2]["class_name"] = name
    with pytest.raises(InvalidName):
        load_environment(doc)


@pytest.mark.parametrize("field, node, kind", [("states", 1, "state"),
                                               ("properties", 2, "property")])
@pytest.mark.parametrize("token", ["ON FIRE", "a>b", ""])
def test_token_outside_iri_alphabet(field, node, kind, token):
    """States and properties become ontology IRIs, so they are checked
    like class names."""
    doc = toy_document()
    doc["nodes"][node][field].append(token)
    with pytest.raises(InvalidName, match=f"^{kind} {token!r}"):
        load_environment(doc)


def test_affordance_verb_outside_iri_alphabet(tmp_path):
    path = tmp_path / "affordances.csv"
    path.write_text("object_class,verb,s1\nmug,grab,5\nmug,pick up,5\n",
                    encoding="utf-8")
    with pytest.raises(InvalidName, match="affordance verb 'pick up'"):
        read_affordance_csv(path)
    path.write_text("object_class,verb,s1\nmug,grab,5\n", encoding="utf-8")
    assert read_affordance_csv(path) == [AffordanceRecord("mug", "grab", (5.0,))]


@pytest.mark.parametrize("row, detail", [("mug", "expected at least 2"),
                                         ("mug,grab,high", "'high'")])
def test_malformed_affordance_row_names_its_line(tmp_path, row, detail):
    path = tmp_path / "affordances.csv"
    path.write_text(f"object_class,verb,s1\n# note\nmug,grab,5\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(MalformedAffordances, match=f"line 4: .*{detail}"):
        read_affordance_csv(path)


@pytest.mark.parametrize("center, size", [
    ((0.0, 1.0), (1.0, 1.0, 1.0)), ((0.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0))])
def test_bbox_needs_three_coordinates(center, size):
    with pytest.raises(ValueError, match="3 coordinates"):
        BoundingBox(center, size)


def test_bbox_top_and_distance():
    bb = BoundingBox((0.0, 1.0, 0.0), (2.0, 0.5, 2.0))
    assert bb.top == pytest.approx(1.25)
    other = BoundingBox((3.0, 1.0, 4.0), (1.0, 1.0, 1.0))
    assert bb.distance_to(other) == pytest.approx(5.0)


def assert_same_graph(derived, nodes, edges):
    """``derived`` reads like a graph built from scratch on ``nodes``."""
    fresh = EnvironmentGraph(derived.scene_id, tuple(nodes), tuple(edges))
    assert derived == fresh  # scene id, nodes and edges
    for n in fresh.nodes:
        assert derived.node(n.id) == fresh.node(n.id)
    assert derived.rooms == fresh.rooms
    try:
        agent = fresh.agent
    except NoAgent:
        with pytest.raises(NoAgent):
            derived.agent
    else:
        assert derived.agent == agent


def replaced(node, change, new_id):
    """``node`` with one field changed, chosen by ``change``."""
    if change == "id":
        return replace(node, id=new_id)
    if change == "is_room":
        return replace(node, is_room=not node.is_room)
    if change == "is_agent":
        return replace(node, is_agent=not node.is_agent)
    if change == "bbox":
        return replace(node, bbox=BoundingBox((float(new_id), 0.0, 0.0), (1.0, 1.0, 1.0)))
    return replace(node, states=node.states ^ {"OPEN"})


node_flags = st.tuples(st.booleans(), st.booleans())
edit = st.tuples(st.integers(0, 11),  # the id to replace; 10 and 11 start absent
                 st.sampled_from(["states", "states", "bbox", "id", "is_room",
                                  "is_agent"]),
                 st.integers(0, 11))


@settings(max_examples=150, deadline=None)
@given(flags=st.lists(node_flags, min_size=1, max_size=10),
       steps=st.lists(st.tuples(st.lists(edit, max_size=3), st.booleans()),
                      max_size=6))
def test_derived_graphs_match_a_fresh_build(flags, steps):
    nodes = [ObjectNode(i, "thing", is_room=room, is_agent=agent)
             for i, (room, agent) in enumerate(flags)]
    edges = [RelationEdge(0, "ON", n.id) for n in nodes[1:]]
    graph = EnvironmentGraph("scene1", tuple(nodes), tuple(edges))
    for edits, drop_edge in steps:
        replacements = {}
        for node_id, change, new_id in edits:
            current = next((n for n in nodes if n.id == node_id), None)
            replacements[node_id] = (ObjectNode(node_id, "ghost") if current is None
                                     else replaced(current, change, new_id))
        graph = graph.with_nodes(replacements)
        nodes = [replacements.get(n.id, n) for n in nodes]
        assert_same_graph(graph, nodes, edges)
        if drop_edge and edges:
            edges = edges[1:]
            graph = graph.with_edges(iter(edges))
            assert_same_graph(graph, nodes, edges)


def test_replacement_flipping_room_or_agent_reindexes():
    env = load_environment(toy_document())
    kitchen, agent, mug = env.nodes

    as_room = env.with_nodes({3: replace(mug, is_room=True)})
    assert [r.id for r in as_room.rooms] == [1, 3]
    no_agent = as_room.with_nodes({2: replace(agent, is_agent=False)})
    with pytest.raises(NoAgent):
        no_agent.agent
    new_agent = no_agent.with_nodes({3: replace(no_agent.node(3), is_agent=True)})
    assert new_agent.agent == new_agent.node(3) and new_agent.agent.is_room
    assert [r.id for r in new_agent.rooms] == [1, 3]
    back = new_agent.with_nodes({3: replace(new_agent.node(3), is_room=False)})
    assert back.rooms == (kitchen,) and back.agent.id == 3

    # a room edited in place stays a room, with its new value
    lit = env.with_nodes({1: replace(kitchen, states=frozenset({"ON"}))})
    assert lit.rooms == (lit.node(1),) and lit.node(1).states == {"ON"}
    assert env.rooms == (kitchen,)


def test_repeated_id_edits_every_copy():
    kitchen, _, mug = load_environment(toy_document()).nodes
    twins = EnvironmentGraph("scene1", (mug, kitchen, mug), ())
    edited = twins.with_nodes({3: replace(mug, states=frozenset({"OPEN"}))})
    assert [n.states for n in edited.nodes] == [{"OPEN"}, set(), {"OPEN"}]


def test_affordance_threshold_filtering():
    records = [
        AffordanceRecord("sofa", "sit", (5, 5, 4, 4, 5)),    # mean 4.6
        AffordanceRecord("sofa", "grab", (1, 2, 1, 1, 2)),   # mean 1.4
        AffordanceRecord("mug", "grab", (4, 4, 4, 4, 4)),    # mean 4.0 inclusive
    ]
    table = filter_affordances(records, threshold=4.0)
    assert table == {"sofa": frozenset({"sit"}), "mug": frozenset({"grab"})}


def test_affordance_score_bounds():
    bad = [AffordanceRecord("sofa", "sit", (5, 6, 4, 4, 5))]
    with pytest.raises(ScoreOutOfRange):
        filter_affordances(bad)


def test_afforded_verbs_union(base_env, affordance_table):
    sofa = next(n for n in base_env.nodes if n.class_name == "sofa")
    verbs = afforded_verbs(sofa, affordance_table)
    assert "sit" in verbs
    assert "grab" not in verbs  # crowdsourced score below threshold, no property
