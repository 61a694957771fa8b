"""Boundary/closure, maximal cliques, components, separation."""

from itertools import combinations

import pytest

from posscheck import DisjointnessError, ModelFormatError, SchemaError, UndirectedGraph

from conftest import random_graph


def path_graph():
    return UndirectedGraph.from_edges([("U", "W"), ("W", "X"), ("X", "Y"), ("Y", "Z")])


def four_cycle():
    return UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z"), ("Z", "W"), ("W", "X")])


def brute_force_cliques(g):
    """Maximal complete subsets by subset enumeration."""
    vertices = list(g.vertices)
    complete = []
    for r in range(1, len(vertices) + 1):
        for sub in combinations(vertices, r):
            if all(b in g.neighbors(a) for a, b in combinations(sub, 2)):
                complete.append(set(sub))
    maximal = [
        tuple(sorted(s))
        for s in complete
        if not any(s < other for other in complete)
    ]
    return sorted(set(maximal))


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ModelFormatError):
            UndirectedGraph(["X"], [("X", "X")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(SchemaError):
            UndirectedGraph(["X"], [("X", "Y")])

    def test_from_edges_collects_vertices(self):
        g = UndirectedGraph.from_edges([("B", "A")], isolated=["C"])
        assert g.vertices == ("A", "B", "C")
        assert g.edges == frozenset({("A", "B")})


class TestBoundaryClosure:
    def test_path_boundary(self):
        g = path_graph()
        assert g.boundary({"X"}) == {"W", "Y"}

    def test_boundary_of_everything_is_empty(self):
        g = path_graph()
        assert g.boundary(set(g.vertices)) == set()

    def test_isolated_vertex_has_empty_boundary(self):
        g = UndirectedGraph.from_edges([("Y", "Z")], isolated=["X"])
        assert g.boundary({"X"}) == set()

    def test_path_closure(self):
        assert path_graph().closure({"X"}) == {"W", "X", "Y"}

    def test_empty_closure(self):
        assert path_graph().closure(set()) == set()

    def test_complete_graph_closure_is_everything(self):
        g = UndirectedGraph.from_edges(
            [("A", "B"), ("A", "C"), ("B", "C")]
        )
        assert g.closure({"A"}) == {"A", "B", "C"}

    def test_unknown_vertex_rejected(self):
        with pytest.raises(SchemaError):
            path_graph().boundary({"Q"})


class TestCliques:
    def test_four_cycle_has_edge_cliques(self):
        assert four_cycle().cliques() == [
            ("W", "X"), ("W", "Z"), ("X", "Y"), ("Y", "Z"),
        ]

    def test_triangle_is_one_clique(self):
        g = UndirectedGraph.from_edges([("A", "B"), ("B", "C"), ("A", "C")])
        assert g.cliques() == [("A", "B", "C")]

    def test_edgeless_graph_gives_singletons(self):
        g = UndirectedGraph(["A", "B", "C"])
        assert g.cliques() == [("A",), ("B",), ("C",)]

    def test_agrees_with_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            g = random_graph(rng, [f"V{i}" for i in range(n)])
            assert g.cliques() == brute_force_cliques(g)

    def test_cliques_cover_vertices(self, rng):
        for _ in range(20):
            g = random_graph(rng, ["A", "B", "C", "D", "E"])
            covered = {v for c in g.cliques() for v in c}
            assert covered == set(g.vertices)


class TestComponents:
    def test_path_split_by_middle(self):
        comps = path_graph().components({"X"})
        assert comps == [("U", "W"), ("Y", "Z")]

    def test_connected_graph_is_one_component(self):
        assert path_graph().components() == [("U", "W", "X", "Y", "Z")]

    def test_removing_everything_leaves_nothing(self):
        assert path_graph().components(set(path_graph().vertices)) == []

    def test_partition(self, rng):
        for _ in range(20):
            g = random_graph(rng, ["A", "B", "C", "D", "E"])
            removed = {"A"}
            comps = g.components(removed)
            seen = [v for c in comps for v in c]
            assert sorted(seen) == sorted(set(g.vertices) - removed)
            assert len(seen) == len(set(seen))


class TestSeparates:
    def test_path_middle_separates_ends(self):
        g = path_graph()
        assert g.separates({"X"}, {"U", "W"}, {"Y", "Z"})

    def test_adjacent_pair_not_separated_by_empty(self):
        g = path_graph()
        assert not g.separates(set(), {"U"}, {"W"})

    def test_everything_else_separates_nonadjacent(self):
        g = path_graph()
        assert g.separates({"W", "X", "Y"}, {"U"}, {"Z"})

    def test_symmetric_and_monotone(self, rng):
        for _ in range(30):
            g = random_graph(rng, ["A", "B", "C", "D", "E"])
            assert g.separates({"C"}, {"A"}, {"B"}) == g.separates({"C"}, {"B"}, {"A"})
            if g.separates({"C"}, {"A"}, {"B"}):
                assert g.separates({"C", "D"}, {"A"}, {"B"})

    def test_disjointness_enforced(self):
        g = path_graph()
        with pytest.raises(DisjointnessError):
            g.separates({"X"}, {"X"}, {"Z"})
        with pytest.raises(DisjointnessError):
            g.separates(set(), set(), {"Z"})


class TestAgainstNetworkx:
    """networkx as the oracle for cliques, components and separation on
    random graphs with up to nine vertices and edge densities 0.1..0.9."""

    @pytest.fixture
    def graphs(self, rng):
        nx = pytest.importorskip("networkx")
        pairs = []
        for _ in range(80):
            names = [f"V{i}" for i in range(int(rng.integers(1, 10)))]
            density = rng.uniform(0.1, 0.9)
            edges = [(a, b) for a, b in combinations(names, 2) if rng.random() < density]
            oracle = nx.Graph(edges)
            oracle.add_nodes_from(names)
            pairs.append((UndirectedGraph(names, edges), oracle))
        return nx, pairs

    def test_cliques(self, graphs):
        nx, pairs = graphs
        for g, oracle in pairs:
            assert g.cliques() == sorted(tuple(sorted(c)) for c in nx.find_cliques(oracle))

    def test_components_after_removal(self, graphs, rng):
        nx, pairs = graphs
        for g, oracle in pairs:
            for _ in range(5):
                removed = [v for v in g.vertices if rng.random() < 0.3]
                rest = oracle.subgraph(v for v in g.vertices if v not in removed)
                expected = sorted(tuple(sorted(c)) for c in nx.connected_components(rest))
                assert g.components(removed) == expected

    def test_separates(self, graphs, rng):
        nx, pairs = graphs
        checked = set()
        for g, oracle in pairs:
            if len(g.vertices) < 2:
                continue
            for _ in range(10):
                roles = rng.integers(0, 4, len(g.vertices))
                roles[rng.choice(len(roles), 2, replace=False)] = (0, 1)
                a, b, s = ([v for v, r in zip(g.vertices, roles) if r == k] for k in range(3))
                rest = oracle.subgraph(v for v in g.vertices if v not in s)
                expected = not any(nx.has_path(rest, x, y) for x in a for y in b)
                assert g.separates(s, a, b) == expected
                checked.add(expected)
        assert checked == {True, False}


class TestSerialization:
    def test_round_trip(self):
        g = UndirectedGraph.from_edges([("Y", "Z")], isolated=["X"])
        doc = g.to_json_dict()
        assert doc == {"edges": [["Y", "Z"]], "isolated": ["X"]}
        g2 = UndirectedGraph.from_json_dict(doc)
        assert g2.vertices == g.vertices and g2.edges == g.edges

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ModelFormatError):
            UndirectedGraph.from_json_dict({"edges": [["A", "B", "C"]]})
