import pickle
import random

import pytest

import oracles
from conftest import all_graphs, random_graphs
from trideg.construction import construct
from trideg.graphs import (
    Graph,
    complement,
    complete_graph,
    counter_of_graph,
    cut_edges,
    cycle_graph,
    degree,
    empty_graph,
    from_edges,
    graph_from_counter,
    induced,
    mask_members,
    mask_of,
    pair_list,
    path_graph,
    random_graph,
    triangle_degree,
    triangle_degrees,
)


def test_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self loop
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # bit outside 0..n-1
    with pytest.raises(ValueError):
        Graph(2, (0,))  # wrong row count
    with pytest.raises(ValueError):
        Graph(-1, ())


def test_immutable_value_semantics():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(AttributeError):
        del g.m
    h = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert g == h
    assert hash(g) == hash(h)
    assert g != complete_graph(4)
    assert pickle.loads(pickle.dumps(g)) == g


def test_edge_and_degree_counts_match_slow():
    for g in random_graphs(101, 30, 24):
        assert g.m == len(oracles.edge_set(g))
        slow = oracles.degree_list(g)
        assert list(g.degrees()) == slow
        for v in range(g.n):
            assert degree(g, v) == slow[v]


def test_triangle_degrees_match_slow_exhaustive_order4():
    for g in all_graphs(4):
        slow = oracles.triangle_list_slow(g)
        assert list(triangle_degrees(g)) == slow
        for v in range(4):
            assert triangle_degree(g, v) == slow[v]


def test_triangle_degrees_match_slow_random():
    for g in random_graphs(202, 25, 40):
        assert list(triangle_degrees(g)) == oracles.triangle_list_slow(g)


def test_complement():
    for g in random_graphs(303, 20, 20):
        gc = complement(g)
        assert complement(gc) == g
        assert oracles.edge_set(gc) == oracles.complement_edge_set(g)
        assert g.m + gc.m == g.n * (g.n - 1) // 2


def test_induced_matches_slow():
    rng = random.Random(404)
    for g in random_graphs(404, 20, 16):
        keep = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
        sub = induced(g, mask_of(keep))
        assert sub.n == len(keep)
        assert oracles.edge_set(sub) == oracles.induced_edge_set(g, keep)


def test_cut_edges_matches_slow():
    rng = random.Random(505)
    for g in random_graphs(505, 20, 16):
        verts = list(range(g.n))
        rng.shuffle(verts)
        split = rng.randint(0, g.n)
        side_a, side_b = verts[:split], verts[split:]
        got = cut_edges(g, mask_of(side_a), mask_of(side_b))
        assert got == oracles.cut_count_slow(g, side_a, side_b)
    with pytest.raises(ValueError):
        cut_edges(complete_graph(3), 0b011, 0b110)  # overlapping sides


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert mask_members(0b100101) == [0, 2, 5]
    rng = random.Random(606)
    for _ in range(50):
        m = rng.getrandbits(20)
        assert mask_of(mask_members(m)) == m


def test_pair_list_row_major():
    assert pair_list(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert pair_list(1) == []


def test_counter_bijection_order4():
    pairs = pair_list(4)
    for x in range(64):
        g = graph_from_counter(4, x, pairs)
        assert counter_of_graph(g) == x
        # bit i of the counter is exactly the presence of pairs[i]
        expect = {pairs[i] for i in range(6) if (x >> i) & 1}
        assert oracles.edge_set(g) == expect


def test_named_graphs():
    assert empty_graph(5).m == 0
    k6 = complete_graph(6)
    assert k6.m == 15
    assert set(triangle_degrees(k6)) == {10}  # C(5, 2)
    c5 = cycle_graph(5)
    assert c5.m == 5
    assert set(c5.degrees()) == {2}
    assert set(triangle_degrees(c5)) == {0}
    assert cycle_graph(3) == complete_graph(3)
    assert list(path_graph(4).degrees()) == [1, 2, 2, 1]
    assert path_graph(1).m == 0
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])
    # repeated edges collapse
    assert from_edges(3, [(0, 1), (1, 0), (0, 1)]).m == 1


def test_random_graph_deterministic():
    a = random_graph(random.Random(7), 12, 0.4)
    b = random_graph(random.Random(7), 12, 0.4)
    assert a == b
    assert random_graph(random.Random(1), 8, 0.0) == empty_graph(8)
    assert random_graph(random.Random(1), 8, 1.0) == complete_graph(8)


def test_triangle_degrees_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(404)
    graphs = [random_graph(rng, n, rng.uniform(0.1, 0.9)) for n in range(1, 65, 3)]
    graphs.append(random_graph(rng, 64, 0.5))
    graphs.append(construct(200).graph)
    for g in graphs:
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        tri = nx.triangles(h)
        assert triangle_degrees(g) == tuple(tri[v] for v in range(g.n))
