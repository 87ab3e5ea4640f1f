import hashlib
import json
import math
import os
import random
import time
from collections import Counter
from functools import cache

import pytest

import oracles
import trideg.search as search
from conftest import all_graphs, random_graphs, stop_after
from trideg.bounds import NotTriangleDistinct, check_all
from trideg.construction import CertificationError
from trideg.graph6 import decode, encode
from trideg.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    graph_from_counter,
    pair_list,
    triangle_degrees,
)
from trideg.search import (
    SearchInterrupted,
    automorphism_count,
    canonical_form,
    default_workers,
    enumerate_td,
    is_triangle_distinct,
    probe_regular,
    regular_window_degrees,
)


def report_text(rep):
    return json.dumps(rep.to_json_dict(), indent=2, sort_keys=True)


def test_is_triangle_distinct_basics(g7, family40):
    assert is_triangle_distinct(g7.graph)
    check_all(g7.graph)
    search._class_key(g7.graph)
    # construct(8) plus an isolated vertex: the new vertex and the pendant,
    # the last two vertices, share triangle degree 0 and nothing else ties
    last_two_tie = Graph(9, family40[8].graph.rows + (0,))
    t = triangle_degrees(last_two_tie)
    assert t[7] == t[8] and len(set(t)) == 8
    for g in (
        empty_graph(0),  # needs two vertices
        complete_graph(1),
        complete_graph(2),
        empty_graph(2),
        empty_graph(3),
        cycle_graph(4),
        last_two_tie,
    ):
        assert not is_triangle_distinct(g)
        with pytest.raises(NotTriangleDistinct):
            check_all(g)
        with pytest.raises(CertificationError):
            search._class_key(g)


def test_enumerate_small_counts():
    rep = enumerate_td(2)
    assert rep.labeled_count == 2 and rep.td_labeled == 0
    rep = enumerate_td(4)
    assert rep.labeled_count == 64
    assert rep.candidates == 64
    assert rep.td_labeled == 0
    assert rep.td_classes == ()
    assert rep.min_edges is None


def test_max_edges_filter():
    rep = enumerate_td(4, max_edges=2)
    assert rep.candidates == sum(math.comb(6, i) for i in range(3))
    assert rep.labeled_count == 64
    assert rep.max_edges == 2


def test_negative_max_edges_rejected(tmp_path):
    # a checkpoint writes "no cap" as max_edges=-1, so a cap of -1 would
    # resume as an unfiltered scan
    ckpt = tmp_path / "ck"
    with pytest.raises(ValueError, match="max_edges"):
        enumerate_td(7, max_edges=-1, workers=1, checkpoint_path=str(ckpt))
    assert not ckpt.exists()


def test_is_triangle_distinct_matches_oracle(family40):
    def oracle(g):
        return g.n >= 2 and len(set(oracles.triangle_list_slow(g))) == g.n

    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    graphs += random_graphs(505, 300, 12)
    graphs += [gc.graph for gc in family40.values()]
    verdicts = [is_triangle_distinct(g) for g in graphs]
    assert verdicts == [oracle(g) for g in graphs]
    assert all(verdicts[-len(family40):])


def test_worker_count_does_not_change_report():
    texts = {report_text(enumerate_td(5, workers=w)) for w in (1, 2, 3)}
    assert len(texts) == 1


def test_regular_filter_matches_slow_count():
    rep = enumerate_td(5, regular_only=2)
    slow = sum(
        1 for g in all_graphs(5) if set(oracles.degree_list(g)) == {2}
    )
    assert rep.candidates == slow == 12  # labeled 5-cycles
    assert rep.td_labeled == 0


def test_probe_regular_window_and_counts():
    rep = probe_regular(6)
    assert rep.regular_degrees == (4,)
    assert rep.candidates == 15  # complements of the perfect matchings
    assert rep.td_labeled == 0
    empty = probe_regular(5)
    assert empty.regular_degrees == ()
    assert empty.labeled_count == 0 and empty.candidates == 0


def test_regular_window_degrees_values():
    assert regular_window_degrees(5) == ()
    assert regular_window_degrees(7) == (4,)
    assert regular_window_degrees(9) == (6,)
    # agrees with the plain arithmetic statement of the window
    for n in range(2, 40):
        expect = tuple(
            d
            for d in range(n)
            if d * d > 2 * n and 3 * (n - d) ** 2 >= 2 * n and (n * d) % 2 == 0
        )
        assert regular_window_degrees(n) == expect


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(77)
    for g in random_graphs(77, 20, 7, n_min=2):
        base = canonical_form(g)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(oracles.relabel(g, perm)) == base
        # the canonical string is a graph6 encoding of an isomorphic graph
        if g.n <= 5:
            assert oracles.isomorphic_slow(decode(base), g)


def test_canonical_partition_matches_bruteforce_order4():
    graphs = all_graphs(4)
    by_canon = {}
    for idx, g in enumerate(graphs):
        by_canon.setdefault(canonical_form(g), []).append(idx)
    fast = sorted(sorted(v) for v in by_canon.values())
    slow = sorted(sorted(c) for c in oracles.iso_partition_slow(graphs))
    assert fast == slow


def test_canonical_form_order_cap():
    with pytest.raises(ValueError):
        canonical_form(empty_graph(10))


def test_automorphism_count_matches_slow():
    for g in all_graphs(4):
        assert automorphism_count(g) == oracles.automorphism_count_slow(g)
    for g in random_graphs(88, 10, 6, n_min=2):
        assert automorphism_count(g) == oracles.automorphism_count_slow(g)
    assert automorphism_count(complete_graph(5)) == math.factorial(5)
    assert automorphism_count(cycle_graph(5)) == oracles.automorphism_count_slow(
        cycle_graph(5)
    )


# ---------------------------------------------------------------------------
# the labeler against the brute-force definition of the canonical string


def _graph(n, adjacent):
    return from_edges(n, [(i, j) for j in range(n) for i in range(j) if adjacent(i, j)])


# name -> (graph, |Aut|)
SYMMETRIC = {
    "C8": (cycle_graph(8), 16),
    "Q3": (_graph(8, lambda i, j: (i ^ j).bit_count() == 1), 48),
    "K4,4": (_graph(8, lambda i, j: i < 4 <= j), 1152),
    "2K4": (_graph(8, lambda i, j: i // 4 == j // 4), 1152),
    "4K2": (_graph(8, lambda i, j: i // 2 == j // 2), 384),
    "E9": (empty_graph(9), math.factorial(9)),
    "K9": (complete_graph(9), math.factorial(9)),
    "C9": (cycle_graph(9), 18),
    "Paley-9": (_graph(9, lambda i, j: i // 3 == j // 3 or i % 3 == j % 3), 72),
    "K3,3,3": (_graph(9, lambda i, j: i // 3 != j // 3), 1296),
    "3K3": (_graph(9, lambda i, j: i // 3 == j // 3), 1296),
    "K1,8": (_graph(9, lambda i, j: i == 0), math.factorial(8)),
}


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return oracles.relabel(g, perm)


def test_canonical_form_is_the_brute_force_string_through_order_7(unpruned_levels):
    # the levels hold every graph of orders 1..7 (A000088, the graph atlas)
    rng = random.Random(29)
    assert canonical_form(empty_graph(0)) == oracles.canonical_form_brute(empty_graph(0))
    for level in unpruned_levels[:7]:
        for text in level:
            g = _shuffled(decode(text), rng)
            assert canonical_form(g) == oracles.canonical_form_brute(g) == text


def test_canonical_form_is_the_brute_force_string_at_orders_8_and_9():
    inputs = random_graphs(29, 60, 9, n_min=8)  # G(n, p), p from 0.1 to 0.9
    inputs += [SYMMETRIC[name][0] for name in ("C8", "Q3", "K4,4", "2K4", "4K2")]
    for g in inputs:
        assert canonical_form(g) == oracles.canonical_form_brute(g), encode(g)


def test_automorphism_count_through_order_6_and_known_groups(unpruned_levels):
    rng = random.Random(30)
    for level in unpruned_levels[:6]:
        for text in level:
            g = _shuffled(decode(text), rng)
            assert automorphism_count(g) == oracles.automorphism_count_slow(g), text
    for name, (g, order) in SYMMETRIC.items():
        assert automorphism_count(_shuffled(g, rng)) == order, name


def test_symmetric_order_9_graphs_within_budget():
    for name in ("E9", "K9"):
        g, order = SYMMETRIC[name]
        t0 = time.perf_counter()
        text, count = canonical_form(g), automorphism_count(g)
        elapsed = time.perf_counter() - t0
        assert (text, count) == (encode(g), order)
        assert elapsed < 2.0
        print("%s PASS (%.3fs, budget 2s): %s, |Aut| = %d" % (name, elapsed, text, count))


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_td(1)
    with pytest.raises(ValueError):
        enumerate_td(10)
    with pytest.raises(ValueError):
        probe_regular(10)
    with pytest.raises(ValueError):
        enumerate_td(5, regular_only=5)
    with pytest.raises(ValueError):
        enumerate_td(5, regular_only=-1)


def test_default_workers_env(monkeypatch):
    monkeypatch.setenv("TRIDEG_WORKERS", "5")
    assert default_workers() == 5
    monkeypatch.setenv("TRIDEG_WORKERS", "0")
    with pytest.raises(ValueError):
        default_workers()
    monkeypatch.setenv("TRIDEG_WORKERS", "many")
    with pytest.raises(ValueError):
        default_workers()
    monkeypatch.delenv("TRIDEG_WORKERS")
    assert default_workers() >= 1


def test_checkpoint_interrupt_and_resume(tmp_path):
    # the order-7 extension runs in 32 slices of the 156 graphs of order 6,
    # and the checkpoint tracks the slices done and the classes found; an
    # interrupt during the scan writes it and raises SearchInterrupted
    fresh = enumerate_td(7, workers=1, count_automorphisms=True)
    for workers in (1, 2):
        ckpt = str(tmp_path / ("scan%d.ckpt" % workers))
        run = dict(workers=workers, checkpoint_path=ckpt, count_automorphisms=True)
        with pytest.raises(SearchInterrupted) as ei:
            enumerate_td(7, progress=stop_after(1), **run)
        assert ei.value.cursor == 1 and ei.value.total == 32
        assert ei.value.checkpoint_path == ckpt and "resume from " + ckpt in str(ei.value)
        assert os.path.exists(ckpt)

        with pytest.raises(SearchInterrupted) as ei:
            enumerate_td(7, progress=stop_after(20), **run)
        assert ei.value.cursor == 21  # resumed, not restarted
        *class_lines, checksum = open(ckpt).read().split("classes:\n")[1].splitlines()
        assert [canonical_form(decode(line)) for line in class_lines] == ["FBnnw"]
        assert checksum.startswith("crc32 ")

        resumed = enumerate_td(7, **run)
        assert report_text(resumed) == report_text(fresh)
        assert not os.path.exists(ckpt)  # removed after success


def test_checkpoint_rejects_mismatched_config(tmp_path):
    ckpt = str(tmp_path / "scan.ckpt")
    with pytest.raises(SearchInterrupted):
        enumerate_td(7, max_edges=0, workers=1, checkpoint_path=ckpt, progress=stop_after(1))
    with pytest.raises(ValueError):
        enumerate_td(7, max_edges=1, workers=1, checkpoint_path=ckpt)


def test_checkpoint_rejects_foreign_file(tmp_path):
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text("not a checkpoint\n")
    with pytest.raises(ValueError):
        enumerate_td(7, max_edges=0, workers=1, checkpoint_path=str(ckpt))


def test_search_interrupted_is_runtime_error():
    exc = SearchInterrupted("stopped", "/tmp/x", 5, 10)
    assert isinstance(exc, RuntimeError)
    assert exc.cursor == 5 and exc.total == 10


def test_scan_matches_counter_oracle_small():
    # the retired labeled scan against the one-counter-at-a-time loop: every
    # chunk of orders 2..6, unfiltered, every edge cap, every regular degree,
    # and every regular degree with the caps either side of n*d/2
    for n in range(2, 7):
        nbits = n * (n - 1) // 2
        configs = [(None, None)]
        configs += [(None, e) for e in range(nbits + 1)]
        configs += [(d, None) for d in range(n)]
        configs += [(d, n * d // 2 + c) for d in range(n) for c in (-1, 0)]
        for d, e in configs:
            for start, end in oracles.chunks(n):
                args = (n, start, end, d, e)
                assert oracles.scan_chunk(args) == oracles.scan_chunk_slow(args), args


def test_scan_matches_counter_oracle_sampled():
    rng = random.Random(2024)
    configs = [(7, None, None), (7, None, 9), (7, None, 15)]
    configs += [(7, d, None) for d in (2, 3, 4)]
    configs += [(8, None, None)] * 2
    hits = 0
    for n, d, e in configs:
        start, end = rng.choice(oracles.chunks(n))
        args = (n, start, end, d, e)
        got = oracles.scan_chunk(args)
        assert got == oracles.scan_chunk_slow(args), args
        hits += len(got[2])
    assert hits  # the sample reaches chunks that hold witnesses


def test_scan_rejects_unaligned_range():
    for start, end in ((1, 1024), (0, 100), (8, 24)):
        with pytest.raises(ValueError, match="aligned"):
            oracles.scan_chunk((5, start, end, None, None))


# ---------------------------------------------------------------------------
# the unlabeled extension engine

# OEIS A000088: graphs of order 1..9 up to isomorphism
A000088 = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


@pytest.fixture(scope="module")
def unpruned_levels():
    """Levels 1..8, every graph of each order, built once for this module."""
    return search._levels(9, None, None, map)


def test_levels_match_a000088(unpruned_levels):
    # distinct canonical strings are distinct classes, so a level of
    # A000088 strings holds every graph of its order
    assert tuple(len(level) for level in unpruned_levels) == A000088[:8]
    for level in unpruned_levels:
        assert level == sorted(set(level))
        assert all(canonical_form(decode(text)) == text for text in level)


def test_filtered_levels_match_unfiltered_levels(monkeypatch):
    # the level step labels only the children whose new vertex has the
    # largest (degree, triangle degree); building and labeling every child
    # gives the same levels, unpruned, at every degree of a regular scan
    # and under edge caps (unpruned level 8 is every graph of order 8 by
    # test_levels_match_a000088)
    configs = [(8, None, None)]
    configs += [(n, d, None) for n in (7, 8) for d in range(n)]
    configs += [(7, None, e) for e in range(0, 22, 3)] + [(8, None, e) for e in (4, 8, 12, 16, 20)]
    configs += [(8, d, 4 * d) for d in range(8)]
    filtered = {config: search._levels(*config, map) for config in configs}
    monkeypatch.setattr(search, "_grow_slice", oracles.grow_slice_all)
    for config, levels in filtered.items():
        assert [set(level) for level in levels] == [
            set(level) for level in search._levels(*config, map)
        ], config


def test_level_step_labels_only_children_with_the_new_vertex_on_top(monkeypatch, unpruned_levels):
    # the children the level step labels are exactly those in which the new
    # vertex's (degree, triangle degree), read off the child by the slow
    # oracles, is the largest; ties are labeled too
    labeled = []
    real = search.canonical_form
    monkeypatch.setattr(search, "canonical_form", lambda g: labeled.append(tuple(g.rows)) or real(g))
    want = []
    for level in unpruned_levels[:6]:
        search._grow_slice((level, 8, None, None))
        for text in level:
            h = decode(text)
            k = h.n
            for nbhd in range(1 << k):
                child = Graph(k + 1, [r | (nbhd >> v & 1) << k for v, r in enumerate(h.rows)] + [nbhd])
                pairs = list(zip(oracles.degree_list(child), oracles.triangle_list_slow(child)))
                if pairs[k] == max(pairs):
                    want.append(tuple(child.rows))
    assert labeled == want
    # level 8 labels 22,111 of the 133,632 children of level 7
    labeled.clear()
    assert len(search._grow_slice((unpruned_levels[6], 9, None, None))) == A000088[7]
    assert len(labeled) == 22111


@pytest.mark.long
@pytest.mark.skipif(not os.environ.get("TRIDEG_LONG_TESTS"), reason="set TRIDEG_LONG_TESTS=1 to run")
def test_level_9_matches_a000088():
    with search._runner(2) as run:
        levels = search._levels(10, None, None, run)
    assert tuple(len(level) for level in levels) == A000088


def test_levels_match_graph_atlas(unpruned_levels):
    nx = pytest.importorskip("networkx")
    by_order = {}
    for g in nx.graph_atlas_g()[1:]:
        rows = [0] * g.number_of_nodes()
        for a, b in g.edges():
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        by_order.setdefault(len(rows), set()).add(canonical_form(Graph(len(rows), rows)))
    assert [set(level) for level in unpruned_levels[:7]] == [by_order[k] for k in range(1, 8)]


def test_pruned_levels_give_the_same_classes(unpruned_levels):
    # extending the pruned level n - 1 finds exactly the classes, in the
    # same order, that extending every graph of order n - 1 finds
    for n in range(2, 8):
        nbits = n * (n - 1) // 2
        configs = [(None, e) for e in range(0, nbits + 1, 1 if n < 7 else 3)]
        configs += [(d, None) for d in range(n)] + [(d, n * d // 2) for d in range(n)]
        for d, e in configs:
            pruned = search._levels(n, d, e, map)
            assert all(search._admits(decode(t), n, d, e) for level in pruned for t in level)
            assert set(pruned[-1]) <= set(unpruned_levels[n - 2])
            got = search._extend_slice((pruned[-1], n, d, e))
            want = search._extend_slice((unpruned_levels[n - 2], n, d, e))
            assert [key for key, _ in got] == [key for key, _ in want], (n, d, e)
    # the order-7 probe's level 6 keeps 8 of the 156 graphs
    assert len(search._levels(7, 4, None, map)[-1]) == 8


def test_engine_matches_labeled_scan():
    # the classes the engine reports are exactly the classes of the labeled
    # scan's hits, each hit n! times there, at every config through order 6
    # and a few at order 7
    configs = [(n, None, None) for n in range(2, 8)] + [(7, None, 16), (7, 4, None)]
    configs += [(n, None, e) for n in range(2, 7) for e in range(n * (n - 1) // 2 + 1)]
    configs += [(n, d, None) for n in range(2, 7) for d in range(n)]
    found = 0
    for n, d, e in configs:
        pairs = pair_list(n)
        labeled = Counter()
        for start, end in oracles.chunks(n):
            for x in oracles.scan_chunk((n, start, end, d, e))[2]:
                labeled[search._class_key(graph_from_counter(n, x, pairs))] += 1
        assert set(labeled.values()) <= {math.factorial(n)}
        assert search._scan(n, regular_d=d, max_edges=e, workers=1).keys() == labeled.keys()
        found += len(labeled)
    assert found == 2  # the order-7 class, unfiltered and under the cap 16


def _top_deletion_matches_sum_v(monkeypatch, level, n, configs):
    """Scan each (regular degree, edge cap) of order n with the parents'
    automorphisms counted by brute force, so each class's hits from its
    parent are checked against that count, and compare the classes with
    those of the extension of level (every graph of order n - 1) by every
    G - v, filtered by the configuration."""
    monkeypatch.setattr(search, "automorphism_count", cache(oracles.automorphism_count_slow))
    every = [decode(text) for text in oracles.sum_v_classes(level, n)]
    for d, e in configs:
        want = {
            encode(g)
            for g in every
            if (e is None or len(oracles.edge_set(g)) <= e)
            and (d is None or set(oracles.degree_list(g)) == {d})
        }
        classes = search._scan(n, regular_d=d, max_edges=e, workers=1)
        assert {canonical_form(g) for g in classes.values()} == want, (n, d, e)


def test_top_deletion_matches_sum_v_oracle(monkeypatch, unpruned_levels):
    # every configuration through order 8: unpruned, each edge cap, each
    # regular degree (the probes' among them), each with the caps either
    # side of n*d/2
    for n in range(2, 9):
        nbits = n * (n - 1) // 2
        configs = [(None, None)] + [(None, e) for e in range(nbits + 1)] + [(d, None) for d in range(n)]
        configs += [(d, n * d // 2 + c) for d in range(n) for c in (-1, 0) if n * d // 2 + c >= 0]
        _top_deletion_matches_sum_v(monkeypatch, unpruned_levels[n - 2], n, configs)


@pytest.mark.long
@pytest.mark.skipif(not os.environ.get("TRIDEG_LONG_TESTS"), reason="set TRIDEG_LONG_TESTS=1 to run")
def test_top_deletion_matches_sum_v_oracle_at_order_9(monkeypatch, unpruned_levels):
    # unpruned, the smallest cap with classes, and the probe's one degree
    configs = [(None, None), (None, 17)] + [(d, None) for d in regular_window_degrees(9)]
    _top_deletion_matches_sum_v(monkeypatch, unpruned_levels[7], 9, configs)


def test_regular_count_matches_levels_and_labeled_scans():
    for n in range(2, 8):
        for d in range(n):
            # labeled d-regular graphs of order n, one per labeled H = G - 0
            # that has a d-regular extension
            level = search._levels(n, d, None, map)[-1]
            by_levels = 0
            for text in level:
                h = decode(text)
                if search._regular_nbhd([0] + [r << 1 for r in h.rows], d):
                    by_levels += math.factorial(n - 1) // automorphism_count(h)
            scan = oracles.scan_chunk_slow if n < 7 else oracles.scan_chunk
            by_scan = sum(scan((n, s, e, d, None))[1] for s, e in oracles.chunks(n))
            assert search._regular_count(n, d) == by_levels == by_scan, (n, d)
    assert search._regular_count(7, 4) == 465
    assert search._regular_count(9, 6) == 30016


def test_enumerate_order_8():
    t0 = time.perf_counter()
    rep = enumerate_td(8, workers=1)
    assert time.perf_counter() - t0 < 10.0
    assert len(rep.td_classes) == 31
    assert rep.td_labeled == 1_249_920 == 31 * math.factorial(8)
    assert rep.min_edges == 15
    assert rep.labeled_count == rep.candidates == 1 << 28


ORDER_9_SHA256 = "fb01416741efd6c0283cae3de43ac244e3dd87f2c93768e539dd9dc63cdfc814"


@pytest.mark.long
@pytest.mark.skipif(not os.environ.get("TRIDEG_LONG_TESTS"), reason="set TRIDEG_LONG_TESTS=1 to run")
def test_enumerate_order_9():
    rep = enumerate_td(9)
    assert len(rep.td_classes) == 924
    assert rep.min_edges == 17
    assert rep.td_labeled == 924 * math.factorial(9)
    # pinned from the report the brute-force canonical_form gave; same bytes
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ORDER_9_SHA256


def test_non_distinct_hit_fails_certification(monkeypatch):
    monkeypatch.setattr(search, "_extends_td", lambda rows, t_h, nbhd: True)
    with pytest.raises(CertificationError, match="not triangle-distinct"):
        enumerate_td(5, workers=1)


def test_missing_labelings_fail_certification(monkeypatch):
    # dropping the first N each parent would accept leaves the classes of
    # the five order-7 parents with two automorphisms one hit short of
    # |Aut(H)|; the other classes, hit once, are lost unseen
    real = search._extends_td
    dropped = set()

    def drop_first(rows, t_h, nbhd):
        if real(rows, t_h, nbhd):
            if tuple(rows) in dropped:
                return True
            dropped.add(tuple(rows))
        return False

    monkeypatch.setattr(search, "_extends_td", drop_first)
    for workers in (1, 2):
        dropped.clear()
        with pytest.raises(CertificationError, match=r"reached 1 times from its parent .*, not \|Aut\(H\)\| = 2"):
            enumerate_td(8, workers=workers)


def test_class_from_a_second_parent_fails_certification(monkeypatch):
    # with no condition on which vertex is 0, the order-7 class is found
    # from each of its seven G - v, which are pairwise non-isomorphic, and
    # |Aut(G - v)| times from each, so only the second parent is wrong
    monkeypatch.setattr(search, "_extends_td", oracles.extends_td)
    with pytest.raises(CertificationError, match="from a second parent"):
        enumerate_td(7, workers=1)

