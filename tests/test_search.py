import json
import math
import os
import random
import time
from collections import Counter

import pytest

import oracles
import trideg.search as search
from conftest import all_graphs, random_graphs
from trideg.construction import CertificationError
from trideg.graph6 import decode
from trideg.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_counter,
    pair_list,
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


def test_is_triangle_distinct_basics(g7):
    assert is_triangle_distinct(g7.graph)
    assert not is_triangle_distinct(complete_graph(2))
    assert not is_triangle_distinct(complete_graph(1))  # needs two vertices
    assert not is_triangle_distinct(empty_graph(3))
    assert not is_triangle_distinct(cycle_graph(4))


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
        enumerate_td(7, max_edges=-1, workers=1, checkpoint_path=str(ckpt), chunk_limit=1)
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


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_td(1)
    with pytest.raises(ValueError):
        enumerate_td(10)
    with pytest.raises(ValueError):
        probe_regular(10)
    with pytest.raises(ValueError):
        enumerate_td(5, chunk_limit=1)  # checkpoint required to resume
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
    # and the checkpoint tracks the slices done and the classes found
    ckpt = str(tmp_path / "scan.ckpt")
    fresh = enumerate_td(7, workers=1, count_automorphisms=True)
    with pytest.raises(SearchInterrupted) as ei:
        enumerate_td(7, workers=1, checkpoint_path=ckpt, chunk_limit=1, count_automorphisms=True)
    first_cursor = ei.value.cursor
    assert 0 < first_cursor < ei.value.total == 32
    assert ei.value.checkpoint_path == ckpt
    assert (tmp_path / "scan.ckpt").exists()

    with pytest.raises(SearchInterrupted) as ei:
        enumerate_td(7, workers=2, checkpoint_path=ckpt, chunk_limit=20, count_automorphisms=True)
    assert ei.value.cursor == first_cursor + 20  # resumed, not restarted
    body = open(ckpt).read().split("classes:\n")[1]
    assert [canonical_form(decode(line.split()[0])) for line in body.splitlines()] == ["FBnnw"]

    resumed = enumerate_td(7, workers=1, checkpoint_path=ckpt, count_automorphisms=True)
    assert report_text(resumed) == report_text(fresh)
    assert not (tmp_path / "scan.ckpt").exists()  # removed after success


def test_checkpoint_rejects_mismatched_config(tmp_path):
    ckpt = str(tmp_path / "scan.ckpt")
    with pytest.raises(SearchInterrupted):
        enumerate_td(7, max_edges=0, workers=1, checkpoint_path=ckpt, chunk_limit=1)
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

# OEIS A000088: graphs of order 1..7 up to isomorphism
A000088 = (1, 2, 4, 11, 34, 156, 1044)


@pytest.fixture(scope="module")
def unpruned_levels():
    """Levels 1..7, every graph of each order, built once for this module."""
    return search._levels(8, None, None, map)


def test_levels_match_a000088(unpruned_levels):
    assert tuple(len(level) for level in unpruned_levels) == A000088
    for level in unpruned_levels:
        assert level == sorted(set(level))
        assert all(canonical_form(decode(text)) == text for text in level)


def test_levels_match_graph_atlas(unpruned_levels):
    nx = pytest.importorskip("networkx")
    by_order = {}
    for g in nx.graph_atlas_g()[1:]:
        rows = [0] * g.number_of_nodes()
        for a, b in g.edges():
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        by_order.setdefault(len(rows), set()).add(canonical_form(Graph(len(rows), rows)))
    assert [set(level) for level in unpruned_levels] == [by_order[k] for k in range(1, 8)]


def _hit_classes(hits, n):
    return Counter(search._class_key(Graph(n, rows)) for rows in hits)


def test_pruned_levels_give_the_same_classes(unpruned_levels):
    # extending the pruned level n - 1 finds exactly the hits, class by class
    # and with multiplicity, that extending every graph of order n - 1 finds
    for n in range(2, 8):
        nbits = n * (n - 1) // 2
        configs = [(None, e) for e in range(0, nbits + 1, 1 if n < 7 else 3)]
        configs += [(d, None) for d in range(n)] + [(d, n * d // 2) for d in range(n)]
        for d, e in configs:
            pruned = search._levels(n, d, e, map)
            assert all(search._admits(decode(t), n, d, e) for level in pruned for t in level)
            assert set(pruned[-1]) <= set(unpruned_levels[n - 2])
            got = _hit_classes(search._extend_slice((pruned[-1], n, d, e)), n)
            want = _hit_classes(search._extend_slice((unpruned_levels[n - 2], n, d, e)), n)
            assert got == want, (n, d, e)
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


@pytest.mark.long
@pytest.mark.skipif(not os.environ.get("TRIDEG_LONG_TESTS"), reason="set TRIDEG_LONG_TESTS=1 to run")
def test_enumerate_order_9():
    rep = enumerate_td(9)
    assert len(rep.td_classes) == 924
    assert rep.min_edges == 17
    assert rep.td_labeled == 924 * math.factorial(9)


def test_non_distinct_hit_fails_certification(monkeypatch):
    def empty_hit(args):
        parents, n, _, _ = args
        return [(0,) * n] if parents else []

    monkeypatch.setattr(search, "_extend_slice", empty_hit)
    with pytest.raises(CertificationError, match="not triangle-distinct"):
        enumerate_td(5, workers=1)


def test_missing_labelings_fail_certification(monkeypatch):
    # dropping one genuine hit leaves its class short of sum_v |Aut(G - v)|
    real = search._extend_slice
    dropped = []

    def drop_first(args):
        hits = real(args)
        if hits and not dropped:
            dropped.append(hits.pop())
        return hits

    monkeypatch.setattr(search, "_extend_slice", drop_first)
    with pytest.raises(CertificationError, match=r"sum_v \|Aut\(G - v\)\|"):
        enumerate_td(7, workers=1)
    assert dropped

