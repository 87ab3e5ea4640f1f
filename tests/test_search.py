import json
import math
import random

import pytest

import oracles
import trideg.search as search
from conftest import all_graphs, random_graphs
from trideg.construction import CertificationError
from trideg.graph6 import decode
from trideg.graphs import (
    complete_graph,
    counter_of_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    random_graph,
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
        enumerate_td(9)  # needs allow_slow
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
    # max_edges=0 keeps the triangle stage trivial; the scan still walks
    # all 2^21 counters in 32 chunks, which is what the checkpoint tracks
    ckpt = str(tmp_path / "scan.ckpt")
    fresh = enumerate_td(7, max_edges=0, workers=1)
    with pytest.raises(SearchInterrupted) as ei:
        enumerate_td(7, max_edges=0, workers=1, checkpoint_path=ckpt, chunk_limit=1)
    first_cursor = ei.value.cursor
    assert 0 < first_cursor < ei.value.total == 1 << 21
    assert ei.value.checkpoint_path == ckpt
    assert (tmp_path / "scan.ckpt").exists()

    with pytest.raises(SearchInterrupted) as ei:
        enumerate_td(7, max_edges=0, workers=1, checkpoint_path=ckpt, chunk_limit=2)
    assert ei.value.cursor > first_cursor  # resumed, not restarted

    resumed = enumerate_td(7, max_edges=0, workers=1, checkpoint_path=ckpt)
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


def _chunks(n):
    total = 1 << (n * (n - 1) // 2)
    chunk = min(search._chunk_size(n * (n - 1) // 2), total)
    return [(s, s + chunk) for s in range(0, total, chunk)]


def test_scan_matches_counter_oracle_small():
    # every chunk of orders 2..6: unfiltered, every edge cap, every regular
    # degree, and every regular degree with the caps either side of n*d/2
    for n in range(2, 7):
        nbits = n * (n - 1) // 2
        configs = [(None, None)]
        configs += [(None, e) for e in range(nbits + 1)]
        configs += [(d, None) for d in range(n)]
        configs += [(d, n * d // 2 + c) for d in range(n) for c in (-1, 0)]
        for d, e in configs:
            for start, end in _chunks(n):
                args = (n, start, end, d, e)
                assert search._scan_chunk(args) == oracles.scan_chunk_slow(args), args


def test_scan_matches_counter_oracle_sampled():
    rng = random.Random(2024)
    configs = [(7, None, None), (7, None, 9), (7, None, 15)]
    configs += [(7, d, None) for d in (2, 3, 4)]
    configs += [(8, None, None)] * 2
    hits = 0
    for n, d, e in configs:
        start, end = rng.choice(_chunks(n))
        args = (n, start, end, d, e)
        got = search._scan_chunk(args)
        assert got == oracles.scan_chunk_slow(args), args
        hits += len(got[2])
    assert hits  # the sample reaches chunks that hold witnesses


def test_scan_rejects_unaligned_range():
    for start, end in ((1, 1024), (0, 100), (8, 24)):
        with pytest.raises(ValueError, match="aligned"):
            search._scan_chunk((5, start, end, None, None))


def test_non_distinct_hit_fails_certification(monkeypatch):
    def empty_hit(args):
        _, start, end, _, _ = args
        return end - start, end - start, [start] if start == 0 else []

    monkeypatch.setattr(search, "_scan_chunk", empty_hit)
    with pytest.raises(CertificationError, match="not triangle-distinct"):
        enumerate_td(5, workers=1)


def test_missing_labelings_fail_certification(monkeypatch, g7):
    # one genuine witness labeling is a class with 1 of its 7! labelings
    x = counter_of_graph(g7.graph)

    def one_labeling(args):
        _, start, end, _, _ = args
        return end - start, end - start, [x] if start <= x < end else []

    monkeypatch.setattr(search, "_scan_chunk", one_labeling)
    with pytest.raises(CertificationError, match="7! = 5040 per class"):
        enumerate_td(7, workers=1)
