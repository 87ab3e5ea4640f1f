"""Acceptance gate: one test per release criterion, run in order.

Each test prints a single "criterion N PASS" line with its runtime; a
missed budget or a wrong value fails the test, so the pytest -v listing
doubles as the pass/fail sheet.  Expensive artifacts (the constructed
family, the order-7 enumeration) are cached at module level because two
criteria share them.  A last test pins the bytes of the construct and
verify reports.
"""

import hashlib
import json
import math
import random
import time

from trideg import cli
from trideg.bounds import check_all
from trideg.construction import base_g7, construct
from trideg.graph6 import decode, encode
from trideg.graphs import (
    graph_from_counter,
    pair_list,
    random_graph,
    triangle_degrees,
)
from trideg.identities import check_composition, check_graph
from trideg.search import canonical_form, enumerate_td, probe_regular

SEED_TRI = (9, 7, 6, 5, 4, 3, 2)
SEED_DEG = (6, 5, 5, 4, 4, 3, 3)
# frozen on the first verified run of the order-7 enumeration
SEED_CANONICAL = "FBnnw"
# sha256 of the sorted-key JSON list of check_all reports over construct(7..200)
BOUNDS_FAMILY_SHA256 = "fc01d1c0c77677f9c9c7bace870e004e13936c86c2c2770fac8c8302a40174cd"
# sha256 of `trideg construct --n N --emit json` stdout, by N
CONSTRUCT_JSON_SHA256 = {
    7: "1078dca5783403e5f7468eae8840292b5feca41a9d2c2d5da52a5fd03773b496",
    8: "e1e251317c47a248fede8dd418b6e89b2b954c88702129b4164b6c1fe116d59a",
    200: "9860a41a186b3b66c076d92e6dd08d15dfe99f235272cba28c2f1335a9c9eb7f",
}
# sha256 of the file `trideg verify --json FILE` writes at default flags
VERIFY_JSON_SHA256 = "1bf23ea7daccbbca3ac48a99c1d923484bcc19f5f1a400b25f99cbfe4d685f03"

_cache = {}


def family():
    if "family" not in _cache:
        _cache["family"] = {n: construct(n) for n in range(7, 201)}
    return _cache["family"]


def order7_report():
    if "order7" not in _cache:
        _cache["order7"] = enumerate_td(7, count_automorphisms=True)
    return _cache["order7"]


def _passed(num, elapsed, budget, text):
    print("criterion %d PASS (%.2fs, budget %gs): %s" % (num, elapsed, budget, text))


def test_criterion_1_seed_graph_fixture():
    base_g7()  # warm imports before the timed pass
    elapsed = min(_timed(base_g7) for _ in range(5))
    gc = base_g7()
    assert gc.graph.n == 7
    assert gc.graph.m == 15
    assert gc.certificate.tri_by_rank == SEED_TRI
    assert gc.certificate.deg_by_rank == SEED_DEG
    assert gc.certificate.passed
    assert elapsed < 0.001
    _passed(1, elapsed, 0.001, "seed order-7 graph matches its fixture exactly")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_construction_family():
    t0 = time.perf_counter()
    built = {}
    for n in range(7, 201):
        built[n] = construct(n)
    for n, gc in built.items():
        tri = triangle_degrees(gc.graph)
        assert len(set(tri)) == n  # triangle-distinct by direct recount
        by_rank = tuple(tri[v] for v in gc.labels)
        assert all(by_rank[i] > by_rank[i + 1] for i in range(n - 1))
        degs = gc.graph.degrees()
        deg_rank = tuple(degs[v] for v in gc.labels)
        assert all(deg_rank[i] >= deg_rank[i + 1] for i in range(n - 1))
        assert gc.certificate.passed
        if n % 2:
            assert gc.graph.m == by_rank[0] + deg_rank[0]
            assert min(degs) != max(degs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _cache["family"] = built
    _passed(2, elapsed, 10, "orders 7..200 all certified triangle-distinct")


def test_criterion_3_identities_exhaustive_and_random():
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    for n in range(1, 7):
        pairs = pair_list(n)
        for x in range(1 << len(pairs)):
            for c in check_graph(graph_from_counter(n, x, pairs)):
                checked += 1
                if not c.holds:
                    failures += 1
    rng = random.Random(0)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 64), rng.uniform(0.1, 0.9))
        for c in check_graph(g):
            checked += 1
            if not c.holds:
                failures += 1
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert checked > 2 * 32768  # the order-6 block alone contributes this
    assert elapsed < 60.0
    _passed(3, elapsed, 60, "complement and decomposition identities, zero failures")


def test_criterion_4_composition_formula():
    t0 = time.perf_counter()
    rng = random.Random(0)
    failures = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5), rng.uniform(0.1, 0.9))
        h = random_graph(rng, rng.randint(1, 4), rng.uniform(0.1, 0.9))
        for c in check_composition(g, h):
            if not c.holds:
                failures += 1
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 10.0
    _passed(4, elapsed, 10, "composition formula on 200 seeded pairs")


def test_criterion_5_search_reproduction():
    t0 = time.perf_counter()
    for n in (4, 5, 6):
        assert enumerate_td(n).td_labeled == 0
    small_elapsed = time.perf_counter() - t0
    assert small_elapsed < 30.0

    t1 = time.perf_counter()
    rep = order7_report()
    big_elapsed = time.perf_counter() - t1
    assert big_elapsed < 900.0

    assert rep.td_classes
    seed_canon = canonical_form(base_g7().graph)
    assert seed_canon == SEED_CANONICAL
    assert any(entry.graph6 == seed_canon for entry in rep.td_classes)
    assert rep.min_edges == 15
    assert len(rep.td_classes) == 1
    assert rep.td_labeled == 5040 == math.factorial(7)
    only = rep.td_classes[0]
    assert only.edges == 15
    assert only.triangle_degrees == SEED_TRI
    assert only.aut_size == 1
    assert sum(e.labeled_count for e in rep.td_classes) == rep.td_labeled
    _passed(
        5,
        small_elapsed + big_elapsed,
        930,
        "no witnesses below order 7; order 7 has the single 15-edge class",
    )


def test_criterion_6_worker_determinism():
    t0 = time.perf_counter()
    texts = set()
    for w in (1, 2, 8):
        rep = enumerate_td(6, workers=w)
        texts.add(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True))
    elapsed = time.perf_counter() - t0
    assert len(texts) == 1
    _passed(6, elapsed, 30, "order-6 report byte-identical for 1, 2, 8 workers")


def test_criterion_7_bounds_sweep():
    t0 = time.perf_counter()
    graphs = [gc.graph for gc in family().values()]
    graphs.extend(decode(entry.graph6) for entry in order7_report().td_classes)
    reports = [check_all(g) for g in graphs]
    for g, report in zip(graphs, reports):
        assert report.violations == (), (g.n, [e.name for e in report.violations])
    text = json.dumps([r.to_json_dict() for r in reports[: len(family())]], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BOUNDS_FAMILY_SHA256
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(
        7,
        elapsed,
        120,
        "all bounds hold on %d triangle-distinct graphs" % len(graphs),
    )


def test_criterion_8_regular_probe():
    t0 = time.perf_counter()
    rep = probe_regular(7)
    elapsed = time.perf_counter() - t0
    assert rep.regular_degrees == (4,)
    assert rep.candidates == 465
    assert rep.td_labeled == 0
    assert rep.td_classes == ()
    assert elapsed < 300.0
    _passed(8, elapsed, 300, "only degree 4 is feasible at order 7; no regular witness")


def test_criterion_9_graph6_round_trip():
    t0 = time.perf_counter()
    pairs = pair_list(5)
    for x in range(1 << 10):
        g = graph_from_counter(5, x, pairs)
        assert decode(encode(g)) == g
    rng = random.Random(0)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 64), rng.uniform(0.0, 1.0))
        assert decode(encode(g)) == g
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(9, elapsed, 5, "graph6 encode/decode identity on 2024 graphs")


def test_report_bytes_are_pinned(capsys, tmp_path):
    for n, digest in CONSTRUCT_JSON_SHA256.items():
        assert cli.main(["construct", "--n", str(n), "--emit", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n
    path = tmp_path / "verify.json"
    assert cli.main(["verify", "--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_JSON_SHA256
