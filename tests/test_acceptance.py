"""Acceptance gate: one test per release criterion, run in order.

Each test prints a single "criterion N PASS" line with its runtime; a
missed budget or a wrong value fails the test, so the pytest -v listing
doubles as the pass/fail sheet.  Expensive artifacts (the constructed
family, the order-7 enumeration) are cached at module level because two
criteria share them.  The last tests pin the bytes of every JSON report
(construct, check, search, verify, compose), and check that writing the
check report to a file costs no memory that grows with the report.
"""

import hashlib
import json
import math
import random
import time
import tracemalloc

from trideg import cli
from trideg.bounds import check_all
from trideg.construction import base_g7, construct
from trideg.graph6 import decode, encode
from trideg.graphs import (
    cycle_graph,
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
# sha256 of construct(7..200) in graph6, one line each, and of the file
# `trideg check --in THAT --bounds all --json FILE` writes
FAMILY_G6_SHA256 = "46ae67c13832492f82993960abf050db88bf60aeb05eac2db734d423d4cb5f54"
CHECK_JSON_SHA256 = "0cae759742621b7dba553de8e55c6f6c322697e97de8a6803ef59622c9c465c1"
# sha256 of `trideg search --n 8 --workers 1 --automorphisms --quiet` stdout
SEARCH_8_SHA256 = "5db99b78e7a7213cf0a32853e9c884926a23daf0af2d00606ebc4b18a3ab63a1"
# sha256 of the file `trideg compose --json FILE` writes for the seed graph and C4
COMPOSE_JSON_SHA256 = "fd2e3cdcb07a0be45d12692f3e81647af8bcf71ad4f1f17aad1f06e7cd97c263"

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


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _family_file(tmp_path):
    path = tmp_path / "family.g6"
    path.write_text("".join(encode(gc.graph) + "\n" for gc in family().values()))
    assert _sha256(path.read_bytes()) == FAMILY_G6_SHA256
    return str(path)


def test_report_bytes_are_pinned(capsys, tmp_path):
    for n, digest in CONSTRUCT_JSON_SHA256.items():
        assert cli.main(["construct", "--n", str(n), "--emit", "json"]) == 0
        out = capsys.readouterr().out
        assert _sha256(out.encode()) == digest, n
    path = tmp_path / "verify.json"
    assert cli.main(["verify", "--json", str(path)]) == 0
    assert _sha256(path.read_bytes()) == VERIFY_JSON_SHA256

    path = tmp_path / "check.json"
    argv = ["check", "--in", _family_file(tmp_path), "--bounds", "all", "--json", str(path)]
    assert cli.main(argv) == 0
    assert _sha256(path.read_bytes()) == CHECK_JSON_SHA256

    g, h = tmp_path / "g.g6", tmp_path / "h.g6"
    g.write_text(encode(base_g7().graph) + "\n")
    h.write_text(encode(cycle_graph(4)) + "\n")
    path = tmp_path / "compose.json"
    assert cli.main(["compose", "--g", str(g), "--h", str(h), "--json", str(path)]) == 0
    assert _sha256(path.read_bytes()) == COMPOSE_JSON_SHA256


def test_report_file_and_stdout_bytes_agree(capsys, tmp_path):
    """search and verify write the same report to a --json file as to
    stdout; verify's stdout then ends in its one summary line."""
    argv = ["search", "--n", "8", "--workers", "1", "--automorphisms", "--quiet"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert _sha256(text.encode()) == SEARCH_8_SHA256
    path = tmp_path / "search.json"
    assert cli.main(argv + ["--json", str(path)]) == 0
    assert path.read_text() == text
    capsys.readouterr()

    assert cli.main(["verify"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "verify.json"
    assert cli.main(["verify", "--json", str(path)]) == 0
    report = path.read_text()
    assert text.startswith(report)
    assert text[len(report) :] == capsys.readouterr().out
    assert text[len(report) :].startswith("checked ")


def test_check_json_file_costs_no_report_sized_memory(capsys, tmp_path, monkeypatch):
    """The --json file is streamed: writing it raises tracemalloc's peak by
    less than 1 MB over the same check without it (the report is 3.6 MB).
    The graphs are decoded and their bounds reports computed before tracing
    starts: traced, the per-bit decoder alone takes 12 s."""
    src = _family_file(tmp_path)
    graphs = {encode(gc.graph): gc.graph for gc in family().values()}
    reports = {gc.n: check_all(gc.graph) for gc in family().values()}
    monkeypatch.setattr(cli.graph6, "decode", graphs.__getitem__)
    monkeypatch.setattr(cli.bounds_mod, "check_all", lambda g, names: reports[g.n])
    peaks = []
    for extra in ([], ["--json", str(tmp_path / "check.json")]):
        tracemalloc.start()
        try:
            assert cli.main(["check", "--in", src, "--bounds", "all"] + extra) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
