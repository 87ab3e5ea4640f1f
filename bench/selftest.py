#!/usr/bin/env python3
"""Shows that every output check in checks.py catches a corrupted result.

    python3 bench/selftest.py

Run from the root of a trideg checkout.  It runs one pass of each workload
(about a minute in all), confirms that the checks accept the real outputs,
then corrupts one thing at a time (a class dropped from the search report,
a wrong candidate count, a relabeled graph given a different canonical
string, a bound reported violated, ...) and confirms that the checks reject
every corruption.  Exits 1 if a real output is rejected or a corruption
goes unnoticed.
"""

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import networkx as nx  # noqa: E402

import checks  # noqa: E402
import trideg  # noqa: E402
import trideg.cli  # noqa: E402,F401
import workloads as wl  # noqa: E402

RESULTS = []


def expect(name, fails, should_fail):
    ok = bool(fails) == should_fail
    RESULTS.append(ok)
    detail = (": " + fails[0]) if fails else ""
    print("%s %s%s" % ("ok  " if ok else "FAIL", name, detail[:160]), flush=True)


def corrupted(outputs, change):
    out = copy.deepcopy(outputs)
    change(out)
    return out


def g6(g):
    return nx.to_graph6_bytes(g, header=False).decode().strip()


def moved_edge(text, keep_td):
    """graph6 of a graph with one edge of `text` moved to a non-edge, chosen
    so the result is (keep_td=True) or is not (False) triangle-distinct and
    is not isomorphic to the original."""
    g = checks.from_graph6(text)
    for u, v in sorted(g.edges()):
        for a, b in sorted(nx.non_edges(g)):
            h = g.copy()
            h.remove_edge(u, v)
            h.add_edge(a, b)
            if checks.triangle_distinct(h) == keep_td and not nx.is_isomorphic(g, h):
                return g6(h)
    raise RuntimeError("no edge move found")


def scans(ctx):
    _, out = wl.search7_pass(trideg, {}, ctx, 0)
    good = [out, copy.deepcopy(out)]
    expect("search7: real outputs pass", checks.check_search7(good), False)
    rep = lambda o: o[1]["report"]  # noqa: E731
    witness = rep(good)["td_classes"][0]["graph6"]
    for name, change in [
        ("class dropped", lambda o: rep(o)["td_classes"].clear()),
        ("td_labeled off by one", lambda o: rep(o).update(td_labeled=5039)),
        ("wrong candidate count", lambda o: rep(o).update(candidates=(1 << 21) - 1)),
        ("wrong labeled_count", lambda o: rep(o).update(labeled_count=1 << 20)),
        ("witness swapped for a non-isomorphic graph",
         lambda o: rep(o)["td_classes"][0].update(graph6=moved_edge(witness, keep_td=False))),
        ("triangle degrees reordered", lambda o: rep(o)["td_classes"][0]["triangle_degrees"].reverse()),
        ("wrong min_edges", lambda o: rep(o).update(min_edges=14)),
        ("wrong automorphism count", lambda o: rep(o)["td_classes"][0].update(aut_size=2)),
        ("checkpoint left behind", lambda o: o[1].update(ckpt_left=True)),
        ("a chunk missing", lambda o: o[1].update(chunks=31)),
    ]:
        expect("search7: " + name, checks.check_search7(corrupted(good, change)), True)

    _, out = wl.regular7_pass(trideg, {}, ctx, 0)
    good = [out, copy.deepcopy(out)]
    expect("regular7: real outputs pass", checks.check_regular7(good), False)
    for name, change in [
        ("wrong candidate count", lambda o: rep(o).update(candidates=464)),
        ("wrong degree window", lambda o: rep(o).update(regular_degrees=[4, 6])),
        ("a hit reported", lambda o: rep(o).update(td_labeled=1)),
        ("wrong labeled_count", lambda o: rep(o).update(labeled_count=(1 << 21) - 1)),
    ]:
        expect("regular7: " + name, checks.check_regular7(corrupted(good, change)), True)


def family(ctx):
    _, out = wl.family_pass(trideg, {}, ctx, 0)
    good = [out]
    expect("family: real outputs pass", checks.check_family(good), False)
    text = out["graph6"]
    with open(out["json_path"]) as fh:
        report = json.load(fh)
    bad_report = copy.deepcopy(report)
    bad_report["graphs"][50]["bounds"]["violated"] = ["census_bound"]
    bad_path = os.path.join(ctx.workdir, "violated.json")
    with open(bad_path, "w") as fh:
        json.dump(bad_report, fh)
    n1000, rows1000, _ = out["large"][1000]
    lost_edge = list(rows1000)
    u = (lost_edge[0] & -lost_edge[0]).bit_length() - 1  # the first neighbour of vertex 0
    lost_edge[0] &= ~(1 << u)
    lost_edge[u] &= ~1
    for name, change in [
        ("check exits 4", lambda o: o[0].update(rc=4)),
        ("a member with an extra edge",
         lambda o: o[0]["graph6"].__setitem__(3, g6(nx.complete_graph(10)))),
        ("a member swapped for a non-triangle-distinct graph of the same size",
         lambda o: o[0]["graph6"].__setitem__(2, moved_edge(text[2], keep_td=False))),
        ("a bound reported violated", lambda o: o[0].update(json_path=bad_path)),
        ("a check line reporting a violation",
         lambda o: o[0]["lines"].__setitem__(9, "line 10: VIOLATION ['census_bound']")),
        ("construct(1000) missing an edge", lambda o: o[0]["large"].update({1000: (n1000, lost_edge, True)})),
        ("construct(1000) uncertified", lambda o: o[0]["large"].update({1000: (n1000, rows1000, False)})),
    ]:
        expect("family: " + name, checks.check_family(corrupted(good, change)), True)


def canon(ctx):
    inputs = wl.make_inputs("canon", 0, trideg, 2)
    good = [wl.canon_pass(trideg, inputs, ctx, p)[1] for p in range(2)]
    expect("canon: real outputs pass", checks.check_canon(inputs, good), False)
    labels = [label for label, _, _ in inputs["items"]]
    c8, q3 = labels.index("C8"), labels.index("Q3")
    _, n, rows = inputs["items"][c8]
    relabeled = g6(nx.relabel_nodes(checks.from_rows(n, rows), {v: (v + 3) % n for v in range(n)}))
    s = lambda o, p: o[p]["strings"]  # noqa: E731
    for name, change in [
        ("a relabeled graph given a different canonical string",
         lambda o: s(o, 1).__setitem__(c8, relabeled)),
        ("two non-isomorphic graphs given one string",
         lambda o: [s(o, p).__setitem__(q3, s(o, p)[c8]) for p in range(2)]),
        ("two atlas graphs given one string",
         lambda o: [s(o, p).__setitem__(7, s(o, p)[8]) for p in range(2)]),
        ("a string that decodes to another graph",
         lambda o: [s(o, p).__setitem__(c8, g6(nx.path_graph(8))) for p in range(2)]),
    ]:
        expect("canon: " + name, checks.check_canon(inputs, corrupted(good, change)), True)
    # Isomorphic inputs must share a string: repeat the C8 item and give the
    # copy a valid but different encoding of the same graph.
    twin = {"items": inputs["items"] + [inputs["items"][c8]]}
    same = [{"strings": o["strings"] + [o["strings"][c8]]} for o in good]
    expect("canon: isomorphic inputs sharing a string pass", checks.check_canon(twin, same), False)
    split = [{"strings": o["strings"] + [relabeled]} for o in good]
    expect("canon: isomorphic inputs given different strings", checks.check_canon(twin, split), True)


def main():
    workdir = os.path.join(HERE, "out", "selftest-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = wl.Context(workdir)
        scans(ctx)
        family(ctx)
        canon(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = RESULTS.count(False)
    print("%d of %d self-test cases behaved as expected" % (len(RESULTS) - failed, len(RESULTS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
