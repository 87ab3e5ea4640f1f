"""Output checks, computed apart from trideg with networkx and numpy.

Each `check_<workload>` takes the outputs of a run's passes and returns a
list of failure messages; an empty list means the outputs are correct.
This module is imported only after the timed passes and the RSS reading, so
networkx never shares the clock or the memory figure with trideg.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402
import warnings  # noqa: E402
from math import factorial  # noqa: E402

import networkx as nx  # noqa: E402
import numpy as np  # noqa: E402
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

from workloads import FAMILY_ORDERS, LARGE_ORDERS, SCAN_ORDER  # noqa: E402

# networkx warns that its graph hashes changed in 3.5; only equality within one run matters here.
warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)

SCAN_COUNTERS = 1 << (SCAN_ORDER * (SCAN_ORDER - 1) // 2)


def from_rows(n, rows):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n) if (rows[i] >> j) & 1)
    return g


def from_graph6(text):
    return nx.from_graph6_bytes(text.encode("ascii"))


def aut_size(g):
    return sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())


def atlas(order):
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == order]


def triangle_distinct(g):
    return len(set(nx.triangles(g).values())) == g.number_of_nodes()


def family_edges(n):
    """m(7) = 15; m(k+1) = m(k) + 1 for odd k and m(k) + k for even k."""
    m = 15
    for k in range(7, n):
        m += 1 if k % 2 else k
    return m


def regular_window(n):
    """Degrees d with d^2 > 2n, 3(n-d)^2 >= 2n and n*d even."""
    return [d for d in range(1, n) if d * d > 2 * n and 3 * (n - d) ** 2 >= 2 * n and n * d % 2 == 0]


def _same_across_passes(values, what):
    return [] if all(v == values[0] for v in values) else ["%s differ between passes" % what]


def check_search7(outputs):
    fails = []
    witnesses = [g for g in atlas(SCAN_ORDER) if triangle_distinct(g)]
    if len(witnesses) != 1:
        return ["atlas holds %d triangle-distinct order-7 graphs, expected 1" % len(witnesses)]
    w = witnesses[0]
    aut = aut_size(w)
    if aut != 1:
        fails.append("atlas witness has %d automorphisms, expected 1" % aut)
    labeled = factorial(SCAN_ORDER) // aut
    tri = sorted(nx.triangles(w).values(), reverse=True)
    for p, out in enumerate(outputs):
        rep = out["report"]
        bad = lambda msg: fails.append("pass %d: %s" % (p, msg))  # noqa: E731
        if out["chunks"] != 32:
            bad("%d progress calls, expected 32" % out["chunks"])
        if out.get("ckpt_left"):
            bad("checkpoint file left behind after a complete scan")
        for key in ("labeled_count", "candidates"):
            if rep[key] != SCAN_COUNTERS:
                bad("%s = %s, expected %d" % (key, rep[key], SCAN_COUNTERS))
        if rep["td_labeled"] != labeled:
            bad("td_labeled = %s, expected 7!/|Aut| = %d" % (rep["td_labeled"], labeled))
        if len(rep["td_classes"]) != 1:
            bad("%d classes, expected 1" % len(rep["td_classes"]))
            continue
        c = rep["td_classes"][0]
        if not nx.is_isomorphic(from_graph6(c["graph6"]), w):
            bad("witness %s is not isomorphic to the atlas graph" % c["graph6"])
        if c["edges"] != w.number_of_edges() or rep["min_edges"] != w.number_of_edges():
            bad("edges %s / min_edges %s, expected %d" % (c["edges"], rep["min_edges"], w.number_of_edges()))
        if c["triangle_degrees"] != tri:
            bad("triangle degrees %s, expected %s" % (c["triangle_degrees"], tri))
        if c.get("aut_size") != aut or c.get("labeled_count") != labeled:
            bad("class aut_size %s labeled_count %s, expected %d and %d"
                % (c.get("aut_size"), c.get("labeled_count"), aut, labeled))
    return fails + _same_across_passes([o["report"] for o in outputs], "reports")


def check_regular7(outputs):
    fails = []
    window = regular_window(SCAN_ORDER)
    graphs = atlas(SCAN_ORDER)
    candidates = sum(
        factorial(SCAN_ORDER) // aut_size(g)
        for g in graphs
        if {d for _, d in g.degree()} <= set(window) and len({d for _, d in g.degree()}) == 1
    )
    for p, out in enumerate(outputs):
        rep = out["report"]
        bad = lambda msg: fails.append("pass %d: %s" % (p, msg))  # noqa: E731
        if rep.get("regular_degrees") != window:
            bad("regular_degrees %s, expected %s" % (rep.get("regular_degrees"), window))
        if rep["candidates"] != candidates:
            bad("candidates = %s, expected %d" % (rep["candidates"], candidates))
        if rep["labeled_count"] != SCAN_COUNTERS * len(window):
            bad("labeled_count = %s, expected %d" % (rep["labeled_count"], SCAN_COUNTERS * len(window)))
        if rep["td_labeled"] != 0 or rep["td_classes"]:
            bad("td_labeled = %s with %d classes, expected none" % (rep["td_labeled"], len(rep["td_classes"])))
    return fails + _same_across_passes([o["report"] for o in outputs], "reports")


def triangle_degrees_dense(n, rows):
    """Triangle degrees as diag(A^3)/2 with float32 products, exact for n <= 4096."""
    a = np.zeros((n, n), dtype=np.float32)
    for i, r in enumerate(rows):
        bits = np.frombuffer(r.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        a[i] = np.unpackbits(bits, bitorder="little")[:n]
    return (((a @ a) * a).sum(axis=1) / 2).astype(np.int64)


def check_family(outputs):
    fails = _same_across_passes([o["graph6"] for o in outputs], "graph6 lines")
    text = outputs[0]["graph6"]
    if len(text) != len(FAMILY_ORDERS):
        return fails + ["%d family members, expected %d" % (len(text), len(FAMILY_ORDERS))]
    for n, line in zip(FAMILY_ORDERS, text):
        g = from_graph6(line)
        if g.number_of_nodes() != n or g.number_of_edges() != family_edges(n):
            fails.append("member %d: n=%d m=%d, expected m=%d"
                         % (n, g.number_of_nodes(), g.number_of_edges(), family_edges(n)))
        elif not triangle_distinct(g):
            fails.append("member %d is not triangle-distinct" % n)
    for p, out in enumerate(outputs):
        bad = lambda msg: fails.append("pass %d: %s" % (p, msg))  # noqa: E731
        if out["rc"] != 0:
            bad("trideg check exited %s" % out["rc"])
        for n, line in zip(FAMILY_ORDERS, out["lines"]):
            if not line.endswith("m=%d triangle-distinct, bounds hold" % family_edges(n)):
                bad("check line for order %d reads %r" % (n, line))
        try:
            with open(out["json_path"]) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            bad("check report unreadable: %s" % exc)
            continue
        if report.get("any_violation") is not False or len(report.get("graphs", ())) != len(text):
            bad("check report: any_violation %r over %d graphs"
                % (report.get("any_violation"), len(report.get("graphs", ()))))
        for rec, line in zip(report.get("graphs", ()), text):
            bounds = rec.get("bounds") or {}
            if rec.get("graph6") != line or not rec.get("triangle_distinct") or bounds.get("violated") != []:
                bad("check record for line %s: td=%s violated=%s"
                    % (rec.get("line"), rec.get("triangle_distinct"), bounds.get("violated")))
        for n in LARGE_ORDERS:
            order, rows, certified = out["large"][n]
            m = sum(r.bit_count() for r in rows) // 2
            if order != n or m != family_edges(n) or not certified:
                bad("construct(%d): n=%d m=%d certified=%s, expected m=%d" % (n, order, m, certified, family_edges(n)))
    for n in LARGE_ORDERS:
        order, rows, _ = outputs[0]["large"][n]
        if order == n and len(set(triangle_degrees_dense(n, rows).tolist())) != n:
            fails.append("construct(%d) is not triangle-distinct" % n)
    return fails


def check_canon(inputs, outputs):
    fails = []
    items = inputs["items"]
    strings = [o["strings"] for o in outputs]
    if any(len(s) != len(items) for s in strings):
        return ["a pass returned the wrong number of strings"]
    first = strings[0]
    atlas_strings = [s for (label, _, _), s in zip(items, first) if label.startswith("atlas")]
    if len(set(atlas_strings)) != 1044:
        fails.append("%d distinct strings for the 1044 order-7 atlas graphs" % len(set(atlas_strings)))
    for p in range(1, len(strings)):
        for (label, _, _), a, b in zip(items, first, strings[p]):
            if a != b:
                fails.append("%s: string %s becomes %s under the pass-%d relabeling" % (label, a, b, p))
    graphs = [from_rows(n, rows) for _, n, rows in items]
    for (label, _, _), g, s in zip(items, graphs, first):
        if not nx.is_isomorphic(from_graph6(s), g):
            fails.append("%s: string %s decodes to a graph not isomorphic to the input" % (label, s))
    groups = {}
    for idx, s in enumerate(first):
        groups.setdefault(s, []).append(idx)
    buckets = {}
    for s, members in groups.items():
        for idx in members[1:]:
            if not nx.is_isomorphic(graphs[members[0]], graphs[idx]):
                fails.append("%s and %s share %s but are not isomorphic"
                             % (items[members[0]][0], items[idx][0], s))
        key = nx.weisfeiler_lehman_graph_hash(graphs[members[0]])
        buckets.setdefault(key, []).append(members[0])
    for reps in buckets.values():
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                if nx.is_isomorphic(graphs[reps[a]], graphs[reps[b]]):
                    fails.append("%s and %s are isomorphic but got different strings"
                                 % (items[reps[a]][0], items[reps[b]][0]))
    return fails


def check(workload, inputs, outputs):
    if workload == "canon":
        return check_canon(inputs, outputs)
    return {"search7": check_search7, "regular7": check_regular7, "family": check_family}[workload](outputs)
