"""Inputs and timed passes for the four workloads.

A pass runs a workload's calls once and returns its timed segments in
order: one entry per scan chunk, per `construct` call, per line of the
`trideg check` run, per `canonical_form` call, plus the stretches between
them (the dedup tail of a scan, the JSON dump of the check run).  The
harness keeps each segment's fastest reading over the passes of a run, so
a segment that a slow stretch of the machine covered in one pass is read
from another pass.

Nothing here imports networkx; inputs come from this file's own seeded
generators and from data/atlas7.g6.
"""

import os
import random
import sys
import time

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ATLAS_PATH = os.path.join(HERE, "data", "atlas7.g6")

SCAN_ORDER = 7
FAMILY_ORDERS = tuple(range(7, 201))
LARGE_ORDERS = (1000, 2000)
RANDOM_CANON = ((8, 50), (9, 50))  # (order, count) of seeded random inputs
MAX_RANDOM_BLOCK = 3  # largest equal-degree block a random canon input may have
CANON_PROBE_EVERY_S = 0.04  # canon items are short; probe the machine at most this often

# Seconds one pass takes on the reference machine (see README); the number of
# passes in a run is --seconds divided by this, rounded, and at least one.
NOMINAL_PASS_S = {"search7": 10.0, "regular7": 5.0, "family": 14.0, "canon": 4.5}


def passes_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------------------
# graph inputs, built without trideg


def decode_graph6(text):
    """(n, adjacency rows) of a graph6 string of order <= 62."""
    data = text.encode("ascii")
    n = data[0] - 63
    bits = []
    for b in data[1:]:
        v = b - 63
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    rows = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    return n, rows


def rows_from_edges(n, edges):
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def relabel(n, rows, perm):
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * n
    for v in range(n):
        w = rows[v]
        for u in range(n):
            if (w >> u) & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def gnp_rows(rng, n, p=0.5):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def largest_degree_block(rows):
    counts = {}
    for r in rows:
        d = bin(r).count("1")
        counts[d] = counts.get(d, 0) + 1
    return max(counts.values())


def circulant(n, steps):
    return rows_from_edges(n, [(v, (v + s) % n) for v in range(n) for s in steps])


def complement_rows(n, rows):
    full = (1 << n) - 1
    return [(~r & full) & ~(1 << v) for v, r in enumerate(rows)]


def disjoint_cycles(*lengths):
    edges, base = [], 0
    for k in lengths:
        edges += [(base + i, base + (i + 1) % k) for i in range(k)]
        base += k
    return base, rows_from_edges(base, edges)


def regular_inputs():
    """Fixed regular or vertex-transitive graphs: one degree block holds
    every vertex, so brute-force canonical labeling tries all n! orders."""
    cube = rows_from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
    k44 = rows_from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)])
    two_k4 = rows_from_edges(8, [(i, j) for b in (0, 4) for i in range(b, b + 4) for j in range(i + 1, b + 4)])
    c8 = circulant(8, (1,))
    c9 = circulant(9, (1,))
    return [
        ("C8", 8, c8),
        ("2C4", *disjoint_cycles(4, 4)),
        ("C3+C5", *disjoint_cycles(3, 5)),
        ("4K2", 8, rows_from_edges(8, [(2 * i, 2 * i + 1) for i in range(4)])),
        ("Q3", 8, cube),
        ("M8", 8, circulant(8, (1, 4))),
        ("2K4", 8, two_k4),
        ("K4,4", 8, k44),
        ("C8(1,2)", 8, circulant(8, (1, 2))),
        ("co-Q3", 8, complement_rows(8, cube)),
        ("co-C8", 8, complement_rows(8, c8)),
        ("C9", 9, c9),
    ]


def canon_inputs(seed):
    """(label, n, rows) for every canon item: the order-7 atlas, seeded
    random graphs of orders 8 and 9 with small degree blocks, and the fixed
    regular set."""
    items = []
    with open(ATLAS_PATH) as fh:
        for k, line in enumerate(fh):
            n, rows = decode_graph6(line.strip())
            items.append(("atlas%d" % k, n, rows))
    rng = random.Random("canon-random-%d" % seed)
    for n, count in RANDOM_CANON:
        made = 0
        while made < count:
            rows = gnp_rows(rng, n)
            if largest_degree_block(rows) <= MAX_RANDOM_BLOCK:
                items.append(("random%d.%d" % (n, made), n, rows))
                made += 1
    items.extend(regular_inputs())
    return items


def canon_relabelings(seed, items, passes):
    """perms[p][i]: the vertex renaming item i gets in pass p; pass 0 keeps
    the input labels."""
    rng = random.Random("canon-relabel-%d" % seed)
    out = [[list(range(n)) for _, n, _ in items]]
    for _ in range(1, passes):
        row = []
        for _, n, _ in items:
            perm = list(range(n))
            rng.shuffle(perm)
            row.append(perm)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# machine speed


_PROBE_ROWS = gnp_rows(random.Random("speed-probe"), 40)
PROBE_REPS = 6
# Fastest probe() reading on the reference machine (see README): timings are
# reported in seconds at that speed.
PROBE_REF_S = 0.0009


def probe():
    """Seconds one fixed, benchmark-owned bitset kernel takes right now.

    The kernel is the same kind of work trideg does (Python loops over
    bitmask rows, bit_count), so the machine's slow stretches slow it by
    about the same factor; it never calls trideg, so changes to trideg
    leave it alone."""
    rows = _PROBE_ROWS
    t0 = perf()
    for _ in range(PROBE_REPS):
        for nv in rows:
            w = nv
            while w:
                low = w & -w
                (rows[low.bit_length() - 1] & nv).bit_count()
                w ^= low
    return perf() - t0


class Clock:
    """Times consecutive segments of a pass and scales each to the reference
    speed: a segment's measured time times PROBE_REF_S over the mean of the
    probes taken right before and right after it.  Probe time is not part of
    any segment.  `every` is the least time between probes; segments that end
    sooner share the probes around them."""

    def __init__(self, every=0.0):
        self.every = every
        self.spans = []  # (name, start, end, index of the probe before)
        self.probes = []  # (time the probe ended, probe seconds)
        self._probe()

    def _probe(self):
        seconds = probe()
        self._start = perf()
        self.probes.append((self._start, seconds))

    def lap(self, name):
        t = perf()
        self.spans.append((name, self._start, t, len(self.probes) - 1))
        if t - self.probes[-1][0] >= self.every:
            self._probe()
        else:
            self._start = t

    def segments(self):
        """{name: seconds at reference speed}, in pass order."""
        if self.spans and self.spans[-1][3] == len(self.probes) - 1:
            self._probe()
        out = {}
        for name, t0, t1, i in self.spans:
            out[name] = (t1 - t0) * PROBE_REF_S * 2 / (self.probes[i][1] + self.probes[i + 1][1])
        return out


def timed(fn):
    """(result, seconds at reference speed) of one call, between two probes."""
    clock = Clock()
    result = fn()
    clock.lap("call")
    return result, clock.segments()["call"]


# ---------------------------------------------------------------------------
# passes


class LineClock:
    """A stand-in for stdout that keeps each completed line and, given a
    Clock, ends a segment named line<k> at the k-th line."""

    def __init__(self, clock=None):
        self.clock = clock
        self.lines = []
        self._part = []

    def write(self, text):
        written = len(text)
        while text:
            head, nl, text = text.partition("\n")
            self._part.append(head)
            if not nl:
                break
            if self.clock is not None:
                self.clock.lap("line%d" % len(self.lines))
            self.lines.append("".join(self._part))
            self._part = []
        return written

    def flush(self):
        pass


class Context:
    """Where a run keeps its files; a traced run also sets `tracing`, which
    makes scans record their checkpoint file sizes."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.tracing = False


def _scan_pass(call, ctx, ckpt):
    sizes = []
    clock = Clock()

    def progress(cursor, total):
        clock.lap("chunk%02d" % len(clock.spans))
        if ckpt is not None and ctx.tracing:
            sizes.append(os.path.getsize(ckpt))

    report = call(progress)
    chunks = len(clock.spans)
    clock.lap("classes")
    out = {"report": report.to_json_dict(), "chunks": chunks, "ckpt_sizes": sizes, "clock": clock}
    return clock.segments(), out


def search7_pass(td, inputs, ctx, p):
    ckpt = os.path.join(ctx.workdir, "search7.ckpt")
    call = lambda progress: td.search.enumerate_td(  # noqa: E731
        SCAN_ORDER, workers=1, count_automorphisms=True, checkpoint_path=ckpt, progress=progress
    )
    seg, out = _scan_pass(call, ctx, ckpt)
    out["ckpt_left"] = os.path.exists(ckpt)
    return seg, out


def regular7_pass(td, inputs, ctx, p):
    call = lambda progress: td.search.probe_regular(SCAN_ORDER, workers=1, progress=progress)  # noqa: E731
    return _scan_pass(call, ctx, None)


def family_pass(td, inputs, ctx, p):
    clock = Clock()
    text = []
    for n in FAMILY_ORDERS:
        text.append(td.graph6.encode(td.construction.construct(n).graph))
        clock.lap("construct%d" % n)
    g6_path = os.path.join(ctx.workdir, "family.g6")
    json_path = os.path.join(ctx.workdir, "check%d.json" % p)
    with open(g6_path, "w") as fh:
        fh.write("\n".join(text) + "\n")
    clock.lap("write")
    lines = LineClock(clock)
    saved, sys.stdout = sys.stdout, lines
    try:
        rc = td.cli.main(["check", "--in", g6_path, "--bounds", "all", "--json", json_path])
    finally:
        sys.stdout = saved
    clock.lap("check_tail")
    if len(lines.lines) != len(FAMILY_ORDERS):
        raise RuntimeError("trideg check printed %d lines for %d graphs: %r"
                           % (len(lines.lines), len(FAMILY_ORDERS), lines.lines[-3:]))
    large = {}
    for n in LARGE_ORDERS:
        gc = td.construction.construct(n)
        clock.lap("construct%d" % n)
        large[n] = (gc.graph.n, gc.graph.rows, gc.certificate.passed)
    out = {"graph6": text, "rc": rc, "lines": lines.lines, "json_path": json_path, "large": large,
           "clock": clock}
    return clock.segments(), out


def canon_pass(td, inputs, ctx, p):
    graphs = inputs["graphs"][p]
    canonical_form = td.search.canonical_form
    strings = []
    clock = Clock(every=CANON_PROBE_EVERY_S)
    for i, g in enumerate(graphs):
        strings.append(canonical_form(g))
        clock.lap(i)
    return clock.segments(), {"strings": strings, "clock": clock}


def item_keys(workload, seg):
    """The segment keys that make up each item, in item order."""
    if workload in ("search7", "regular7"):
        return [[k] for k in seg if k != "classes"]
    if workload == "family":
        return [["construct%d" % n, "line%d" % k] for k, n in enumerate(FAMILY_ORDERS)]
    return [[i] for i in seg]


def make_inputs(workload, seed, td, passes):
    """Graph inputs for the run, converted to trideg graphs up front so that
    no pass spends time on input conversion."""
    if workload != "canon":
        return {}
    items = canon_inputs(seed)
    perms = canon_relabelings(seed, items, passes)
    graphs = [
        [td.Graph(n, relabel(n, rows, perm)) for (_, n, rows), perm in zip(items, row)]
        for row in perms
    ]
    return {"items": items, "graphs": graphs}


PASSES = {
    "search7": search7_pass,
    "regular7": regular7_pass,
    "family": family_pass,
    "canon": canon_pass,
}
