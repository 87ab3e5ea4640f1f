"""The traced run: spans around calls into each trideg module, kept in memory
and written out at the end, and the per-layer metrics derived from them.

Spans are recorded from the benchmark's side only.  `Tracer.install` swaps
the names each module calls through (for example `triangle_degrees` where
`bounds`, `search`, `cli` and `construction` import it) for wrappers that
open a span, and `uninstall` puts the originals back.  The untraced run
never installs anything.
"""

import os
import platform
import random
import statistics
import sys
import time

from workloads import LineClock, gnp_rows, timed

perf_ns = time.perf_counter_ns

# (module, attribute, span name): the call sites a traced run wraps.
WRAPPED = (
    ("bounds", "triangle_degrees", "graphs.triangle_degrees"),
    ("search", "triangle_degrees", "graphs.triangle_degrees"),
    ("cli", "triangle_degrees", "graphs.triangle_degrees"),
    ("construction", "triangle_degrees", "graphs.triangle_degrees"),
    ("search", "enumerate_td", "search.enumerate_td"),
    ("search", "probe_regular", "search.probe_regular"),
    ("search", "canonical_form", "search.canonical_form"),
    ("search", "automorphism_count", "search.automorphism_count"),
    ("cli", "is_triangle_distinct", "search.is_triangle_distinct"),
    ("construction", "construct", "construction.construct"),
    ("bounds", "check_all", "bounds.check_all"),
    ("bounds", "check_degree_bounds", "bounds.check_degree_bounds"),
    ("bounds", "check_regular_window", "bounds.check_regular_window"),
    ("bounds", "check_edge_lower_bound", "bounds.check_edge_lower_bound"),
    ("bounds", "check_planarity_edge_excess", "bounds.check_planarity_edge_excess"),
    ("bounds", "check_census_bounds", "bounds.check_census_bounds"),
    ("bounds", "check_degree_class_bound", "bounds.check_degree_class_bound"),
    ("graph6", "encode", "graph6.encode"),
    ("graph6", "decode", "graph6.decode"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Spans as [id, parent id or -1, name, start ns, end ns]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, perf_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec):
        rec[4] = perf_ns()
        self._stack.pop()

    def add(self, name, parent, start_ns, end_ns):
        self.spans.append([len(self.spans), parent, name, start_ns, end_ns])

    def install(self, td):
        for mod_name, attr, span in WRAPPED:
            module = getattr(td, mod_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, span))
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrapper(self, fn, name):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            rec = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        traced.__wrapped__ = fn
        return traced

    def last(self, name):
        for rec in reversed(self.spans):
            if rec[2] == name:
                return rec
        raise KeyError(name)

    def descendants(self, root, name):
        """Spans called `name` below span `root`."""
        inside = {root[0]}
        out = []
        for rec in self.spans[root[0] + 1:]:
            if rec[1] in inside:
                inside.add(rec[0])
                if rec[2] == name:
                    out.append(rec)
        return out

    def add_segments(self, clock, parent):
        """One span per timed segment of a pass (scan chunk, check line,
        canonical_form call), below the pass's span."""
        for name, t0, t1, _ in clock.spans:
            self.add("segment.%s" % name, parent[0], int(t0 * 1e9), int(t1 * 1e9))


def _best(fn, calls, repeats):
    """Fastest per-call seconds, at reference speed, over `repeats` batches
    of `calls` calls, and the last call's result."""
    best = None

    def batch():
        for _ in range(calls):
            result = fn()
        return result

    for _ in range(repeats):
        result, seconds = timed(batch)
        best = seconds / calls if best is None else min(best, seconds / calls)
    return best, result


def micro_probes(td, seed, tracer):
    """Per-layer timings of single public calls, each the fastest batch of
    several; inputs are seeded from --seed or fixed."""
    rng = random.Random("layers-%d" % seed)
    G = td.Graph
    g64 = G(64, gnp_rows(rng, 64))
    g512 = G(512, gnp_rows(rng, 512))
    r8 = [G(8, gnp_rows(rng, 8)) for _ in range(200)]
    c8 = td.graphs.cycle_graph(8)
    c9 = td.graphs.cycle_graph(9)
    tri = td.graphs.triangle_degrees
    search, bounds, g6 = td.search, td.bounds, td.graph6
    m = {}

    def probe(name, fn, calls, repeats, scale):
        rec = tracer.open("probe." + name)
        seconds, result = _best(fn, calls, repeats)
        tracer.close(rec)
        m[name] = seconds * scale
        return result

    g200 = probe("construction.construct_ms.n200", lambda: td.construction.construct(200), 1, 5, 1e3).graph
    g2000 = probe("construction.construct_ms.n2000", lambda: td.construction.construct(2000), 1, 1, 1e3).graph
    probe("graphs.triangle_degrees_us.n64", lambda: tri(g64), 100, 5, 1e6)
    probe("graphs.triangle_degrees_us.n512", lambda: tri(g512), 3, 3, 1e6)
    probe("graphs.triangle_degrees_ms.n2000", lambda: tri(g2000), 1, 1, 1e3)
    it8 = iter(r8 * 1000)
    probe("search.is_triangle_distinct_us.n8", lambda: search.is_triangle_distinct(next(it8)), 200, 7, 1e6)
    g7 = td.construction.construct(7).graph
    probe("search.automorphism_count_us.n7", lambda: search.automorphism_count(g7), 20, 5, 1e6)
    it8 = iter(r8[:50] * 100)
    probe("search.canonical_form_us.n8_random", lambda: search.canonical_form(next(it8)), 50, 5, 1e6)
    probe("search.canonical_form_ms.n8_regular", lambda: search.canonical_form(c8), 1, 3, 1e3)
    probe("search.canonical_form_ms.n9_regular", lambda: search.canonical_form(c9), 1, 1, 1e3)
    probe("bounds.check_all_ms.n200", lambda: bounds.check_all(g200), 1, 3, 1e3)
    probe("bounds.census_ms.n200", lambda: bounds.check_census_bounds(g200), 1, 3, 1e3)
    probe("bounds.degree_class_ms.n200", lambda: bounds.check_degree_class_bound(g200), 1, 3, 1e3)
    probe("bounds.edge_lb_ms.n200", lambda: bounds.check_edge_lower_bound(g200), 1, 3, 1e3)
    probe("bounds.degree_ms.n200", lambda: bounds.check_degree_bounds(g200), 1, 3, 1e3)
    text200 = g6.encode(g200)
    probe("graph6.encode_us.n200", lambda: g6.encode(g200), 10, 5, 1e6)
    probe("graph6.decode_us.n200", lambda: g6.decode(text200), 10, 5, 1e6)
    return m


CHECK_ORDERS = tuple(range(7, 101))  # the family prefix the check-path metrics run over


def check_path(td, ctx, tracer):
    """`trideg check` over construct(n) for n in CHECK_ORDERS, traced: the
    triangle_degrees calls per graph on the check path, and the time per
    graph outside check_all."""
    path = os.path.join(ctx.workdir, "layers.g6")
    with open(path, "w") as fh:
        fh.write("".join(td.graph6.encode(td.construction.construct(n).graph) + "\n" for n in CHECK_ORDERS))
    saved, sys.stdout = sys.stdout, LineClock()
    try:
        rc = td.cli.main(["check", "--in", path, "--bounds", "all"])
    finally:
        sys.stdout = saved
    if rc != 0:
        raise RuntimeError("trideg check over the family prefix exited %d" % rc)
    main = tracer.last("cli.main")
    graphs = len(CHECK_ORDERS)
    kernel = tracer.descendants(main, "graphs.triangle_degrees")
    check_all = sum(r[4] - r[3] for r in tracer.descendants(main, "bounds.check_all"))
    return {
        "graphs.kernel_calls_per_graph.family": len(kernel) / graphs,
        "cli.check_overhead_ms": ((main[4] - main[3]) - check_all) / graphs / 1e6,
    }


def scan_metrics(runs):
    """Per-layer metrics read from the traced order-7 scan and probe."""
    seg, out = runs["search7"]
    chunks = [v for k, v in seg.items() if k.startswith("chunk")]
    m = {
        "search.scan_chunk_ms": statistics.median(chunks) * 1e3,
        "search.classes_ms": seg["classes"] * 1e3,
        "search.checkpoint_bytes": sum(out["ckpt_sizes"]),
    }
    seg, _ = runs["regular7"]
    chunks = [v for k, v in seg.items() if k.startswith("chunk")]
    m["search.regular_chunk_ms"] = statistics.median(chunks) * 1e3
    return m


def git_revision(root):
    """HEAD's commit id read from .git without running git; None outside a
    git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def machine(root):
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(root),
    }
