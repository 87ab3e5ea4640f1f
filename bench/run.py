#!/usr/bin/env python3
"""trideg benchmark: one process, workers=1, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; trideg is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (wall_s, setup_s, peak_rss_mb, item_p50_ms, item_p90_ms);
with --trace 1 they are the per-layer ones, and the spans of the traced run
are written to bench/out/.  See bench/README.md.
"""

import gc
import importlib
import os
import sys
import time

import workloads as wl

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("search7", "regular7", "family", "canon")
USAGE = "usage: run.py --workload {%s} --seed N --seconds S --trace 0|1" % ",".join(WORKLOADS)


def parse_args(argv):
    opts = {"--workload": None, "--seed": "0", "--seconds": "15", "--trace": "0"}
    if len(argv) % 2:
        raise ValueError("flags take one value each")
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in opts:
            raise ValueError("unknown flag %s" % flag)
        opts[flag] = value
    workload = opts["--workload"]
    if workload not in WORKLOADS:
        raise ValueError("--workload must be one of %s" % ", ".join(WORKLOADS))
    seed, seconds, trace = int(opts["--seed"]), int(opts["--seconds"]), int(opts["--trace"])
    if seconds < 1 or trace not in (0, 1):
        raise ValueError("--seconds must be positive and --trace 0 or 1")
    return workload, seed, seconds, trace


def warm_up(workload, td, workdir):
    """The smallest call that runs the workload's code path once."""
    if workload == "search7":
        td.search.enumerate_td(5, workers=1, count_automorphisms=True,
                               checkpoint_path=os.path.join(workdir, "warm.ckpt"))
    elif workload == "regular7":
        td.search.probe_regular(6, workers=1)
    elif workload == "family":
        cli = importlib.import_module("trideg.cli")
        path = os.path.join(workdir, "warm.g6")
        with open(path, "w") as fh:
            fh.write(td.graph6.encode(td.construction.construct(30).graph) + "\n")
        saved, sys.stdout = sys.stdout, wl.LineClock()
        try:
            cli.main(["check", "--in", path, "--bounds", "all", "--json", os.path.join(workdir, "warm.json")])
        finally:
            sys.stdout = saved
    else:
        for n in (6, 7):
            td.search.canonical_form(td.graphs.cycle_graph(n))


class Setups:
    """Times set-ups: import trideg afresh and make the workload's warm-up
    call.  Every module an import brought in is dropped before the next
    set-up, so each one pays for the full import.  Set-ups come in groups
    spread over the run (before, between and after the passes), so that one
    slow stretch of the machine does not cover all of them."""

    GROUP = 3

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.loaded = set()  # modules a set-up brought in
        self.times = []

    def _setup(self):
        td = importlib.import_module("trideg")
        warm_up(self.workload, td, self.workdir)
        return td

    def group(self):
        for _ in range(self.GROUP):
            for name in self.loaded:
                sys.modules.pop(name, None)
            gc.collect()
            before = set(sys.modules)
            td, seconds = wl.timed(self._setup)
            self.times.append(seconds)
            self.loaded |= set(sys.modules) - before
        before = set(sys.modules)
        importlib.import_module("trideg.cli")  # the passes call it; its import is not timed
        self.loaded |= set(sys.modules) - before
        if not os.path.abspath(td.__file__).startswith(SRC + os.sep):
            raise RuntimeError("trideg was imported from %s, not from %s" % (td.__file__, SRC))
        return td


def run_passes(workload, td, setups, inputs, ctx, passes):
    """The timed passes, with a group of set-ups after the middle one and
    after the last."""
    records, outputs = [], []
    for p in range(passes):
        gc.collect()
        seg, out = wl.PASSES[workload](td, inputs, ctx, p)
        records.append(seg)
        outputs.append(out)
        if p == (passes - 1) // 2 or p == passes - 1:
            td = setups.group()
    return records, outputs


def end_to_end(workload, records, setup_times, rss_mb):
    """wall_s sums a pass's segments, each taken as its median over the
    passes; items are read the same way.  All times are at reference speed."""
    import statistics

    keys = list(records[0])
    if any(list(r) != keys for r in records):
        raise RuntimeError("passes produced different segments")
    typical = {k: statistics.median(r[k] for r in records) for k in keys}
    items = [sum(typical[k] for k in ks) for ks in wl.item_keys(workload, typical)]
    return {
        "wall_s": {"value": sum(typical.values()), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "item_p50_ms": {"value": statistics.median(items) * 1e3, "unit": "ms"},
        "item_p90_ms": {"value": statistics.quantiles(items, n=10)[-1] * 1e3, "unit": "ms"},
    }


PER_LAYER_UNITS = {
    "graphs.triangle_degrees_us.n64": "us",
    "graphs.triangle_degrees_us.n512": "us",
    "graphs.triangle_degrees_ms.n2000": "ms",
    "graphs.kernel_calls_per_graph.family": "count",
    "search.is_triangle_distinct_us.n8": "us",
    "search.scan_chunk_ms": "ms",
    "search.regular_chunk_ms": "ms",
    "search.classes_ms": "ms",
    "search.checkpoint_bytes": "bytes",
    "search.automorphism_count_us.n7": "us",
    "search.canonical_form_us.n8_random": "us",
    "search.canonical_form_ms.n8_regular": "ms",
    "search.canonical_form_ms.n9_regular": "ms",
    "construction.construct_ms.n200": "ms",
    "construction.construct_ms.n2000": "ms",
    "bounds.check_all_ms.n200": "ms",
    "bounds.census_ms.n200": "ms",
    "bounds.degree_class_ms.n200": "ms",
    "bounds.edge_lb_ms.n200": "ms",
    "bounds.degree_ms.n200": "ms",
    "graph6.encode_us.n200": "us",
    "graph6.decode_us.n200": "us",
    "cli.check_overhead_ms": "ms",
}


def traced(workload, seed, td, ctx, setup_times):
    """One traced pass of the workload; traced passes of the order-7 scan and
    probe and a traced check over a family prefix, which give the per-layer
    search and check-path metrics; then the single-call probes.  Returns
    (attempted, failures, metrics)."""
    import json

    import checks
    import tracing

    tracer = tracing.Tracer()
    ctx.tracing = True
    order = [workload] + [w for w in ("search7", "regular7") if w != workload]
    runs, failures, attempted, traced_wall = {}, [], 0, {}
    tracer.install(td)
    try:
        for name in order:
            inputs = wl.make_inputs(name, seed, td, 1)
            rec = tracer.open("workload." + name)
            seg, out = wl.PASSES[name](td, inputs, ctx, 0)
            tracer.close(rec)
            tracer.add_segments(out["clock"], rec)
            runs[name] = (seg, out)
            traced_wall[name] = sum(seg.values())
            attempted += len(wl.item_keys(name, seg))
            failures += ["%s: %s" % (name, f) for f in checks.check(name, inputs, [out])]
        metrics = tracing.scan_metrics(runs)
        metrics.update(tracing.check_path(td, ctx, tracer))
    finally:
        tracer.uninstall()
    metrics.update(tracing.micro_probes(td, seed, tracer))
    os.makedirs(OUT, exist_ok=True)
    names = sorted({s[2] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = tracer.spans[0][3] if tracer.spans else 0
    trace = {
        "workload": workload,
        "seed": seed,
        "machine": tracing.machine(ROOT),
        "setup_s": setup_times,
        "traced_wall_s": traced_wall,
        "metrics": metrics,
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
        "span_names": names,
        "spans": [[s[0], s[1], index[s[2]], s[3] - t0, s[4] - t0] for s in tracer.spans],
    }
    path = os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    print("trace written to %s (%d spans)" % (os.path.relpath(path, ROOT), len(tracer.spans)), file=sys.stderr)
    return attempted, failures, {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in sorted(metrics.items())}


def run(workload, seed, seconds, trace, workdir):
    setups = Setups(workload, workdir)
    td = setups.group()
    import resource

    ctx = wl.Context(workdir)
    if trace:
        attempted, failures, metrics = traced(workload, seed, td, ctx, setups.times)
    else:
        passes = wl.passes_for(workload, seconds)
        inputs = wl.make_inputs(workload, seed, td, passes)
        t0 = perf()
        records, outputs = run_passes(workload, td, setups, inputs, ctx, passes)
        t1 = perf()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import checks

        failures = checks.check(workload, inputs, outputs)
        print("%s: %d passes in %.1f s, checks in %.1f s, set-ups %s"
              % (workload, passes, t1 - t0, perf() - t1, " ".join("%.1f" % (t * 1e3) for t in setups.times)),
              file=sys.stderr)
        attempted = sum(len(wl.item_keys(workload, r)) for r in records)
        metrics = end_to_end(workload, records, setups.times, rss_mb)
    for f in failures[:20]:
        print("CHECK FAILED: %s" % f, file=sys.stderr)
    import json

    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


def main(argv):
    try:
        workload, seed, seconds, trace = parse_args(argv)
    except ValueError as exc:
        print("%s\n%s" % (USAGE, exc), file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "trideg", "__init__.py")):
        print("bench: no trideg sources at %s; run from the root of a trideg checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(workload, seed, seconds, trace, workdir)
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
