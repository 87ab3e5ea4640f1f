"""Command-line interface.

Subcommands:

  construct --n N [--emit graph6|edges|json] [--out FILE]
  check     --in FILE [--bounds all|name,name,...] [--json FILE]
  search    --n N [--regular | --max-edges E] [--workers W] [--checkpoint FILE]
            [--json FILE] [--automorphisms]
  verify    [--n-max K] [--samples S] [--pairs P] [--seed R] [--json FILE]
  compose   --g FILE --h FILE [--json FILE]

Exit codes: 0 success, 1 interrupted with a resumable checkpoint, 2 usage or
domain errors, 3 I/O and parse errors (unwritable paths, malformed or
retired-format checkpoints; messages name the file and line), 4 a certified
claim failed (an identity, a certificate, a bound, or a search class's count
of hits from its parent), which always means a bug.

Reports go to stdout, progress chatter to stderr (search: one line before
the levels are built, then progress at most once a second with rate and
ETA, the first such line also with the time elapsed).  JSON is serialized
by one encoder, with sorted keys and a fixed layout, so a report for a given
configuration and seed is byte-identical no matter how many workers produced
it, and a report file holds the same bytes as stdout would.  A report file
is streamed as it is encoded, so writing it holds no copy of its text;
stdout gets the whole report in one write, so a reader that closes the pipe
early (`trideg construct --n 2000 | head -1`) ends no run in an error.
"""

import argparse
import json
import random
import sys
import time

from . import bounds as bounds_mod
from . import graph6
from .construction import CertificationError, construct
from .graphs import random_graph
from .graphs import is_triangle_distinct, triangle_degrees  # noqa: F401  bench/tracing.py wraps both
from .identities import check_composition, check_graph
from .search import (
    CheckpointError,
    SearchInterrupted,
    default_workers,
    enumerate_td,
    probe_regular,
)

EXIT_OK = 0
EXIT_INTERRUPTED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CLAIM_FAILED = 4


ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _write(payload, path) -> None:
    """Write payload and a newline to the file at path, or to stdout where
    path is None.  A str payload is written as it is, any other as JSON."""
    if path:
        with open(path, "w") as fh:
            fh.writelines((payload,) if isinstance(payload, str) else ENCODER.iterencode(payload))
            fh.write("\n")
    else:
        text = payload if isinstance(payload, str) else ENCODER.encode(payload)
        sys.stdout.write(text + "\n")


def _read_graph6_file(path):
    """[(line number, graph6 text, Graph)] from a graph6 file; '-' reads
    stdin.  Blank lines, '#' comments, and a '>>graph6<<' header are
    skipped."""
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path) as fh:
            lines = fh.read().splitlines()
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<") :].strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append((lineno, line, graph6.decode(line)))
        except graph6.Graph6Error as exc:
            raise graph6.Graph6Error("line %d: %s" % (lineno, exc)) from exc
    return out


def _normalised(text, n):
    """text, a graph6 string of order n that decodes, as graph6.encode would
    write it: decoding is strict, so the body is already the one encode
    writes, and only a long-form header for n <= 62 differs."""
    body = (n * (n - 1) // 2 + 5) // 6
    return graph6._encode_order(n).decode("ascii") + text[len(text) - body :]


class _Progress:
    """The search commands' progress callback, called with the graphs of the
    last level extended so far and the level's size: a stderr line at most
    once a second, and always at the end of a scan.  The first line also
    gives the time since the callback was made, most of it spent building
    the levels.  A probe scans once per degree, so a count that moves
    backwards starts a new scan; the rate and ETA are measured from a scan's
    first call, which also makes them right for a resumed scan."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.start = self.last = clock()  # start: None once a line is printed
        self.first = None  # (time, cursor) of the current scan's first call
        self.cursor = None

    def __call__(self, cursor, total):
        now = self.clock()
        if self.first is None or cursor < self.cursor:
            self.first = (now, cursor)
        self.cursor = cursor
        if cursor < total and now - self.last < 1.0:
            return
        self.last = now
        line = "extended %d / %d graphs" % (cursor, total)
        t0, c0 = self.first
        if now > t0 and cursor > c0:
            rate = (cursor - c0) / (now - t0)
            line += ", %.0f graphs/s, ETA %.0f s" % (rate, (total - cursor) / rate)
        if self.start is not None:
            line += ", %.1f s elapsed" % (now - self.start)
            self.start = None
        print(line, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_construct(args) -> int:
    try:
        gc = construct(args.n)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CertificationError as exc:
        print("certification failure: %s" % exc, file=sys.stderr)
        return EXIT_CLAIM_FAILED
    if args.emit == "graph6":
        payload = graph6.encode(gc.graph)
    elif args.emit == "edges":
        payload = graph6.edge_list_text(gc.graph)
    else:
        payload = {"schema_version": 1, "kind": "construct"}
        payload.update(gc.to_json_dict())
        payload["rank_to_vertex_1based"] = [v + 1 for v in gc.labels]
    _write(payload, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.bounds == "all":
        names = None
    else:
        names = [s.strip() for s in args.bounds.split(",") if s.strip()]
        unknown = set(names) - set(bounds_mod._ALL_CHECKS)
        if unknown:
            print("error: unknown bound names: %s" % sorted(unknown), file=sys.stderr)
            return EXIT_USAGE
    try:
        graphs = _read_graph6_file(args.infile)
    except graph6.Graph6Error as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except (OSError, UnicodeDecodeError) as exc:  # input that is not text
        print("cannot read %s: %s" % (args.infile, exc), file=sys.stderr)
        return EXIT_IO
    results = []
    any_violation = False
    for lineno, text, g in graphs:
        # check_all's facts pass computes the triangle degrees, once per graph
        try:
            report = bounds_mod.check_all(g, names)
            tri = report.triangle_degrees
        except bounds_mod.NotTriangleDistinct as exc:
            report, tri = None, exc.triangle_degrees
        td = report is not None
        record = {
            "line": lineno,
            "graph6": _normalised(text, g.n),
            "n": g.n,
            "m": g.m,
            "triangle_distinct": td,
            "triangle_degrees": sorted(tri, reverse=True),
            "bounds": None,
        }
        if td:
            record["bounds"] = report.to_json_dict()
            if report.violations:
                any_violation = True
                print(
                    "line %d: VIOLATION %s"
                    % (lineno, [e.name for e in report.violations]),
                    flush=True,
                )
            elif any("unfinished" in e.extra for e in report.entries):
                print(
                    "line %d: n=%d m=%d triangle-distinct, no violation found, "
                    "census_bound undecided within its search budget" % (lineno, g.n, g.m),
                    flush=True,
                )
            else:
                print(
                    "line %d: n=%d m=%d triangle-distinct, bounds hold" % (lineno, g.n, g.m),
                    flush=True,
                )
        else:
            print("line %d: n=%d m=%d not triangle-distinct" % (lineno, g.n, g.m), flush=True)
        results.append(record)
    payload = {
        "schema_version": 1,
        "kind": "check",
        "graphs": results,
        "any_violation": any_violation,
    }
    if args.json:
        _write(payload, args.json)
    if any_violation:
        print(
            "bound violation on a triangle-distinct graph: this is a bug signal",
            file=sys.stderr,
        )
        return EXIT_CLAIM_FAILED
    return EXIT_OK


def _cmd_search(args) -> int:
    try:
        workers = args.workers if args.workers else default_workers()
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    progress = None
    if not args.quiet:
        progress = _Progress()
        if 2 <= args.n <= 9:  # the orders the search accepts
            print("building the graphs of orders 1..%d" % (args.n - 1), file=sys.stderr, flush=True)
    try:
        if args.regular:
            report = probe_regular(
                args.n,
                workers=workers,
                checkpoint_path=args.checkpoint,
                count_automorphisms=args.automorphisms,
                progress=progress,
            )
        else:
            report = enumerate_td(
                args.n,
                workers=workers,
                max_edges=args.max_edges,
                checkpoint_path=args.checkpoint,
                count_automorphisms=args.automorphisms,
                progress=progress,
            )
    except CheckpointError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SearchInterrupted as exc:
        print("search interrupted: %s" % exc, file=sys.stderr)
        return EXIT_INTERRUPTED
    except CertificationError as exc:
        print("certification failure: %s" % exc, file=sys.stderr)
        return EXIT_CLAIM_FAILED
    _write(report.to_json_dict(), args.json)
    if args.json:
        print(
            "order %d: %d labeled triangle-distinct graphs in %d classes"
            % (report.order, report.td_labeled, len(report.td_classes)),
            flush=True,
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.n_max > 6:
        print(
            "error: exhaustive verification is capped at order 6 "
            "(2^21 graphs at order 7 belongs to 'search', not 'verify')",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.n_max < 1 or args.samples < 0 or args.pairs < 0:
        print("error: n-max must be >= 1 and sample counts nonnegative", file=sys.stderr)
        return EXIT_USAGE
    from .graphs import graph_from_counter, pair_list

    totals = {
        "complement_sum": {"checked": 0, "failed": 0},
        "lemma_comp_decomposition": {"checked": 0, "failed": 0},
        "composition": {"checked": 0, "failed": 0},
    }
    failures = []

    def absorb(checks):
        for c in checks:
            slot = totals[c.identity]
            slot["checked"] += 1
            if not c.holds:
                slot["failed"] += 1
                failures.append(c.to_json_dict())

    for order in range(1, args.n_max + 1):
        pairs = pair_list(order)
        for counter in range(1 << len(pairs)):
            absorb(check_graph(graph_from_counter(order, counter, pairs)))
        print(
            "exhausted order %d (%d graphs)" % (order, 1 << len(pairs)),
            file=sys.stderr,
            flush=True,
        )
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        n = rng.randrange(2, 65)
        p = rng.uniform(0.15, 0.85)
        absorb(check_graph(random_graph(rng, n, p)))
    for _ in range(args.pairs):
        g = random_graph(rng, rng.randrange(1, 6), rng.uniform(0.2, 0.8))
        h = random_graph(rng, rng.randrange(1, 5), rng.uniform(0.2, 0.8))
        absorb(check_composition(g, h))
    payload = {
        "schema_version": 1,
        "kind": "verify",
        "n_max": args.n_max,
        "samples": args.samples,
        "pairs": args.pairs,
        "seed": args.seed,
        "totals": totals,
        "failures": failures,
    }
    _write(payload, args.json)
    failed = sum(v["failed"] for v in totals.values())
    checked = sum(v["checked"] for v in totals.values())
    print("checked %d identity instances, %d failed" % (checked, failed), flush=True)
    if failed:
        print("identity failure: this is a bug signal", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return EXIT_OK


def _cmd_compose(args) -> int:
    try:
        gs = _read_graph6_file(args.g)
        hs = _read_graph6_file(args.h)
    except graph6.Graph6Error as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except (OSError, UnicodeDecodeError) as exc:
        print("cannot read input: %s" % exc, file=sys.stderr)
        return EXIT_IO
    if not gs or not hs:
        print("error: each input file must contain a graph6 line", file=sys.stderr)
        return EXIT_USAGE
    g = gs[0][2]
    h = hs[0][2]
    from .identities import compose

    gh = compose(g, h)
    checks = check_composition(g, h)
    print("composition: n=%d m=%d" % (gh.n, gh.m), flush=True)
    print(graph6.encode(gh), flush=True)
    all_ok = True
    for c in checks:
        u, v = c.vertex
        mark = "ok" if c.holds else "MISMATCH"
        if not c.holds:
            all_ok = False
        print("(%d,%d) direct=%d formula=%d %s" % (u, v, c.lhs, c.rhs, mark), flush=True)
    payload = {
        "schema_version": 1,
        "kind": "compose",
        "g": graph6.encode(g),
        "h": graph6.encode(h),
        "composed": graph6.encode(gh),
        "n": gh.n,
        "m": gh.m,
        "checks": [c.to_json_dict() for c in checks],
        "all_hold": all_ok,
    }
    if args.json:
        _write(payload, args.json)
    if not all_ok:
        print("composition identity failed: this is a bug signal", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trideg",
        description="Triangle-distinct graphs: construction, verification, search, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a certified triangle-distinct graph")
    p.add_argument("--n", type=int, required=True, help="order, at least 7")
    p.add_argument("--emit", choices=("graph6", "edges", "json"), default="json")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="triangle-distinctness and bounds for graph6 input")
    p.add_argument("--in", dest="infile", required=True, help="graph6 file, '-' for stdin")
    p.add_argument("--bounds", default="all", help="'all' or comma-separated bound names")
    p.add_argument("--json", help="also write a JSON report here")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="exhaustive search for triangle-distinct graphs")
    p.add_argument("--n", type=int, required=True, help="order, 2..9")
    # the regular probe takes no edge cap, so argparse rejects the pair (exit 2)
    only = p.add_mutually_exclusive_group()
    only.add_argument("--regular", action="store_true", help="probe feasible regular degrees only")
    only.add_argument("--max-edges", type=int, help="only consider graphs with at most this many edges")
    p.add_argument("--workers", type=int, help="worker processes (default TRIDEG_WORKERS or CPU count)")
    p.add_argument("--checkpoint", help="checkpoint file for resumable runs")
    p.add_argument("--json", help="write the report here instead of stdout")
    p.add_argument("--automorphisms", action="store_true", help="count automorphisms per class")
    p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="exhaustive and sampled identity verification")
    p.add_argument("--n-max", type=int, default=5, help="exhaust all graphs up to this order (max 6)")
    p.add_argument("--samples", type=int, default=200, help="seeded random graphs up to order 64")
    p.add_argument("--pairs", type=int, default=200, help="seeded random composition pairs")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (Mersenne Twister)")
    p.add_argument("--json", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compose", help="compose two graphs and check the triangle-degree formula")
    p.add_argument("--g", required=True, help="graph6 file for the outer graph")
    p.add_argument("--h", required=True, help="graph6 file for the inner graph")
    p.add_argument("--json", help="also write a JSON report here")
    p.set_defaults(func=_cmd_compose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and args.workers < 1:
        parser.error("--workers must be a positive integer")
    try:
        return args.func(args)
    except OSError as exc:  # an unwritable output or checkpoint path; names the file
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
