"""Exhaustive search for triangle-distinct graphs, canonical forms, and the
regular-graph probe.

Enumeration strategy.  Labeled graphs on n vertices correspond one-to-one to
counters in [0, 2^C(n,2)): bit b of the counter is edge pair_list(n)[b].  The
counter range is cut into fixed-size chunks (a function of n only, never of
the worker count), chunks are scanned left to right, and per-chunk results
are merged strictly in counter order.  Workers therefore change wall time and
nothing else: the finished report serializes to identical bytes for any
worker count.

Inside a chunk the scan extends one smaller graph at a time.  Bits
0..n-2 of a counter are the pairs (0, 1..n-1), so a counter is hi * 2^(n-1)
+ lo where hi encodes H = G - 0 on vertices 1..n-1 and lo encodes vertex 0's
neighbourhood N (bit b is vertex b+1).  Chunks are multiples of 2^(n-1)
counters, so each one holds, for every H in it, all 2^(n-1) choices of N in
ascending counter order.  For each H the scan builds its rows and triangle
degrees t_H once (graphs.triangle_degrees_rows) and then:

  * Triangle degrees of G follow from H: t(v) = t_H(v) + |N & N_H(v)| for v
    in N, t(v) = t_H(v) otherwise, and t(0) is half the sum of the
    additions.
  * Two vertices of H outside N keep their triangle degrees, so two with
    equal t_H both outside N make G non-distinct.  Only the N that leave at
    most one vertex of each tie class of t_H outside are tested, ascending;
    each is kept after a full distinctness check of all n triangle degrees.
  * candidates needs no walk: 2^(n-1) per H unfiltered and, under an edge
    cap E, the number of N with |N| <= E - m(H), from a table of binomial
    prefix sums (H with m(H) > E are skipped).
  * A d-regular probe has one possible N per H: the vertices of degree d-1
    in H, valid only when every other vertex of H has degree d and |N| = d.

Class sizes come from a theorem, not a count.  An automorphism preserves
triangle degrees, so it fixes every vertex of a triangle-distinct graph: Aut
is trivial and each class has exactly n! labelings.  For the same reason,
relabeling a hit by descending triangle degree is already a canonical
labeling: hits are grouped by it (rechecking distinctness from their rows)
and canonical_form runs once per class.  Every finished scan checks
td_labeled == n! * classes and raises CertificationError otherwise.

Orders up to 8 finish in minutes or less.  Order 9 is 2^36 labeled graphs
and only runs when allow_slow=True; long runs can checkpoint every chunk to
a plain-text file and resume after an interruption, which surfaces as
SearchInterrupted rather than a half-filled report.

Canonical forms are brute force, capped at order 9: the lexicographically
smallest graph6 body over the vertex orderings that list degrees ascending
(all orderings within an equal-degree block are tried).  The restriction to
degree-sorted orderings is isomorphism-invariant, so equal canonical strings
is the same relation as isomorphism, which is all the de-duplication needs.
"""

import os
from dataclasses import dataclass
from itertools import permutations, product
from math import comb, factorial
from multiprocessing import Pool

from . import graph6
from .construction import CertificationError
from .graphs import (  # noqa: F401  is_triangle_distinct is re-exported
    Graph,
    counter_of_graph,
    graph_from_counter,
    is_triangle_distinct,
    pair_list,
    triangle_degrees,
    triangle_degrees_rows,
)


class CheckpointError(ValueError):
    """A checkpoint file is not a well-formed trideg checkpoint."""


class SearchInterrupted(RuntimeError):
    """An enumeration stopped early; the checkpoint on disk resumes it."""

    def __init__(self, message: str, checkpoint_path, cursor: int, total: int):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.cursor = cursor
        self.total = total


@dataclass(frozen=True)
class ClassEntry:
    """One isomorphism class of triangle-distinct witnesses."""

    graph6: str  # canonical form
    edges: int
    triangle_degrees: tuple[int, ...]  # descending
    aut_size: int | None = None
    labeled_count: int | None = None  # n! / aut_size

    def to_json_dict(self) -> dict:
        d = {
            "graph6": self.graph6,
            "edges": self.edges,
            "triangle_degrees": list(self.triangle_degrees),
        }
        if self.aut_size is not None:
            d["aut_size"] = self.aut_size
            d["labeled_count"] = self.labeled_count
        return d


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive run.

    labeled_count is the number of counters visited (the full 2^C(n,2) for an
    unfiltered complete run); candidates is how many survived the cheap
    edge-count and regularity filters and reached the triangle-degree stage.
    td_classes holds one entry per isomorphism class, sorted by canonical
    graph6 string.  For a probe over regular graphs, regular_degrees lists
    every degree that was enumerated.
    """

    order: int
    labeled_count: int
    candidates: int
    td_labeled: int
    td_classes: tuple[ClassEntry, ...]
    min_edges: int | None
    regular_only: int | None = None
    max_edges: int | None = None
    regular_degrees: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        d = {
            "schema_version": 1,
            "kind": "search",
            "order": self.order,
            "labeled_count": self.labeled_count,
            "candidates": self.candidates,
            "td_labeled": self.td_labeled,
            "td_classes": [c.to_json_dict() for c in self.td_classes],
            "min_edges": self.min_edges,
            "regular_only": self.regular_only,
            "max_edges": self.max_edges,
        }
        if self.regular_degrees is not None:
            d["regular_degrees"] = list(self.regular_degrees)
        return d


def default_workers() -> int:
    """TRIDEG_WORKERS if set, else the visible CPU count."""
    env = os.environ.get("TRIDEG_WORKERS", "").strip()
    if env:
        try:
            w = int(env)
        except ValueError:
            raise ValueError(
                "TRIDEG_WORKERS must be a positive integer, got %r" % env
            ) from None
        if w < 1:
            raise ValueError("TRIDEG_WORKERS must be a positive integer, got %r" % env)
        return w
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# canonical forms


def _degree_blocks(order, degs):
    blocks = []
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and degs[order[j]] == degs[order[i]]:
            j += 1
        blocks.append(tuple(order[i:j]))
        i = j
    return blocks


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string; equal strings iff isomorphic.  Order <= 9.

    Minimizes the graph6 body over every vertex ordering whose degree
    sequence reads ascending; within a block of equal degrees all orderings
    are tried, so the worst case (a regular graph) is the full 9! = 362880.
    Only the smaller blocks' orderings are held in memory; the largest
    block's are generated one at a time in the innermost loop.
    """
    n = g.n
    if n > 9:
        raise ValueError("canonical_form is brute force and capped at order 9, got %d" % n)
    if n <= 1:
        return graph6.encode(g)
    degs = g.degrees()
    order0 = sorted(range(n), key=degs.__getitem__)
    blocks = _degree_blocks(order0, degs)
    big = max(range(len(blocks)), key=lambda b: len(blocks[b]))
    colpairs = tuple((i, j) for j in range(1, n) for i in range(j))
    rows = g.rows
    best = None
    for rest in product(*(permutations(b) for b in blocks[:big] + blocks[big + 1 :])):
        head = sum(rest[:big], ())
        tail = sum(rest[big:], ())
        for middle in permutations(blocks[big]):
            perm = head + middle + tail
            val = 0
            for i, j in colpairs:
                val = (val << 1) | ((rows[perm[i]] >> perm[j]) & 1)
            if best is None or val < best:
                best = val
    nbits = len(colpairs)
    pad = (-nbits) % 6
    padded = best << pad
    ngroups = (nbits + pad) // 6
    body = bytes(
        ((padded >> (6 * k)) & 63) + 63 for k in range(ngroups - 1, -1, -1)
    )
    return graph6._encode_order(n).decode("ascii") + body.decode("ascii")


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| by brute force over degree-preserving permutations; order <= 9."""
    n = g.n
    if n > 9:
        raise ValueError("automorphism_count is brute force and capped at order 9")
    if n <= 1:
        return 1
    degs = g.degrees()
    classes = _degree_blocks(sorted(range(n), key=degs.__getitem__), degs)
    rows = g.rows
    pairs = pair_list(n)
    count = 0
    image = [0] * n
    for assignment in product(*(permutations(c) for c in classes)):
        for cls, img in zip(classes, assignment):
            for src, dst in zip(cls, img):
                image[src] = dst
        if all(
            ((rows[i] >> j) & 1) == ((rows[image[i]] >> image[j]) & 1)
            for i, j in pairs
        ):
            count += 1
    return count


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _chunk_size(nbits: int) -> int:
    # Chunking depends on the order alone so that reports cannot depend on
    # the worker count; 2^24 keeps order-9 checkpoints usefully frequent.
    return 1 << 24 if nbits > 28 else 1 << 16


def _extensions(classes):
    """Every neighbourhood N of vertex 0 that leaves at most one vertex of
    each class outside, ascending.  classes are disjoint vertex masks whose
    union is every vertex of H; a singleton class leaves its vertex free."""
    out = [0]
    for cls in classes:
        options = [cls]
        w = cls
        while w:
            low = w & -w
            options.append(cls ^ low)
            w ^= low
        out = [x | o for x in out for o in options]
    out.sort()
    return out


def _extends_td(rows, t_h, nbhd):
    """Whether H plus vertex 0 joined to nbhd is triangle-distinct.

    rows are H's adjacency rows on vertices 1..n-1 (row 0 empty) and t_h its
    triangle degrees.  Joining vertex 0 to nbhd adds |nbhd & N_H(v)| to the
    triangle degree of each v in nbhd, leaves the others alone, and gives
    vertex 0 the edges inside nbhd, which is half the sum of the additions.
    """
    seen = 0
    twice0 = 0
    for v in range(1, len(rows)):
        t = t_h[v]
        if nbhd >> v & 1:
            c = (nbhd & rows[v]).bit_count()
            twice0 += c
            t += c
        bit = 1 << t
        if seen & bit:
            return False
        seen |= bit
    return not seen & (1 << (twice0 >> 1))


def _scan_chunk(args):
    """Scan counters [start, end); return (visited, candidates, hit counters).

    The range must be aligned to 2^(n-1) counters, one block per graph
    H = G - 0 (see the module docstring); an unaligned one raises ValueError.
    """
    n, start, end, regular_d, max_edges = args
    k = n - 1
    if start % (1 << k) or end % (1 << k):
        raise ValueError(
            "scan range [%d, %d) is not aligned to 2^%d counters" % (start, end, k)
        )
    pairs = pair_list(n)[k:]  # H's pairs, in G's labels: hi bit b is pairs[b]
    bi = tuple(p[0] for p in pairs)
    bj = tuple(p[1] for p in pairs)
    mi = tuple(1 << p[0] for p in pairs)
    mj = tuple(1 << p[1] for p in pairs)
    # with_room[s]: how many N have at most s vertices
    with_room = [sum(comb(k, i) for i in range(s + 1)) for s in range(k + 1)]
    extensions = {}  # tie partition of H's triangle degrees -> _extensions
    hits = []
    candidates = 0
    for hi in range(start >> k, end >> k):
        rows = [0] * n
        w = hi
        while w:
            low = w & -w
            b = low.bit_length() - 1
            rows[bi[b]] |= mj[b]
            rows[bj[b]] |= mi[b]
            w ^= low
        room = k if max_edges is None else min(k, max_edges - hi.bit_count())
        if room < 0:
            continue
        base = hi << k
        if regular_d is not None:
            # G is d-regular iff N is exactly H's vertices of degree d - 1,
            # every other vertex of H has degree d, and |N| = d.
            nbhd = 0
            for v in range(1, n):
                deg = rows[v].bit_count()
                if deg == regular_d - 1:
                    nbhd |= 1 << v
                elif deg != regular_d:
                    break
            else:
                if nbhd.bit_count() == regular_d <= room:
                    candidates += 1
                    if _extends_td(rows, triangle_degrees_rows(rows), nbhd):
                        hits.append(base | nbhd >> 1)
            continue
        candidates += with_room[room]
        t_h = triangle_degrees_rows(rows)
        classes = {}
        for v in range(1, n):
            classes[t_h[v]] = classes.get(t_h[v], 0) | 1 << v
        key = tuple(classes.values())
        todo = extensions.get(key)
        if todo is None:
            todo = extensions[key] = _extensions(key)
        for nbhd in todo:
            if nbhd.bit_count() <= room and _extends_td(rows, t_h, nbhd):
                hits.append(base | nbhd >> 1)
    return end - start, candidates, hits


# ---------------------------------------------------------------------------
# checkpoints (plain text, atomic replace)

_CKPT_MAGIC = "trideg-checkpoint v1"
_CKPT_COUNTS = ("cursor", "visited", "candidates")


def _write_checkpoint(path, config, cursor, visited, candidates, hit_lines):
    """Replace the checkpoint file; hit_lines are the hits' graph6 strings."""
    fields = dict(config, cursor=cursor, visited=visited, candidates=candidates)
    lines = [_CKPT_MAGIC] + ["%s=%d" % kv for kv in fields.items()] + ["hits:"] + hit_lines
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _read_checkpoint(path, config):
    """(cursor, visited, candidates, hit counters, hit graph6 lines) from a
    checkpoint file.

    A malformed file raises CheckpointError naming the file and the field or
    line; so does a cursor off the chunk grid, or a visited count that is not
    the counters below the cursor.  A well-formed one written for another
    configuration raises a plain ValueError.  Header keys this version does
    not write are ignored, so checkpoints from versions that recorded more
    settings still resume.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CKPT_MAGIC:
        raise CheckpointError("not a checkpoint file: %s" % path)
    if "hits:" not in lines:
        raise CheckpointError("checkpoint %s has no 'hits:' line" % path)
    end = lines.index("hits:")
    kv = {}
    for lineno, line in enumerate(lines[1:end], start=2):
        key, _, value = line.partition("=")
        try:
            kv[key] = int(value)
        except ValueError:
            raise CheckpointError(
                "checkpoint %s line %d: expected key=integer, got %r" % (path, lineno, line)
            ) from None
    missing = [k for k in (*config, *_CKPT_COUNTS) if k not in kv]
    if missing:
        raise CheckpointError("checkpoint %s is missing %s" % (path, ", ".join(missing)))
    for key, want in config.items():
        if kv[key] != want:
            raise ValueError(
                "checkpoint %s does not match this run: %s=%s, expected %s"
                % (path, key, kv[key], want)
            )
    n = config["order"]
    first, last, cursor = config["range_start"], config["range_end"], kv["cursor"]
    chunk = _chunk_size(n * (n - 1) // 2)
    if cursor != last and not (first <= cursor < last and (cursor - first) % chunk == 0):
        raise CheckpointError(
            "checkpoint %s: cursor=%d is not a chunk boundary of [%d, %d)"
            % (path, cursor, first, last)
        )
    if kv["visited"] != cursor - first:
        raise CheckpointError(
            "checkpoint %s: visited=%d, but the cursor says %d counters were scanned"
            % (path, kv["visited"], cursor - first)
        )
    hits, hit_lines = [], []
    for lineno, line in enumerate(lines[end + 1 :], start=end + 2):
        if not line:
            continue
        try:
            g = graph6.decode(line)
        except graph6.Graph6Error as exc:
            raise CheckpointError(
                "checkpoint %s line %d: undecodable hit: %s" % (path, lineno, exc)
            ) from None
        if g.n != n:
            raise CheckpointError(
                "checkpoint %s line %d: hit of order %d, expected %d" % (path, lineno, g.n, n)
            )
        hits.append(counter_of_graph(g))
        hit_lines.append(graph6.encode(g))
    return cursor, kv["visited"], kv["candidates"], hits, hit_lines


# ---------------------------------------------------------------------------
# driver


def _enumerate_range(
    n,
    *,
    regular_only=None,
    max_edges=None,
    workers=None,
    checkpoint_path=None,
    chunk_limit=None,
    progress=None,
):
    """Scan the whole counter range for one configuration; return
    (visited, candidates, hit counters in counter order)."""
    nbits = n * (n - 1) // 2
    total = 1 << nbits
    config = {
        "order": n,
        "regular": -1 if regular_only is None else regular_only,
        "max_edges": -1 if max_edges is None else max_edges,
        "range_start": 0,
        "range_end": total,
    }
    cursor, visited, candidates, hits, hit_lines = 0, 0, 0, [], []
    if checkpoint_path and os.path.exists(checkpoint_path):
        cursor, visited, candidates, hits, hit_lines = _read_checkpoint(checkpoint_path, config)
    if workers is None:
        workers = default_workers()
    chunk = _chunk_size(nbits)
    pairs = pair_list(n)
    tasks = [
        (n, s, min(s + chunk, total), regular_only, max_edges)
        for s in range(cursor, total, chunk)
    ]
    done_chunks = 0

    def absorb(result, task_end):
        nonlocal cursor, visited, candidates, done_chunks
        visited += result[0]
        candidates += result[1]
        hits.extend(result[2])
        cursor = task_end
        done_chunks += 1
        if checkpoint_path:
            hit_lines.extend(graph6.encode(graph_from_counter(n, x, pairs)) for x in result[2])
            _write_checkpoint(checkpoint_path, config, cursor, visited, candidates, hit_lines)
        if progress:
            progress(cursor, total)

    def interrupted(reason):
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, config, cursor, visited, candidates, hit_lines)
        return SearchInterrupted(
            "%s at counter %d of %d%s"
            % (
                reason,
                cursor,
                total,
                "; resume from %s" % checkpoint_path if checkpoint_path else "",
            ),
            checkpoint_path,
            cursor,
            total,
        )

    try:
        if workers <= 1 or len(tasks) <= 1:
            for task in tasks:
                if chunk_limit is not None and done_chunks >= chunk_limit:
                    raise interrupted("stopped after %d chunks" % done_chunks)
                absorb(_scan_chunk(task), task[2])
        else:
            with Pool(processes=workers) as pool:
                for task, result in zip(tasks, pool.imap(_scan_chunk, tasks)):
                    absorb(result, task[2])
                    if chunk_limit is not None and done_chunks >= chunk_limit:
                        raise interrupted("stopped after %d chunks" % done_chunks)
    except KeyboardInterrupt:
        raise interrupted("interrupted") from None
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return visited, candidates, hits


def _class_key(g: Graph) -> int:
    """g's adjacency matrix with each vertex named by its triangle degree,
    packed into one int: row t (the vertex of triangle degree t) sits at bit
    offset t * C(n, 2), and its bit u is the neighbour of triangle degree u.

    This is g relabeled by triangle degree.  A triangle-distinct graph has
    only one such relabeling, so isomorphic hits get equal keys and the key
    identifies the class.  Distinctness is rechecked here from the rows; a
    hit that fails raises CertificationError.
    """
    t = triangle_degrees_rows(g.rows)
    if g.n < 2 or len(set(t)) != g.n:
        raise CertificationError(
            "scan hit %s is not triangle-distinct: triangle degrees %s"
            % (graph6.encode(g), list(t))
        )
    width = g.n * (g.n - 1) // 2  # exceeds every triangle degree
    name = [1 << x for x in t]
    key = 0
    for v, nv in enumerate(g.rows):
        row = 0
        while nv:
            low = nv & -nv
            row |= name[low.bit_length() - 1]
            nv ^= low
        key |= row << (t[v] * width)
    return key


def _report(n, visited, candidates, hits, count_automorphisms, **fields):
    """The SearchReport of a finished scan, one class per canonical form.

    Hits are grouped by _class_key, and canonical_form runs once per group.
    A triangle-distinct graph has only the trivial automorphism, so each
    class has aut_size 1 and exactly n! labelings among the hits; a scan
    whose hit count says otherwise is wrong and raises CertificationError.
    """
    pairs = pair_list(n)
    by_key = {}
    for x in hits:
        g = graph_from_counter(n, x, pairs)
        by_key.setdefault(_class_key(g), g)
    by_canon = {canonical_form(g): g for g in by_key.values()}
    labelings = factorial(n)
    aut = {"aut_size": 1, "labeled_count": labelings} if count_automorphisms else {}
    entries = tuple(
        ClassEntry(canon, g.m, tuple(sorted(triangle_degrees(g), reverse=True)), **aut)
        for canon, g in sorted(by_canon.items())
    )
    if len(hits) != labelings * len(entries):
        raise CertificationError(
            "order %d scan found %d labeled triangle-distinct graphs in %d classes, "
            "not %d! = %d per class" % (n, len(hits), len(entries), n, labelings)
        )
    return SearchReport(
        order=n,
        labeled_count=visited,
        candidates=candidates,
        td_labeled=len(hits),
        td_classes=entries,
        min_edges=min((e.edges for e in entries), default=None),
        **fields,
    )


def enumerate_td(
    n: int,
    *,
    regular_only: int | None = None,
    max_edges: int | None = None,
    workers: int | None = None,
    allow_slow: bool = False,
    checkpoint_path=None,
    count_automorphisms: bool = False,
    chunk_limit: int | None = None,
    progress=None,
) -> SearchReport:
    """Every labeled graph of order n, reported up to isomorphism.

    2 <= n <= 9; n = 9 is 2^36 graphs and demands allow_slow=True.
    chunk_limit stops cooperatively after that many chunks (checkpoint_path
    required), raising SearchInterrupted exactly like an external interrupt;
    it exists for tests and schedulers, not for normal runs.
    """
    if not 2 <= n <= 9:
        raise ValueError("enumeration supports orders 2..9, got %d" % n)
    if n == 9 and not allow_slow:
        raise ValueError(
            "order 9 enumerates 2^36 labeled graphs; pass allow_slow=True "
            "(and preferably a checkpoint path) to run it"
        )
    if chunk_limit is not None and not checkpoint_path:
        raise ValueError("chunk_limit without checkpoint_path would lose the partial scan")
    if regular_only is not None and not 0 <= regular_only < n:
        raise ValueError("regular_only degree %d out of range for order %d" % (regular_only, n))
    if max_edges is not None and max_edges < 0:
        # checkpoints write "no cap" as max_edges=-1
        raise ValueError("max_edges must be >= 0, got %d" % max_edges)
    visited, candidates, hits = _enumerate_range(
        n,
        regular_only=regular_only,
        max_edges=max_edges,
        workers=workers,
        checkpoint_path=checkpoint_path,
        chunk_limit=chunk_limit,
        progress=progress,
    )
    return _report(
        n,
        visited,
        candidates,
        hits,
        count_automorphisms,
        regular_only=regular_only,
        max_edges=max_edges,
    )


def regular_window_degrees(n: int) -> tuple[int, ...]:
    """Degrees a d-regular triangle-distinct graph of order n could have.

    Exact integer forms of the window sqrt(2n) < d <= n - sqrt(2n/3):
    d*d > 2n and 3*(n-d)^2 >= 2n, plus the handshake parity n*d even.
    """
    out = []
    for d in range(1, n):
        if d * d > 2 * n and 3 * (n - d) * (n - d) >= 2 * n and (n * d) % 2 == 0:
            out.append(d)
    return tuple(out)


def probe_regular(
    n: int,
    *,
    workers: int | None = None,
    allow_slow: bool = False,
    checkpoint_path=None,
    count_automorphisms: bool = False,
    progress=None,
) -> SearchReport:
    """Exhaust every feasible regular degree of order n for TD witnesses.

    The degree window comes from the structural bounds; degrees outside it
    cannot carry a regular triangle-distinct graph, so they are not scanned.
    An empty window returns an immediate all-zero report.  Checkpoints, when
    requested, are kept per degree under '<path>.d<degree>'.
    """
    if not 2 <= n <= 9:
        raise ValueError("probe supports orders 2..9, got %d" % n)
    if n == 9 and not allow_slow:
        raise ValueError("order 9 probes enumerate 2^36 counters per degree; pass allow_slow=True")
    degrees = regular_window_degrees(n)
    visited = candidates = 0
    hits = []
    for d in degrees:
        ckpt = ("%s.d%d" % (checkpoint_path, d)) if checkpoint_path else None
        v, c, h = _enumerate_range(
            n,
            regular_only=d,
            workers=workers,
            checkpoint_path=ckpt,
            progress=progress,
        )
        visited += v
        candidates += c
        hits.extend(h)
    return _report(n, visited, candidates, hits, count_automorphisms, regular_degrees=degrees)
