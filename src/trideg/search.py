"""Exhaustive search for triangle-distinct graphs, canonical forms, and the
regular-graph probe.

Enumeration strategy.  Deleting a vertex from a graph G of order n leaves a
graph of order n-1, so G is some unlabeled graph H of order n-1 plus one
vertex joined to a set N of H's vertices (the orderly idea of Read, "Every
one a winner", 1978).  The search therefore extends one representative of
each isomorphism class of order n-1 instead of every labeled graph:

  * Levels.  The unlabeled graphs of orders 1..n-1 are built level by level:
    every graph of a level gets one new vertex joined in every possible way,
    and the children are deduplicated by canonical_form.  A level is the
    sorted list of its canonical graph6 strings.  A child is labeled only
    when its new vertex has the largest (degree, triangle degree) pair, ties
    included, read off the parent's before the child is built: every graph
    is still reached by deleting a vertex with the largest pair (canonical
    deletion, McKay, "Isomorph-free exhaustive generation", 1998).  Levels
    are pruned only by properties every induced subgraph inherits, so each
    kept graph still has a kept parent: under an edge cap E, m <= E; for a
    d-regular scan of order n, a graph of order k must have every degree in
    [d - (n - k), d], since it is an induced subgraph of a d-regular graph.
  * Extension.  Each H of level n-1 is put on vertices 1..n-1 and joined to
    vertex 0 by every admissible N.  G's triangle degrees follow from H's:
    t(v) = t_H(v) + |N & N_H(v)| for v in N, t(v) = t_H(v) otherwise, and
    t(0) is half the sum of the additions.  Two vertices of H outside N keep
    their triangle degrees, so only the N that leave at most one vertex of
    each tie class of t_H outside are tested, each by a full distinctness
    check of all n values that also asks t(0) to be the largest: the vertex
    w of G of largest triangle degree is unique, so G is found only from the
    level's copy of G - w (canonical deletion again).  Under an edge cap
    only N with |N| <= E - m(H) count, and a d-regular scan has one possible
    N: the vertices of degree d-1, valid when every other vertex has degree
    d and |N| = d.

Work is cut into fixed slices of each parent list (32 from order 7 on, else
one; never a function of the worker count); level steps and the extension run
slice by slice, in a process pool when workers > 1, and results merge in
slice order.  Reports therefore serialize to identical bytes for any worker
count.

Counts in closed form.  A scan accounts for every labeled graph of order n,
so labeled_count is 2^C(n,2) per scan.  candidates, the labeled graphs that
pass the edge-cap or regularity filter, is 2^C(n,2), the binomial prefix sum
of C(C(n,2), k) over k <= E, or the number of labeled d-regular graphs
(_regular_count).  An automorphism preserves triangle degrees, so it fixes
every vertex of a triangle-distinct graph: Aut is trivial, each class has
aut_size 1 and exactly n! labelings, and td_labeled is n! * classes.

Certification.  Hits are keyed by their relabeling by triangle degree, which
for a triangle-distinct graph is already canonical (_class_key rechecks
distinctness from the rows); canonical_form runs once per class.  Class G
has one parent H, the level's copy of G - w, and as Aut(G) is trivial, the N
of H that give G are the |Aut(H)| distinct images of N_G(w).  Each slice checks that count
with one automorphism_count(H) per parent with hits and keeps one
representative per class; a count that differs, or a class found again from
a second parent, raises CertificationError.

Orders 2..9 are supported; order 9 takes about 3 s in one process, about
1 s of it in the 24,681 canonical labelings that make levels 2..8 (of
144,922 children).  A scan can checkpoint after every extension slice to a
plain-text file holding the slices done and one graph6 representative per
class found so far, closed by a CRC-32 line over everything before it, so an
edited file is refused as malformed rather than failing certification.  An
interruption surfaces as SearchInterrupted, and rerunning the same call
rebuilds the levels and resumes from the file.

Canonical forms are capped at order 9: the lexicographically smallest graph6
body over the vertex orderings that list degrees ascending, found by _label
without listing the orderings.  The restriction to degree-sorted orderings
is isomorphism-invariant, so equal canonical strings is the same relation
as isomorphism, which is all the de-duplication needs.
"""

import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb, factorial, prod
from multiprocessing import Pool

from . import graph6
from .construction import CertificationError
from .graphs import (  # noqa: F401  is_triangle_distinct is re-exported
    Graph,
    _distinct,
    is_triangle_distinct,
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

    labeled_count is the number of labeled graphs accounted for (2^C(n,2)
    per scan); candidates is how many of them pass the edge-count and
    regularity filters.  td_labeled is the number of labeled
    triangle-distinct graphs among them.  td_classes holds one entry per
    isomorphism class, sorted by canonical graph6 string.  For a probe over
    regular graphs, regular_degrees lists every degree that was enumerated.
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


@cache
def _spread(n):
    """_spread(n)[mask]: bit n * u set for each vertex u in mask, the low bit
    of u's field when n bits are packed per vertex."""
    out = [0] * (1 << n)
    for x in range(1, 1 << n):
        low = x & -x
        out[x] = out[x ^ low] | 1 << n * (low.bit_length() - 1)
    return out


def _label(g: Graph) -> tuple[int, int]:
    """(body, count): the smallest graph6 body of g, as an int of C(n, 2)
    bits, over the vertex orderings whose degrees read ascending, and how
    many of those orderings give it, which is |Aut(g)|.  Order <= 9.

    Column j of the body holds the pairs (i, j), i < j, so orderings are
    built a position at a time from the degree block at that position, and
    only the partial orderings whose columns so far are smallest are kept.
    A state is the unplaced vertices and, packed n bits per vertex, the
    positions each is joined to (bit n - 1 - i for position i, so comparing
    fields compares columns).  Partial orderings with equal states complete
    alike, so each state is kept once with the count of those behind it.
    """
    n, rows = g.n, g.rows
    if n > 9:
        raise ValueError("canonical labeling is capped at order 9, got %d" % n)
    full, spread = (1 << n) - 1, _spread(n)
    degs = [row.bit_count() for row in rows]
    block = {}
    for v, d in enumerate(degs):
        block[d] = block.get(d, 0) | 1 << v
    states = {(full, 0): 1}  # (unplaced, packed fields) -> partial orderings
    body = 0
    for j, d in enumerate(sorted(degs)):
        best, nxt, shift = full, {}, n - 1 - j
        for (left, packed), count in states.items():
            w = left & block[d]
            while w:
                low = w & -w
                w ^= low
                v = low.bit_length() - 1
                col = packed >> n * v & full
                if col > best:
                    continue
                if col < best:
                    best, nxt = col, {}
                rest = left ^ low
                key = (rest, (packed | spread[rows[v]] << shift) & spread[rest] * full)
                nxt[key] = nxt.get(key, 0) + count
        body = body << j | best >> (n - j)
        states = nxt
    return body, sum(states.values())


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string; equal strings iff isomorphic.  Order <= 9.

    The graph6 encoding of g under the vertex ordering, among those whose
    degrees read ascending, with the smallest body (see _label).  Restricting
    to degree-sorted orderings is isomorphism-invariant, so equal strings is
    the same relation as isomorphism.
    """
    body, _ = _label(g)
    nbits = g.n * (g.n - 1) // 2
    pad = (-nbits) % 6
    padded = body << pad
    groups = bytes(((padded >> 6 * k) & 63) + 63 for k in range((nbits + pad) // 6 - 1, -1, -1))
    return graph6._encode_order(g.n).decode("ascii") + groups.decode("ascii")


def automorphism_count(g: Graph) -> int:
    """|Aut(g)|: the number of degree-sorted orderings that give g's
    canonical body (see _label).  Order <= 9."""
    return _label(g)[1]


# ---------------------------------------------------------------------------
# counts in closed form


def _candidates(n, regular_d, max_edges):
    """Labeled graphs of order n that pass the edge cap or regularity filter."""
    nbits = n * (n - 1) // 2
    if regular_d is not None:
        if max_edges is not None and n * regular_d > 2 * max_edges:
            return 0
        return _regular_count(n, regular_d)
    if max_edges is None:
        return 1 << nbits
    return sum(comb(nbits, k) for k in range(min(max_edges, nbits) + 1))


def _regular_count(n, d):
    """Labeled d-regular graphs on n vertices.

    Vertices are removed one at a time, each joined to the vertices left.  A
    state counts the vertices left by how many neighbours they still miss
    (state[r - 1] miss r); the removed vertex is one that misses the most,
    and it picks that many neighbours among the vertices still missing one.
    The count depends only on the state, since vertices that miss the same
    number are interchangeable.
    """

    @cache
    def count(state):
        top = len(state)
        while top and not state[top - 1]:
            top -= 1
        if not top:
            return 1
        rest = list(state)
        rest[top - 1] -= 1
        total = 0
        for pick in product(*(range(min(c, top) + 1) for c in rest)):
            if sum(pick) != top:
                continue
            nxt = [c - j for c, j in zip(rest, pick)]
            for r in range(1, len(nxt)):
                nxt[r - 1] += pick[r]  # a picked vertex misses one fewer
            total += prod(comb(c, j) for c, j in zip(rest, pick)) * count(tuple(nxt))
        return total

    return count((0,) * (d - 1) + (n,)) if 0 < d < n else int(d == 0)


# ---------------------------------------------------------------------------
# levels and extension

def _slice_count(n):
    """Work units per level step and per extension of an order-n search.
    Fixed by the order, so that neither the results nor their order can
    depend on the worker count.  Below order 7 a whole search takes
    milliseconds, less than a checkpoint write per slice would."""
    return 32 if n >= 7 else 1


def _slices(items, count):
    """items cut into count contiguous slices, some possibly empty."""
    k = len(items)
    return [items[i * k // count : (i + 1) * k // count] for i in range(count)]


@contextmanager
def _runner(workers):
    """map, or an ordered process-pool map when workers > 1."""
    if workers <= 1:
        yield map
    else:
        with Pool(processes=workers) as pool:
            yield pool.imap


def _admits(g, n, regular_d, max_edges):
    """Whether g can be an induced subgraph of a graph of order n that the
    scan looks for: m <= max_edges, and for a d-regular scan every degree in
    [d - (n - g.n), d].  Both survive vertex deletion."""
    if max_edges is not None and g.m > max_edges:
        return False
    if regular_d is None:
        return True
    low = regular_d - (n - g.n)
    return all(low <= x <= regular_d for x in g.degrees())


def _grow_slice(args):
    """The canonical forms of the children of the parents (graph6 strings of
    one order k) that _admits keeps and in which vertex k has the largest
    (degree, triangle degree) pair, ties kept; a child is a parent plus
    vertex k joined to any subset N of its vertices.

    No graph is lost (canonical deletion, McKay 1998).  Take an admitted G
    of order k + 1 and a vertex w of G with the largest pair.  G - w is
    admitted too, so the level holds a parent isomorphic to it, and that
    parent's child for the image of N_G(w) is G with vertex k in w's place.
    The pairs are read from the parent's, before the child is built: vertex
    k gets degree |N| and triangle degree half the sum of the |N & N_H(v)|
    over v in N, each v in N gains 1 and |N & N_H(v)|, and the rest keep
    theirs.
    """
    parents, n, regular_d, max_edges = args
    found = set()
    for text in parents:
        h = graph6.decode(text)
        k, hrows = h.n, h.rows
        t_h = triangle_degrees_rows(hrows)
        full = (1 << k) - 1
        # at_least[d]: the vertices of H of degree at least d
        at_least = [0] * (k + 2)
        for v, row in enumerate(hrows):
            for d in range(row.bit_count() + 1):
                at_least[d] |= 1 << v
        for nbhd in range(1 << k):
            d = nbhd.bit_count()
            if nbhd & at_least[d] or (full ^ nbhd) & at_least[d + 1]:
                continue  # an old vertex ends with degree above d
            tied = nbhd & at_least[d - 1] | (full ^ nbhd) & at_least[d]  # ... with degree d
            if tied:
                twice = sum((nbhd & hrows[v]).bit_count() for v in range(k) if nbhd >> v & 1)
                if any(
                    t_h[v] + (nbhd >> v & 1 and (nbhd & hrows[v]).bit_count()) > twice >> 1
                    for v in range(k)
                    if tied >> v & 1
                ):
                    continue
            rows = [r | (nbhd >> v & 1) << k for v, r in enumerate(hrows)]
            rows.append(nbhd)
            child = Graph._trusted(k + 1, rows, h.m + d)
            if _admits(child, n, regular_d, max_edges):
                found.add(canonical_form(child))
    return found


def _levels(n, regular_d, max_edges, run):
    """[level 1, ..., level n - 1]: the sorted canonical graph6 strings of
    the graphs of each order that _admits keeps; run maps a function over
    the slices of a level, in order."""
    levels = [["@"]]  # the graph of order 1
    for _ in range(2, n):
        tasks = [(part, n, regular_d, max_edges) for part in _slices(levels[-1], _slice_count(n))]
        found = set()
        for part in run(_grow_slice, tasks):
            found |= part
        levels.append(sorted(found))
    return levels


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
    """Whether H plus vertex 0 joined to nbhd is triangle-distinct with
    vertex 0's triangle degree larger than every other.

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
    return not seen >> (twice0 >> 1)


def _regular_nbhd(rows, d):
    """[N] for the one N that makes H plus vertex 0 d-regular, else []: N is
    exactly H's vertices of degree d - 1, every other vertex of H must have
    degree d, and |N| = d.  rows are as for _extends_td."""
    nbhd = 0
    for v in range(1, len(rows)):
        deg = rows[v].bit_count()
        if deg == d - 1:
            nbhd |= 1 << v
        elif deg != d:
            return []
    return [nbhd] if nbhd.bit_count() == d else []


def _extend_slice(args):
    """(class key, representative Graph) for each class of triangle-distinct
    G = H + vertex 0, with t(0) largest, over the parents H (graph6 strings
    of order n - 1) within the edge cap or regularity filter, by parent and
    then by first N.  A class not hit exactly |Aut(H)| times (see the module
    docstring) raises CertificationError naming the parent and the class."""
    parents, n, regular_d, max_edges = args
    extensions = {}  # tie partition of H's triangle degrees -> _extensions
    found = []
    for text in parents:
        h = graph6.decode(text)
        rows = [0] + [r << 1 for r in h.rows]  # H on vertices 1..n-1
        room = n - 1 if max_edges is None else min(n - 1, max_edges - h.m)
        t_h = triangle_degrees_rows(rows)
        if regular_d is not None:
            todo = _regular_nbhd(rows, regular_d)
        else:
            classes = {}
            for v in range(1, n):
                classes[t_h[v]] = classes.get(t_h[v], 0) | 1 << v
            key = tuple(classes.values())
            todo = extensions.get(key)
            if todo is None:
                todo = extensions[key] = _extensions(key)
        hits = {}  # class key -> [representative, hits]
        for nbhd in todo:
            if nbhd.bit_count() <= room and _extends_td(rows, t_h, nbhd):
                g = [r | (nbhd >> v & 1) for v, r in enumerate(rows)]
                g[0] = nbhd
                g = Graph._trusted(n, g)
                hits.setdefault(_class_key(g), [g, 0])[1] += 1
        if hits:
            aut = automorphism_count(h)
            for key, (g, count) in hits.items():
                if count != aut:
                    raise CertificationError(
                        "order %d class %s was reached %d times from its parent %s, "
                        "not |Aut(H)| = %d" % (n, graph6.encode(g), count, text, aut)
                    )
                found.append((key, g))
    return found


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
    if not _distinct(t):
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


# ---------------------------------------------------------------------------
# checkpoints (plain text, atomic replace)

_CKPT_MAGIC = "trideg-checkpoint v3"
_CKPT_RETIRED = {"trideg-checkpoint v1": "counter", "trideg-checkpoint v2": "hit-count"}
_CKPT_SUM = "crc32 "


def _write_checkpoint(path, config, cursor, classes):
    """Replace the checkpoint file: the slices done, then one graph6
    representative per class, then 'crc32 <8 hex digits>', the CRC-32 of all
    the bytes before that last line."""
    lines = [_CKPT_MAGIC] + ["%s=%d" % kv for kv in dict(config, cursor=cursor).items()]
    lines.append("classes:")
    lines += [graph6.encode(g) for g in classes.values()]
    body = "\n".join(lines) + "\n"
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write(body + _CKPT_SUM + _digest(body) + "\n")
    os.replace(tmp, path)


def _digest(body: str) -> str:
    # CRC-32 from zlib, not hashlib: importing hashlib loads OpenSSL, which
    # adds about 4 MB to the peak RSS of a search
    return "%08x" % zlib.crc32(body.encode("ascii"))


def _read_checkpoint(path, config):
    """(cursor, classes) from a checkpoint file, classes as _scan keeps them.

    A malformed file raises CheckpointError naming the file and the field or
    line: text that is not ASCII, a missing or wrong checksum line (an
    edited, damaged or cut-short file), a missing or non-integer field, a
    cursor that is not a slice count, or a class line that is not the graph6
    string of a triangle-distinct graph of the run's order or repeats a
    class.  A file of a retired format (v1, the counter scan; v2, with a hit
    count per class) says so.  A well-formed file written for another
    configuration raises a plain ValueError.  Header keys this version does
    not write are ignored.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise CheckpointError("checkpoint %s is not ASCII text" % path) from None
    lines = text.splitlines()
    if lines and lines[0] in _CKPT_RETIRED:
        raise CheckpointError(
            "checkpoint %s is in the old %s format (%s), which this version "
            "cannot resume; delete it to scan afresh" % (path, _CKPT_RETIRED[lines[0]], lines[0])
        )
    if not lines or lines[0] != _CKPT_MAGIC:
        raise CheckpointError("not a checkpoint file: %s" % path)
    head, _, last = text.removesuffix("\n").rpartition("\n")
    if not last.startswith(_CKPT_SUM):
        raise CheckpointError(
            "checkpoint %s has no checksum line: it was cut short or written by an "
            "older version; delete it to scan afresh" % path
        )
    if last != _CKPT_SUM + _digest(head + "\n"):
        raise CheckpointError("checkpoint %s does not match its checksum: it was edited or damaged" % path)
    lines = head.splitlines()
    if "classes:" not in lines:
        raise CheckpointError("checkpoint %s has no 'classes:' line" % path)
    end = lines.index("classes:")
    kv = {}
    for lineno, line in enumerate(lines[1:end], start=2):
        key, _, value = line.partition("=")
        try:
            kv[key] = int(value)
        except ValueError:
            raise CheckpointError(
                "checkpoint %s line %d: expected key=integer, got %r" % (path, lineno, line)
            ) from None
    missing = [k for k in (*config, "cursor") if k not in kv]
    if missing:
        raise CheckpointError("checkpoint %s is missing %s" % (path, ", ".join(missing)))
    for key, want in config.items():
        if kv[key] != want:
            raise ValueError(
                "checkpoint %s does not match this run: %s=%s, expected %s"
                % (path, key, kv[key], want)
            )
    n, cursor = config["order"], kv["cursor"]
    if not 0 <= cursor <= _slice_count(n):
        raise CheckpointError(
            "checkpoint %s: cursor=%d is not a slice count 0..%d" % (path, cursor, _slice_count(n))
        )
    classes = {}
    for lineno, line in enumerate(lines[end + 1 :], start=end + 2):
        if not line:
            continue
        where = "checkpoint %s line %d" % (path, lineno)
        try:
            g = graph6.decode(line)
        except ValueError as exc:
            raise CheckpointError("%s: expected a graph6 class: %s" % (where, exc)) from None
        if g.n != n:
            raise CheckpointError("%s: class of order %d, expected %d" % (where, g.n, n))
        try:
            key = _class_key(g)
        except CertificationError as exc:
            raise CheckpointError("%s: %s" % (where, exc)) from None
        if key in classes:
            raise CheckpointError("%s: repeats the class of %s" % (where, graph6.encode(classes[key])))
        classes[key] = g
    return cursor, classes


# ---------------------------------------------------------------------------
# driver


def _scan(
    n,
    *,
    regular_d=None,
    max_edges=None,
    workers=None,
    checkpoint_path=None,
    progress=None,
):
    """Build the levels and extend level n - 1 for one configuration; return
    {class key: representative Graph} in order of discovery.  A class found
    from a second parent raises CertificationError.

    progress(graphs extended, level size) is called once per extension
    slice, never while the levels are built.
    """
    config = {
        "order": n,
        "regular": -1 if regular_d is None else regular_d,
        "max_edges": -1 if max_edges is None else max_edges,
    }
    cursor, classes = 0, {}
    if checkpoint_path and os.path.exists(checkpoint_path):
        cursor, classes = _read_checkpoint(checkpoint_path, config)
    slices = _slice_count(n)
    if workers is None:
        workers = default_workers()

    def absorb(found):
        nonlocal cursor
        for key, g in found:
            if key in classes:
                raise CertificationError(
                    "order %d class %s was reached from a second parent" % (n, graph6.encode(g))
                )
            classes[key] = g
        cursor += 1
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, config, cursor, classes)

    try:
        with _runner(workers if slices > 1 else 1) as run:
            level = _levels(n, regular_d, max_edges, run)[-1]
            tasks = [(part, n, regular_d, max_edges) for part in _slices(level, slices)[cursor:]]
            for found in run(_extend_slice, tasks):
                absorb(found)
                if progress:
                    progress(cursor * len(level) // slices, len(level))
    except KeyboardInterrupt:
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, config, cursor, classes)
        resume = "; resume from %s" % checkpoint_path if checkpoint_path else ""
        raise SearchInterrupted(
            "interrupted at slice %d of %d%s" % (cursor, slices, resume), checkpoint_path, cursor, slices
        ) from None
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return classes


def _report(n, classes, count_automorphisms, **fields):
    """The SearchReport of finished scans, one entry per class of
    {class key: representative}; the classes were certified as they were
    found (_extend_slice, _scan), and canonical_form runs once per class."""
    by_canon = {canonical_form(g): g for g in classes.values()}
    labelings = factorial(n)
    aut = {"aut_size": 1, "labeled_count": labelings} if count_automorphisms else {}
    entries = tuple(
        ClassEntry(canon, g.m, tuple(sorted(triangle_degrees(g), reverse=True)), **aut)
        for canon, g in sorted(by_canon.items())
    )
    return SearchReport(
        order=n,
        td_labeled=labelings * len(entries),
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
    checkpoint_path=None,
    count_automorphisms: bool = False,
    progress=None,
) -> SearchReport:
    """Every graph of order n, 2 <= n <= 9, reported up to isomorphism."""
    if not 2 <= n <= 9:
        raise ValueError("enumeration supports orders 2..9, got %d" % n)
    if regular_only is not None and not 0 <= regular_only < n:
        raise ValueError("regular_only degree %d out of range for order %d" % (regular_only, n))
    if max_edges is not None and max_edges < 0:
        # checkpoints write "no cap" as max_edges=-1
        raise ValueError("max_edges must be >= 0, got %d" % max_edges)
    classes = _scan(
        n,
        regular_d=regular_only,
        max_edges=max_edges,
        workers=workers,
        checkpoint_path=checkpoint_path,
        progress=progress,
    )
    return _report(
        n,
        classes,
        count_automorphisms,
        labeled_count=1 << (n * (n - 1) // 2),
        candidates=_candidates(n, regular_only, max_edges),
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
    checkpoint_path=None,
    count_automorphisms: bool = False,
    progress=None,
) -> SearchReport:
    """Exhaust every feasible regular degree of order n, 2 <= n <= 9, for TD
    witnesses.

    The degree window comes from the structural bounds; degrees outside it
    cannot carry a regular triangle-distinct graph, so they are not scanned.
    An empty window returns an immediate all-zero report.  Checkpoints, when
    requested, are kept per degree under '<path>.d<degree>'.
    """
    if not 2 <= n <= 9:
        raise ValueError("probe supports orders 2..9, got %d" % n)
    degrees = regular_window_degrees(n)
    classes = {}
    for d in degrees:
        ckpt = ("%s.d%d" % (checkpoint_path, d)) if checkpoint_path else None
        classes.update(
            _scan(n, regular_d=d, workers=workers, checkpoint_path=ckpt, progress=progress)
        )
    return _report(
        n,
        classes,
        count_automorphisms,
        labeled_count=len(degrees) << (n * (n - 1) // 2),
        candidates=sum(_regular_count(n, d) for d in degrees),
        regular_degrees=degrees,
    )
