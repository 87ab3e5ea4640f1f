"""Slow reference implementations the test suite trusts.

Everything here recomputes graph quantities from first principles with
sets, explicit loops, and itertools, deliberately avoiding the bitmask
shortcuts used by the library, so a wrong shortcut cannot confirm
itself.  Only the documented Graph fields (n, rows) are read, one bit
at a time.  The exceptions are two retired search rules kept as
references, which share the search's tie-class generator: the extension by
every G - v (sum_v_classes), which the search used before canonical
deletion, and the labeled counter scan at the end, which it used before it
extended unlabeled graphs; that one walks every labeled graph and is itself
checked against the one-counter-at-a-time scan_chunk_slow.
"""

import decimal
import math
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

from trideg import graph6
from trideg.graphs import Graph, induced, is_triangle_distinct, pair_list, triangle_degrees_rows
from trideg.search import _admits, _extensions, automorphism_count, canonical_form


def edge_set(g):
    edges = set()
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (g.rows[i] >> j) & 1:
                edges.add((i, j))
    return edges


def neighbor_sets(g):
    nbr = [set() for _ in range(g.n)]
    for i, j in edge_set(g):
        nbr[i].add(j)
        nbr[j].add(i)
    return nbr


def degree_list(g):
    return [len(s) for s in neighbor_sets(g)]


def triangle_degree_slow(g, v):
    nbr = neighbor_sets(g)
    return sum(1 for a, b in combinations(sorted(nbr[v]), 2) if b in nbr[a])


def triangle_list_slow(g):
    nbr = neighbor_sets(g)
    out = []
    for v in range(g.n):
        out.append(sum(1 for a, b in combinations(sorted(nbr[v]), 2) if b in nbr[a]))
    return out


def graph6_encode_bitwise(g):
    """graph6 string of g, its body packed one adjacency bit at a time."""
    out = bytearray(graph6._encode_order(g.n))
    acc = nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def complement_edge_set(g):
    every = {(i, j) for i in range(g.n) for j in range(i + 1, g.n)}
    return every - edge_set(g)


def cut_count_slow(g, side_a, side_b):
    edges = edge_set(g)
    return sum(1 for a in side_a for b in side_b if tuple(sorted((a, b))) in edges)


def induced_edge_set(g, keep):
    """Edges among `keep` (an ascending vertex list), relabeled 0..len-1."""
    pos = {v: i for i, v in enumerate(keep)}
    return {
        (pos[a], pos[b])
        for a, b in edge_set(g)
        if a in pos and b in pos
    }


def relabel(g, perm):
    """The graph with vertex i renamed perm[i], rebuilt through the
    validating constructor on purpose."""
    rows = [0] * g.n
    for a, b in edge_set(g):
        rows[perm[a]] |= 1 << perm[b]
        rows[perm[b]] |= 1 << perm[a]
    return Graph(g.n, rows)


def isomorphic_slow(g, h):
    if g.n != h.n:
        return False
    eg, eh = edge_set(g), edge_set(h)
    if len(eg) != len(eh):
        return False
    for perm in permutations(range(g.n)):
        mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in eg}
        if mapped == eh:
            return True
    return False


def automorphism_count_slow(g):
    """The permutations of all n! that map every edge to an edge; a
    permutation is one-to-one on pairs, so those map the edges onto the
    edges."""
    edges = edge_set(g)
    count = 0
    for perm in permutations(range(g.n)):
        if all(tuple(sorted((perm[a], perm[b]))) in edges for a, b in edges):
            count += 1
    return count


def canonical_form_brute(g):
    """The canonical graph6 string by its definition, the brute force that
    search.canonical_form replaced: g encoded under each vertex ordering
    whose degrees read ascending, every ordering within a block of equal
    degrees tried (9! for a regular graph of order 9), smallest body kept.
    The largest block's orderings are generated in the innermost loop."""
    n = g.n
    if n == 0:
        return graph6.encode(g)
    degs = degree_list(g)
    blocks = []
    for v in sorted(range(n), key=degs.__getitem__):
        if blocks and degs[blocks[-1][0]] == degs[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    big = max(range(len(blocks)), key=lambda b: len(blocks[b]))
    colpairs = [(i, j) for j in range(1, n) for i in range(j)]
    best = None
    for rest in product(*(permutations(b) for b in blocks[:big] + blocks[big + 1 :])):
        head, tail = sum(rest[:big], ()), sum(rest[big:], ())
        for middle in permutations(blocks[big]):
            perm = head + middle + tail
            val = 0
            for i, j in colpairs:
                val = (val << 1) | ((g.rows[perm[i]] >> perm[j]) & 1)
            if best is None or val < best[0]:
                best = (val, perm)
    position = {v: i for i, v in enumerate(best[1])}
    return graph6.encode(relabel(g, [position[v] for v in range(n)]))


def iso_partition_slow(graph_list):
    """Partition indices of graph_list into isomorphism classes by pairwise
    permutation search.  Quadratic and factorial, fine for order <= 4."""
    classes = []
    reps = []
    for idx, g in enumerate(graph_list):
        for ci, r in enumerate(reps):
            if isomorphic_slow(g, r):
                classes[ci].append(idx)
                break
        else:
            reps.append(g)
            classes.append([idx])
    return classes


def census_slow(g, k, t):
    """Largest set of vertices of complement degree k-1 whose complement
    neighborhoods share at least k-1-t vertices.  Brute force over all
    subsets of the degree class."""
    n = g.n
    comp_nbr = [set() for _ in range(n)]
    for a, b in complement_edge_set(g):
        comp_nbr[a].add(b)
        comp_nbr[b].add(a)
    cls = [v for v in range(n) if len(comp_nbr[v]) == k - 1]
    best = 0
    for size in range(1, len(cls) + 1):
        for sub in combinations(cls, size):
            common = set(range(n))
            for v in sub:
                common &= comp_nbr[v]
            if len(common) >= k - 1 - t:
                best = size
                break
    return best


def edge_bound_truth(n, e):
    """Whether 2e > (1/3)(sqrt(2n) - 2)^3, settled without the library's
    rationalized restatement.  Exact when 2n is a perfect square, 60-digit
    decimal otherwise (the right side is then irrational, so no tie)."""
    s = math.isqrt(2 * n)
    if s * s == 2 * n:
        return Fraction(2 * e) > Fraction((s - 2) ** 3, 3)
    ctx = decimal.Context(prec=60)
    root = ctx.sqrt(decimal.Decimal(2 * n))
    rhs = ctx.divide(ctx.power(root - 2, 3), 3)
    return decimal.Decimal(2 * e) > rhs


def power_term_exact(base, i):
    """base ** (1 - 1/2**i) to 50 significant digits."""
    ctx = decimal.Context(prec=50)
    b = decimal.Decimal(base)
    exponent = 1 - decimal.Decimal(1) / (1 << i)
    return ctx.power(b, exponent)


def term_ceil_power(base, i):
    """ceil(base ** (1 - 1/2**i)) for base >= 1 from the exact power
    base ** (2**i - 1) by i integer square roots, the computation the
    bounds' term table replaced; its cost grows with the power's size."""
    if i == 0 or base == 1:
        return 1
    x = base ** ((1 << i) - 1)
    f = x
    for _ in range(i):
        f = math.isqrt(f)
    return f if f ** (1 << i) == x else f + 1


def scan_chunk_slow(args):
    """The counter scan that search._scan_chunk replaced, kept as its oracle:
    every counter in [start, end) is decoded to rows and tested on its own
    with the library predicate, which test_is_triangle_distinct_matches_oracle
    checks against triangle_list_slow.  Returns (visited, candidates, hit
    counters) like the scan it checks."""
    n, start, end, regular_d, max_edges = args
    pairs = pair_list(n)
    bi = tuple(p[0] for p in pairs)
    bj = tuple(p[1] for p in pairs)
    mi = tuple(1 << p[0] for p in pairs)
    mj = tuple(1 << p[1] for p in pairs)
    hits = []
    candidates = 0
    for x in range(start, end):
        if max_edges is not None and x.bit_count() > max_edges:
            continue
        rows = [0] * n
        w = x
        while w:
            low = w & -w
            b = low.bit_length() - 1
            rows[bi[b]] |= mj[b]
            rows[bj[b]] |= mi[b]
            w ^= low
        if regular_d is not None:
            ok = True
            for row in rows:
                if row.bit_count() != regular_d:
                    ok = False
                    break
            if not ok:
                continue
        candidates += 1
        if is_triangle_distinct(Graph._trusted(n, rows)):
            hits.append(x)
    return len(range(start, end)), candidates, hits


def grow_slice_all(args):
    """The level step that search._grow_slice replaced, kept as its oracle:
    every child of every parent is built and labeled, with no filter on the
    new vertex.  Returns the canonical forms of the children _admits keeps,
    like the step it checks; put in place of search._grow_slice, it makes
    search._levels build the unfiltered levels."""
    parents, n, regular_d, max_edges = args
    found = set()
    for text in parents:
        h = graph6.decode(text)
        k = h.n
        for nbhd in range(1 << k):
            rows = [r | (nbhd >> v & 1) << k for v, r in enumerate(h.rows)]
            rows.append(nbhd)
            child = Graph._trusted(k + 1, rows, h.m + nbhd.bit_count())
            if _admits(child, n, regular_d, max_edges):
                found.add(canonical_form(child))
    return found


def extends_td(rows, t_h, nbhd):
    """Whether H plus vertex 0 joined to nbhd is triangle-distinct, with no
    condition on which vertex has the largest triangle degree: the search's
    extension test before canonical deletion.  Arguments as for
    search._extends_td."""
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


def sum_v_classes(level, n):
    """The canonical forms of the triangle-distinct graphs of order n, by the
    extension the search used before canonical deletion: every graph H of
    level (every graph of order n - 1) is joined to vertex 0 by every N of
    search._extensions that extends_td accepts.  Each class G is then hit
    once per isomorphism from the level's copy of G - v onto G - v, for each
    v, and an AssertionError is raised unless its hits number
    sum_v |Aut(G - v)|."""
    hits, reps = {}, {}
    for text in level:
        h = graph6.decode(text)
        rows = [0] + [r << 1 for r in h.rows]
        t_h = triangle_degrees_rows(rows)
        ties = {}
        for v in range(1, n):
            ties[t_h[v]] = ties.get(t_h[v], 0) | 1 << v
        for nbhd in _extensions(tuple(ties.values())):
            if extends_td(rows, t_h, nbhd):
                g = Graph(n, [nbhd] + [r | (nbhd >> v & 1) for v, r in enumerate(rows) if v])
                canon = canonical_form(g)
                hits[canon] = hits.get(canon, 0) + 1
                reps.setdefault(canon, g)
    full = (1 << n) - 1
    for canon, g in reps.items():
        want = sum(automorphism_count(induced(g, full ^ 1 << v)) for v in range(n))
        assert hits[canon] == want, (canon, hits[canon], want)
    return set(hits)


# ---------------------------------------------------------------------------
# the retired labeled counter scan, kept as the n <= 8 oracle of the search


def chunk_size(nbits):
    """Counters per chunk of the labeled scan of C(n,2) = nbits pairs."""
    return 1 << 24 if nbits > 28 else 1 << 16


def scan_chunk(args):
    """Scan counters [start, end) of the labeled graphs of order n; return
    (visited, candidates, hit counters) like scan_chunk_slow, which checks it.

    Bits 0..n-2 of a counter are the pairs (0, 1..n-1), so a counter is
    hi * 2^(n-1) + lo, where hi encodes H = G - 0 on vertices 1..n-1 and lo
    vertex 0's neighbourhood N.  The range must be aligned to 2^(n-1)
    counters, one block per H; an unaligned one raises ValueError.  Each H is
    extended by the search's own _extensions and by extends_td.
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
                    if extends_td(rows, triangle_degrees_rows(rows), nbhd):
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
            if nbhd.bit_count() <= room and extends_td(rows, t_h, nbhd):
                hits.append(base | nbhd >> 1)
    return end - start, candidates, hits


def chunks(n):
    """The labeled scan's chunks of order n, as (start, end) pairs."""
    total = 1 << (n * (n - 1) // 2)
    size = min(chunk_size(n * (n - 1) // 2), total)
    return [(s, s + size) for s in range(0, total, size)]


def write_counter_checkpoint(path, config, cursor, visited, candidates, hit_lines):
    """A checkpoint file in the labeled scan's format (magic line
    'trideg-checkpoint v1'); hit_lines are the hits' graph6 strings."""
    fields = dict(config, cursor=cursor, visited=visited, candidates=candidates)
    lines = ["trideg-checkpoint v1"] + ["%s=%d" % kv for kv in fields.items()]
    lines += ["hits:"] + hit_lines
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
