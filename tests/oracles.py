"""Slow reference implementations the test suite trusts.

Everything here recomputes graph quantities from first principles with
sets, explicit loops, and itertools, deliberately avoiding the bitmask
shortcuts used by the library, so a wrong shortcut cannot confirm
itself.  Only the documented Graph fields (n, rows) are read, one bit
at a time.
"""

import decimal
from fractions import Fraction
from itertools import combinations, permutations

from trideg.graphs import Graph, is_triangle_distinct, pair_list


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
    edges = edge_set(g)
    count = 0
    for perm in permutations(range(g.n)):
        mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in edges}
        if mapped == edges:
            count += 1
    return count


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
    import math

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
