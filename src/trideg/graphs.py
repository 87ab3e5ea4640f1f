"""Bitset-backed simple graphs and the counting primitives everything else uses.

Vertices are the integers 0..n-1.  Adjacency is stored as one Python int per
vertex: bit j of row i is set iff {i, j} is an edge.  Python ints are
arbitrary-width bit vectors, so every neighborhood operation below is a few
AND/popcount calls on machine words for n <= 64 and degrades gracefully for
larger orders.

Vertex subsets are plain int bitmasks over the same indexing.  A mask is valid
for a graph of order n when it has no bits at position n or above.

The triangle degree of a vertex v is the number of triangles of the graph that
contain v, equivalently the number of edges inside the open neighborhood N(v).
triangle_degrees_rows (graph form triangle_degrees) is the one triangle
counter: it counts the triangles on each edge {u, v} once, as
|N(u) & N(v)|, and credits both ends; each triangle at v is then seen on
both of its edges at v, so the sums are halved.  triangle_degree(g, v) reads
one value of its output.  A graph is triangle-distinct when it has at least
two vertices and its triangle degrees are pairwise different; _distinct
states that rule once, and is_triangle_distinct, the bounds' facts pass and
the search's class keys all apply it to the counter's output.
"""


def mask_of(vertices) -> int:
    """Bitmask with one bit per listed vertex.  Public API with no library
    caller."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_members(mask: int) -> list[int]:
    """Sorted list of the vertices in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Immutable simple graph on vertices 0..n-1 with bitmask adjacency rows.

    Rows must be symmetric and self-loop free; the constructor verifies both
    and caches the edge count, so every Graph in existence satisfies the
    invariants.  Treat instances as frozen values: equality and hashing are by
    (n, rows).
    """

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, rows):
        rows = tuple(rows)
        if n < 0:
            raise ValueError("order must be nonnegative")
        if len(rows) != n:
            raise ValueError("expected %d adjacency rows, got %d" % (n, len(rows)))
        full = (1 << n) - 1
        twice_m = 0
        for i, row in enumerate(rows):
            if row & ~full:
                raise ValueError("row %d has bits outside 0..%d" % (i, n - 1))
            if (row >> i) & 1:
                raise ValueError("self-loop at vertex %d" % i)
            w = row
            while w:
                low = w & -w
                j = low.bit_length() - 1
                if not (rows[j] >> i) & 1:
                    raise ValueError("asymmetric adjacency between %d and %d" % (i, j))
                w ^= low
            twice_m += row.bit_count()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "m", twice_m // 2)

    @classmethod
    def _trusted(cls, n, rows, m=None):
        """Skip invariant validation for rows known symmetric and loop-free
        by construction (complement, induced, counter decoding, the growth
        steps).  Certification paths recount everything from the rows, so a
        transform bug still surfaces; user-supplied rows must go through
        __init__."""
        self = object.__new__(cls)
        rows = tuple(rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        if m is None:
            m = sum(r.bit_count() for r in rows) // 2
        object.__setattr__(self, "m", m)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.rows))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)

    def has_edge(self, i: int, j: int) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return bool((self.rows[i] >> j) & 1)

    def edges(self):
        """Edge pairs (i, j) with i < j, ascending."""
        for i in range(self.n):
            w = self.rows[i] >> (i + 1) << (i + 1)
            while w:
                low = w & -w
                yield (i, low.bit_length() - 1)
                w ^= low

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise IndexError("vertex %d out of range 0..%d" % (v, self.n - 1))

    def _check_mask(self, mask: int):
        if mask < 0 or mask >> self.n:
            raise ValueError("vertex mask has bits outside 0..%d" % (self.n - 1))


def degree(g: Graph, v: int) -> int:
    """|N(v)|.  Public API with no library caller."""
    g._check_vertex(v)
    return g.rows[v].bit_count()


def triangle_degree(g: Graph, v: int) -> int:
    """Number of triangles containing v, i.e. edges inside N(v)."""
    g._check_vertex(v)
    return triangle_degrees_rows(g.rows)[v]


def triangle_degrees(g: Graph) -> tuple[int, ...]:
    """Triangle degree of every vertex, indexed by vertex."""
    return triangle_degrees_rows(g.rows)


def triangle_degrees_rows(rows) -> tuple[int, ...]:
    """triangle_degrees on bare adjacency rows."""
    twice = [0] * len(rows)
    for u, nu in enumerate(rows):
        s = twice[u]
        w = nu >> (u + 1) << (u + 1)
        while w:
            low = w & -w
            v = low.bit_length() - 1
            c = (nu & rows[v]).bit_count()
            s += c
            twice[v] += c
            w ^= low
        twice[u] = s
    return tuple(t >> 1 for t in twice)


def _distinct(t) -> bool:
    """The triangle-distinct rule on a graph's triangle degrees t: at least
    two vertices and no value repeated."""
    return len(t) >= 2 and len(set(t)) == len(t)


def is_triangle_distinct(g: Graph) -> bool:
    """True iff g has at least two vertices and pairwise distinct triangle
    degrees."""
    return _distinct(triangle_degrees_rows(g.rows))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices with exactly the missing edges."""
    full = (1 << g.n) - 1
    n = g.n
    return Graph._trusted(
        n,
        tuple((~row & full) & ~(1 << i) for i, row in enumerate(g.rows)),
        n * (n - 1) // 2 - g.m,
    )


def induced(g: Graph, mask: int) -> Graph:
    """Subgraph induced by the masked vertices, reindexed to 0..k-1 ascending."""
    g._check_mask(mask)
    keep = mask_members(mask)
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        row = 0
        w = g.rows[v] & mask
        while w:
            low = w & -w
            row |= 1 << pos[low.bit_length() - 1]
            w ^= low
        rows.append(row)
    return Graph._trusted(len(keep), rows)


def cut_edges(g: Graph, a: int, b: int) -> int:
    """Number of edges with one end in mask a and the other in mask b.

    The masks must be disjoint; counting with overlap is ambiguous, so it is
    rejected rather than guessed at.
    """
    g._check_mask(a)
    g._check_mask(b)
    if a & b:
        raise ValueError("cut masks overlap on vertices %s" % mask_members(a & b))
    total = 0
    w = a
    while w:
        low = w & -w
        total += (g.rows[low.bit_length() - 1] & b).bit_count()
        w ^= low
    return total


# Deterministic counter <-> labeled graph correspondence.  Bit b of a counter
# x in [0, 2^C(n,2)) is the edge pair_list(n)[b]; the order is row-major over
# pairs (i, j) with i < j.  `trideg verify` exhausts small orders through it,
# and the tests use it as a labeled oracle; the search extends unlabeled
# levels instead.

def pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_from_counter(n: int, x: int, pairs=None) -> Graph:
    if pairs is None:
        pairs = pair_list(n)
    if x < 0 or x >> len(pairs):
        raise ValueError("counter out of range for order %d" % n)
    rows = [0] * n
    w = x
    while w:
        low = w & -w
        i, j = pairs[low.bit_length() - 1]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        w ^= low
    return Graph._trusted(n, rows, x.bit_count())


def counter_of_graph(g: Graph) -> int:
    """The counter x with graph_from_counter(g.n, x) == g.  Public API with
    no library caller; the tests use it."""
    x = 0
    for b, (i, j) in enumerate(pair_list(g.n)):
        if (g.rows[i] >> j) & 1:
            x |= 1 << b
    return x


def empty_graph(n: int) -> Graph:
    return Graph._trusted(n, (0,) * n, 0)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._trusted(n, tuple(full & ~(1 << i) for i in range(n)), n * (n - 1) // 2)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("edge (%d, %d) out of range for order %d" % (i, j, n))
        if i == j:
            raise ValueError("self-loop (%d, %d)" % (i, j))
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph._trusted(n, rows)


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    """Erdos-Renyi G(n, p) drawn edge by edge in pair_list order.

    rng is a random.Random; for a fixed seed the draw sequence, and therefore
    the graph, is identical on every platform (CPython pins the Mersenne
    Twister output stream).
    """
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._trusted(n, rows)
