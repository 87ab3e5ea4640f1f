"""Recursive construction of triangle-distinct graphs of every order >= 7.

The family starts from a fixed seven-vertex, fifteen-edge seed whose triangle
degrees are 9 > 7 > 6 > 5 > 4 > 3 > 2.  Ranks are tracked alongside the
graph: rank r (1-based) is the vertex with the r-th largest triangle degree,
and the construction maintains triangle degrees strictly decreasing and
degrees weakly decreasing in rank.

Two alternating steps grow the family by one vertex each:

  odd n -> n+1   Attach a pendant to the lowest rank k attaining the minimum
                 degree (the first such rank; k >= 2 always because the odd
                 members are never regular, and k = n does occur).  The new
                 vertex has degree 1 and triangle degree 0, every old
                 triangle degree is unchanged, so strict descent survives.

  even n -> n+1  Add a universal vertex, which becomes rank 1.  Each old
                 vertex gains the new neighbor, so its triangle degree grows
                 by exactly its old degree and its degree by one; the new
                 vertex closes a triangle over every old edge, so its
                 triangle degree is the old size e and its degree the old
                 order n.  Old ranks shift down by one; old Tri + old deg
                 descends strictly whenever Tri descended strictly and deg
                 weakly, and the new rank 1 must strictly top the shifted
                 rank 2.  Both descent conditions are certified on every
                 step rather than assumed.

Bookkeeping identities certified along the way, for odd-order members:
Tri(rank n) > 0, deg(rank n) > 0, e = Tri(rank 1) + deg(rank 1), and the
graph is not regular.  Even-order members end in a fresh pendant:
Tri(rank n) = 0 and deg(rank n) = 1.

Each growth step updates the rank sequences by the closed-form rules above
(cheap, O(n)); construct() then recomputes every degree and triangle degree
of the final graph from scratch and cross-checks the incremental values, so
a certificate with recomputed=True is evidence the arithmetic above actually
happened on this graph, not just that the bookkeeping is self-consistent.
A certification failure raises CertificationError: it means the code is
wrong, and it must never be downgraded to a warning.
"""

from dataclasses import dataclass
from operator import add, attrgetter, ge, gt

from .graphs import Graph, from_edges, triangle_degrees


class CertificationError(RuntimeError):
    """Recomputed structure contradicts the certified claims; a bug signal."""


# Seed edges in 1-based rank labels; vertex index i carries label i+1.
_G7_EDGES_1BASED = (
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 4), (3, 6), (3, 7),
    (4, 5),
    (5, 7),
)


# The Certificate fields that are None where they do not apply.
_OPTIONAL_CHECKS = (
    "incremental_match",
    "tri_min_positive",
    "deg_min_positive",
    "edge_identity",
    "non_regular",
    "pendant_tail",
)
_optional_checks = attrgetter(*_OPTIONAL_CHECKS)


@dataclass(frozen=True)
class Certificate:
    """Checked properties of one family member, by rank.

    recomputed=True means tri_by_rank and deg_by_rank were recounted from the
    adjacency rows and matched the incrementally tracked values
    (incremental_match); recomputed=False means only the closed-form
    bookkeeping and its descent checks ran.  Fields that apply to one parity
    only are None for the other.
    """

    n: int
    m: int
    tri_by_rank: tuple[int, ...]
    deg_by_rank: tuple[int, ...]
    strict_tri_descent: bool
    weak_deg_descent: bool
    recomputed: bool
    incremental_match: bool | None = None
    # odd-order checks
    tri_min_positive: bool | None = None
    deg_min_positive: bool | None = None
    edge_identity: bool | None = None  # m == tri_by_rank[0] + deg_by_rank[0]
    non_regular: bool | None = None
    # even-order checks: the last rank is the fresh pendant
    pendant_tail: bool | None = None

    @property
    def passed(self) -> bool:
        return (
            self.strict_tri_descent
            and self.weak_deg_descent
            and False not in _optional_checks(self)
        )

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "m": self.m,
            "tri_by_rank": list(self.tri_by_rank),
            "deg_by_rank": list(self.deg_by_rank),
            "strict_tri_descent": self.strict_tri_descent,
            "weak_deg_descent": self.weak_deg_descent,
            "recomputed": self.recomputed,
            "passed": self.passed,
        }
        for name, value in zip(_OPTIONAL_CHECKS, _optional_checks(self)):
            if value is not None:
                d[name] = value
        return d


@dataclass(frozen=True)
class ConstructedGraph:
    """A family member: the graph, the rank-to-vertex map, its certificate.

    labels[r-1] is the vertex index holding rank r; display code adds one to
    vertex indices so rank r reads as label v_r on the seed.
    """

    graph: Graph
    labels: tuple[int, ...]
    certificate: Certificate

    @property
    def n(self) -> int:
        return self.graph.n

    def vertex_of_rank(self, r: int) -> int:
        if not 1 <= r <= self.n:
            raise IndexError("rank %d out of range 1..%d" % (r, self.n))
        return self.labels[r - 1]

    def to_json_dict(self) -> dict:
        from . import graph6

        return {
            "n": self.graph.n,
            "m": self.graph.m,
            "graph6": graph6.encode(self.graph),
            "rank_to_vertex": list(self.labels),
            "tri_by_rank": list(self.certificate.tri_by_rank),
            "deg_by_rank": list(self.certificate.deg_by_rank),
            "certificate": self.certificate.to_json_dict(),
        }


def _certify(graph, tri, deg, labels=None) -> Certificate:
    """Certificate for graph from its rank sequences tri and deg.  With
    labels, both sequences are recounted from the rows and the recount must
    match them (incremental_match); the certificate then holds the recount."""
    match = None
    if labels is not None:
        tri_by_vertex = triangle_degrees(graph)
        deg_by_vertex = graph.degrees()
        recount = tuple(tri_by_vertex[v] for v in labels), tuple(deg_by_vertex[v] for v in labels)
        match = recount == (tuple(tri), tuple(deg))
        tri, deg = recount
    n, m = graph.n, graph.m
    if n % 2 == 1:
        parity = {
            "tri_min_positive": tri[-1] > 0,
            "deg_min_positive": deg[-1] > 0,
            "edge_identity": m == tri[0] + deg[0],
            "non_regular": len(set(deg)) > 1,
        }
    else:
        parity = {"pendant_tail": tri[-1] == 0 and deg[-1] == 1}
    return Certificate(
        n=n,
        m=m,
        tri_by_rank=tri,
        deg_by_rank=deg,
        strict_tri_descent=all(map(gt, tri, tri[1:])),
        weak_deg_descent=all(map(ge, deg, deg[1:])),
        recomputed=labels is not None,
        incremental_match=match,
        **parity,
    )


def base_g7() -> ConstructedGraph:
    """The seven-vertex seed, fully certified."""
    g = from_edges(7, [(a - 1, b - 1) for a, b in _G7_EDGES_1BASED])
    labels = tuple(range(7))
    cert = _certify(g, triangle_degrees(g), g.degrees(), labels)
    if not cert.passed:
        raise CertificationError("seed graph failed certification: %r" % (cert,))
    return ConstructedGraph(g, labels, cert)


def extend_pendant(gc: ConstructedGraph) -> ConstructedGraph:
    """Odd order n -> n+1 by hanging a pendant off the first minimum-degree
    rank.  Usage error on even input or an unpassed certificate."""
    n = gc.n
    if n % 2 == 0:
        raise ValueError("pendant step applies to odd orders, got n=%d" % n)
    cert = gc.certificate
    if not cert.passed:
        raise ValueError("refusing to extend a graph whose certificate failed")
    deg = cert.deg_by_rank
    dmin = min(deg)
    k = deg.index(dmin) + 1  # first rank attaining the minimum; k >= 2 holds
    target = gc.labels[k - 1]
    new_v = n
    rows = list(gc.graph.rows) + [0]
    rows[target] |= 1 << new_v
    rows[new_v] |= 1 << target
    graph = Graph._trusted(n + 1, rows, gc.graph.m + 1)
    labels = gc.labels + (new_v,)
    # A pendant closes no triangle and enlarges no neighborhood's edge set.
    tri = cert.tri_by_rank + (0,)
    deg2 = deg[: k - 1] + (deg[k - 1] + 1,) + deg[k:] + (1,)
    new_cert = _certify(graph, tri, deg2)
    if not new_cert.passed:
        raise CertificationError("pendant step broke the rank invariants")
    return ConstructedGraph(graph, labels, new_cert)


def extend_universal(gc: ConstructedGraph) -> ConstructedGraph:
    """Even order n -> n+1 by adding a universal vertex at rank 1.  Usage
    error on odd input or an unpassed certificate."""
    n = gc.n
    if n % 2 == 1:
        raise ValueError("universal step applies to even orders, got n=%d" % n)
    cert = gc.certificate
    if not cert.passed:
        raise ValueError("refusing to extend a graph whose certificate failed")
    new_v = n
    bit = 1 << new_v
    rows = list(map(bit.__or__, gc.graph.rows))
    rows.append((1 << n) - 1)
    graph = Graph._trusted(n + 1, rows, gc.graph.m + n)
    labels = (new_v,) + gc.labels
    # Every old edge becomes a triangle over the new vertex; every old vertex
    # gains its old degree in triangles through the new neighbor.
    tri = (gc.graph.m,) + tuple(map(add, cert.tri_by_rank, cert.deg_by_rank))
    deg = (n,) + tuple(map((1).__add__, cert.deg_by_rank))
    new_cert = _certify(graph, tri, deg)
    if not new_cert.passed:
        raise CertificationError("universal step broke the rank invariants")
    return ConstructedGraph(graph, labels, new_cert)


def construct(n: int) -> ConstructedGraph:
    """Certified triangle-distinct graph on n vertices, any n >= 7.

    Intermediate steps carry the cheap closed-form certificates; the final
    graph is recertified by full recount, and the recount must match the
    incremental bookkeeping exactly.
    """
    if n < 7:
        raise ValueError(
            "no triangle-distinct graph exists below order 5, and none below 7 "
            "by exhaustive search; smallest constructible order is 7 (got %d)" % n
        )
    gc = base_g7()
    while gc.n < n:
        gc = extend_pendant(gc) if gc.n % 2 == 1 else extend_universal(gc)
    cert = _certify(gc.graph, gc.certificate.tri_by_rank, gc.certificate.deg_by_rank, gc.labels)
    if not cert.passed:
        raise CertificationError(
            "final certification failed at n=%d: %r" % (n, cert.to_json_dict())
        )
    return ConstructedGraph(gc.graph, gc.labels, cert)
