"""Exact identities tying triangle degrees to degrees, complements, and
graph composition.

Everything here is integer arithmetic on counts; there is no tolerance
anywhere.  Let G have order n and size e(G), write d(u) for degree, Tri(u)
for triangle degree, and Gbar for the complement.  The three identities:

  complement_sum
      Tri_G(u) + Tri_Gbar(u)
        = sum of d_G(v) over v in N_G(u)  -  e(G)
          + (n - d_G(u) - 1) * (n - d_G(u) - 2) / 2

  composition
      For the composition G(H) on vertex set V(G) x V(H), where (u1, v1) is
      adjacent to (u2, v2) iff u1u2 is an edge of G, or u1 = u2 and v1v2 is
      an edge of H:
      Tri_G(H)((u, v))
        = Tri_H(v) + e(H) d_G(u) + n(H) d_G(u) d_H(v) + n(H)^2 Tri_G(u)

  lemma_comp_decomposition
      Tri_G(u)
        = e(G) - (1 + d_Gbar(u)) d_G(u) - C(d_Gbar(u), 2)
          + Tri_Gbar(u) + cut_Gbar(N_G(u), V minus N_G[u])

      where cut_Gbar(A, B) counts complement edges between disjoint sets.
      Consequence used by the collision signature: two vertices of equal
      degree have equal triangle degrees iff their signatures
      (d_G(u), Tri_Gbar(u) + cut_Gbar(N_G(u), V minus N_G[u])) coincide.

The evaluators return the right-hand sides; check_graph and
check_composition pair them with the directly counted left-hand sides so the
command-line verifier and the test suite share one code path.  Every
triangle degree here, on either side, comes from graphs.triangle_degrees:
the checkers count each graph once, and the single-vertex evaluators count
the whole graph and read one value.
"""

from dataclasses import dataclass
from math import comb

from .graphs import Graph, complement, cut_edges, triangle_degrees


@dataclass(frozen=True)
class IdentityCheck:
    """One evaluated identity instance: lhs is the direct count, rhs the
    closed form; holds iff they agree."""

    identity: str  # complement_sum | composition | lemma_comp_decomposition
    vertex: tuple
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "vertex": list(self.vertex),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }


def complement_identity_rhs(g: Graph, u: int) -> int:
    """Closed form for Tri_G(u) + Tri_Gbar(u)."""
    g._check_vertex(u)
    n = g.n
    du = g.rows[u].bit_count()
    neighbor_degree_sum = 0
    w = g.rows[u]
    while w:
        low = w & -w
        neighbor_degree_sum += g.rows[low.bit_length() - 1].bit_count()
        w ^= low
    return neighbor_degree_sum - g.m + (n - du - 1) * (n - du - 2) // 2


def compose(g: Graph, h: Graph) -> Graph:
    """Composition G(H) on V(G) x V(H); block index (u, v) -> u * n(H) + v.

    (u1, v1) ~ (u2, v2) iff u1u2 in E(G), or u1 = u2 and v1v2 in E(H).
    Size identity: e(G(H)) = e(H) n(G) + e(G) n(H)^2.
    """
    hn = h.n
    hfull = (1 << hn) - 1
    block_of = []
    for u in range(g.n):
        mask = 0
        w = g.rows[u]
        while w:
            low = w & -w
            mask |= hfull << ((low.bit_length() - 1) * hn)
            w ^= low
        block_of.append(mask)
    rows = []
    for u in range(g.n):
        base = block_of[u]
        shift = u * hn
        for v in range(hn):
            rows.append(base | (h.rows[v] << shift))
    return Graph._trusted(g.n * hn, rows, h.m * g.n + g.m * hn * hn)


def _composition_rhs(g: Graph, h: Graph, tri_g, tri_h, u: int, v: int) -> int:
    du = g.rows[u].bit_count()
    return tri_h[v] + h.m * du + h.n * du * h.rows[v].bit_count() + h.n * h.n * tri_g[u]


def composition_triangle_degree(g: Graph, h: Graph, u: int, v: int) -> int:
    """Closed form for the triangle degree of (u, v) in G(H)."""
    g._check_vertex(u)
    h._check_vertex(v)
    return _composition_rhs(g, h, triangle_degrees(g), triangle_degrees(h), u, v)


def _comp_part(g: Graph, gbar: Graph, tri_bar, u: int) -> int:
    """Tri_Gbar(u) + cut_Gbar(N_G(u), V minus N_G[u]); tri_bar holds Gbar's
    triangle degrees."""
    open_nbhd = g.rows[u]
    outside_closed = ((1 << g.n) - 1) & ~open_nbhd & ~(1 << u)
    return tri_bar[u] + cut_edges(gbar, open_nbhd, outside_closed)


def _lemma_comp_rhs(g: Graph, gbar: Graph, tri_bar, u: int) -> int:
    du = g.rows[u].bit_count()
    dbar = g.n - 1 - du
    return g.m - (1 + dbar) * du - comb(dbar, 2) + _comp_part(g, gbar, tri_bar, u)


def lemma_comp_triangle_degree(g: Graph, u: int) -> int:
    """Closed form for Tri_G(u) via the complement decomposition."""
    g._check_vertex(u)
    gbar = complement(g)
    return _lemma_comp_rhs(g, gbar, triangle_degrees(gbar), u)


def lemma_comp_signature(g: Graph, u: int) -> tuple[int, int]:
    """(degree, complement part of the decomposition).

    Among vertices of equal degree, equal signatures are exactly equal
    triangle degrees, which is what makes the signature useful for collision
    screening.  Public API with no library caller; the tests use it.
    """
    g._check_vertex(u)
    gbar = complement(g)
    return (g.rows[u].bit_count(), _comp_part(g, gbar, triangle_degrees(gbar), u))


def check_graph(g: Graph) -> list[IdentityCheck]:
    """complement_sum and lemma_comp_decomposition at every vertex of g."""
    gbar = complement(g)
    tri = triangle_degrees(g)
    tri_bar = triangle_degrees(gbar)
    checks = []
    for u in range(g.n):
        checks.append(
            IdentityCheck(
                "complement_sum", (u,), tri[u] + tri_bar[u], complement_identity_rhs(g, u)
            )
        )
        checks.append(
            IdentityCheck(
                "lemma_comp_decomposition", (u,), tri[u], _lemma_comp_rhs(g, gbar, tri_bar, u)
            )
        )
    return checks


def check_composition(g: Graph, h: Graph) -> list[IdentityCheck]:
    """composition identity at every vertex of G(H), formula vs direct count."""
    direct = triangle_degrees(compose(g, h))
    tri_g = triangle_degrees(g)
    tri_h = triangle_degrees(h)
    checks = []
    for u in range(g.n):
        for v in range(h.n):
            checks.append(
                IdentityCheck(
                    "composition",
                    (u, v),
                    direct[u * h.n + v],
                    _composition_rhs(g, h, tri_g, tri_h, u, v),
                )
            )
    return checks
