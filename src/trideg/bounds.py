"""Structural bounds every triangle-distinct graph must satisfy, evaluated
exactly.

All comparisons are integer or rational.  Bounds stated with square or cube
roots are restated algebraically first: for integers A, B >= 0, A > B*sqrt(C)
iff A^2 > B^2*C, so for example the edge lower bound

    2 e(G) > (1/3) (sqrt(2n) - 2)^3

expands via (sqrt(2n) - 2)^3 = (2n + 12) sqrt(2n) - (12n + 8) into the exact
integer test  (6 e + 12 n + 8)^2 > 8 n (n + 6)^2.  The one family of bounds
that cannot be rationalized, sums of terms (4cn)^(1 - 1/2^i), is evaluated
with directed rounding: 4cn is rounded UP to an integer base, and each term
base^(1 - 1/2^i) is replaced by its exact ceiling, so a reported violation
is always a true violation, never a rounding artifact.  The ceilings come
from the recurrence t_i = sqrt(base * t_(i-1)) carried in fixed point with
a floor and a ceiling, with more precision wherever the two round up
differently; from 2^i > (base-1)^2 on the ceiling is base itself.  No term
is capped, at any size.

The checked bounds, for a triangle-distinct graph G of order n, size e, with
complement size ebar and c = ebar/n:

  max_degree_lb      Delta(G)^2 > 2n
  min_degree_ub      3 (n - 1 - delta(G))^3 >= 2n
  regular_window     a d-regular member needs d^2 > 2n and 3 (n-d)^2 >= 2n
  edge_lb            the rationalized cube bound above, plus for every d >= 2
                     at most C(d,2) + 1 vertices of degree at most d
  planarity_edge_excess   e > 3n - 6 certifies non-planarity (one-sided:
                     anything else is reported indeterminate, not planar)
  census_bound       r_t <= sum_{i=0..t} (4cn)^(1 - 1/2^i) for every degree
                     class, where r_t is the largest set of vertices of
                     complement degree k-1 sharing >= k-1-t common complement
                     neighbors (branch and bound within one node budget
                     per graph; unless a set above the bound was found, a
                     search the budget stops makes the entry indeterminate,
                     with its lower bound on r_t in extra["unfinished"])
  degree_class_bound given e(G) >= C(n,2) - c n: the number of vertices of
                     degree n-k is at most k (4cn)^(1 - 1/2^(k-1))

Every bound reads one private facts value per graph, computed once: the
triangle degrees and the triangle-distinct test read off them, degrees and
their histogram, the complement rows grouped by complement degree, ebar, c
and 4cn rounded up, and the term table (built on first use).  check_all
builds it once and evaluates each named bound from it; each public check_*
builds its own and calls the same function.  check_all's report, and the
NotTriangleDistinct it raises, carry the triangle degrees, so a caller that
prints them needs no second pass.

Entries report observed value, threshold, and a status of holds / violated /
not_applicable / indeterminate.  A violated entry on a genuinely
triangle-distinct graph means the implementation is wrong somewhere, which
is exactly why the sweep exists.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, isqrt

from .graphs import Graph, _distinct, complement, triangle_degrees


# Fractional bits the term chain starts with; it doubles them as needed.
_TERM_BITS = 64


class NotTriangleDistinct(ValueError):
    """A bound that applies to triangle-distinct graphs only was asked about
    a graph that is not one; triangle_degrees holds its triangle degrees, by
    vertex."""

    def __init__(self, message: str, triangle_degrees: tuple[int, ...] = ()):
        super().__init__(message)
        self.triangle_degrees = triangle_degrees


@dataclass(frozen=True)
class BoundEntry:
    """One evaluated bound.  observed and threshold are the two sides of the
    stated relation after exact restatement; extra carries bound-specific
    detail such as cap tables or the worst census pair."""

    name: str
    observed: int | None
    threshold: object  # int | Fraction | None
    relation: str
    status: str  # holds | violated | not_applicable | indeterminate
    note: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_json_dict(self) -> dict:
        threshold = self.threshold
        if isinstance(threshold, Fraction):
            threshold = str(threshold)
        return {
            "name": self.name,
            "observed": self.observed,
            "threshold": threshold,
            "relation": self.relation,
            "status": self.status,
            "note": self.note,
            "extra": {
                k: (str(v) if isinstance(v, Fraction) else v)
                for k, v in self.extra.items()
            },
        }


@dataclass(frozen=True)
class BoundsReport:
    """The bounds on one graph.  triangle_degrees, by vertex, are the ones
    the bounds were checked against; they are not part of the JSON form."""

    order: int
    size: int
    entries: tuple[BoundEntry, ...]
    triangle_degrees: tuple[int, ...] = ()

    @property
    def violations(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if e.status == "violated")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "bounds",
            "order": self.order,
            "size": self.size,
            "entries": [e.to_json_dict() for e in self.entries],
            "violated": [e.name for e in self.violations],
        }


# ---------------------------------------------------------------------------
# the irrational terms, rounded up


def _term_table(base: int, count: int) -> list[int]:
    """[ceil(base^(1 - 1/2^i)) for i in range(count)], exactly, for base >= 1.

    The terms follow t_0 = 1, t_i = sqrt(base * t_(i-1)).  The chain
    carries a floor and a ceiling of t_i * 2^p, and a term is their common
    ceiling.  If base is a perfect 2^i-th power, t_0..t_i are integers and
    the chain is exact through t_i; otherwise t_i is irrational, so when
    the two ceilings differ the chain is redone with p doubled until they
    agree.  From 2^i > (base-1)^2 on every term rounds up to base, because
    (1 + 1/(base-1))^(2^i) >= 1 + 2^i/(base-1) > base puts t_i above
    base - 1.
    """
    if base < 1:
        raise ValueError("term base must be a positive integer")
    stop = min(count, ((base - 1) ** 2).bit_length())  # 2^stop > (base-1)^2
    p = _TERM_BITS
    while True:
        table = [1][:count]
        lo = hi = 1 << p
        for _ in range(1, stop):
            lo = isqrt(base * lo << p)
            hi = isqrt((base * hi << p) - 1) + 1
            term = -(-lo >> p)
            if term != -(-hi >> p):
                break
            table.append(term)
        else:
            return table + [base] * (count - len(table))
        p *= 2


# ---------------------------------------------------------------------------
# what every bound reads


class _Facts:
    """What the bounds read about one graph, computed once; the term table
    is built on first use.  Triangle-distinctness is read off the triangle
    degrees: at least two vertices, all values distinct.  With `what`, a
    graph that is not triangle-distinct raises NotTriangleDistinct naming
    it.  c defaults to ebar/n, making 4cn the integer 4*ebar exactly."""

    def __init__(self, g: Graph, what: str | None = None, c: Fraction | None = None):
        self.t = triangle_degrees(g)
        self.td = _distinct(self.t)
        if what and not self.td:
            raise NotTriangleDistinct("%s applies to triangle-distinct graphs only" % what, self.t)
        n = self.n = g.n
        self.m = g.m
        self.degrees = g.degrees()
        self.hist = [0] * n  # hist[d]: vertices of degree d
        for d in self.degrees:
            self.hist[d] += 1
        self.comp_classes = [[] for _ in range(n)]  # [j]: complement rows of degree j
        for row in complement(g).rows:
            self.comp_classes[row.bit_count()].append(row)
        self.ebar = comb(n, 2) - g.m
        # max(n, 1): the empty graph reaches only bounds that never read c
        self.c = Fraction(self.ebar, max(n, 1)) if c is None else c
        four_cn = 4 * self.c * n
        self.base = int(four_cn) if four_cn.denominator == 1 else int(four_cn) + 1

    @cached_property
    def terms(self) -> list[int]:
        return _term_table(self.base, self.n)


# ---------------------------------------------------------------------------
# degree bounds


def _max_degree_lb(f: _Facts) -> BoundEntry:
    dmax = max(f.degrees)
    return BoundEntry(
        name="max_degree_lb",
        observed=dmax * dmax,
        threshold=2 * f.n,
        relation=">",
        status="holds" if dmax * dmax > 2 * f.n else "violated",
        note="squared form of max degree > sqrt(2n); max degree is %d" % dmax,
    )


def _min_degree_ub(f: _Facts) -> BoundEntry:
    dmin = min(f.degrees)
    cube = 3 * (f.n - 1 - dmin) ** 3
    return BoundEntry(
        name="min_degree_ub",
        observed=cube,
        threshold=2 * f.n,
        relation=">=",
        status="holds" if cube >= 2 * f.n else "violated",
        note="cubed form of min degree <= n - 1 - (2n/3)^(1/3); min degree is %d" % dmin,
    )


def check_degree_bounds(g: Graph) -> list[BoundEntry]:
    """max_degree_lb and min_degree_ub, in squared / cubed exact form."""
    f = _Facts(g, "degree bounds")
    return [_max_degree_lb(f), _min_degree_ub(f)]


def _regular_window(f: _Facts) -> BoundEntry:
    n = f.n
    degs = set(f.degrees)
    if len(degs) != 1 or not f.td:
        why = "not regular" if len(degs) != 1 else "regular but not triangle-distinct"
        return BoundEntry(
            name="regular_window",
            observed=None,
            threshold=None,
            relation="",
            status="not_applicable",
            note=why,
        )
    d = degs.pop()
    low_ok = d * d > 2 * n
    high_ok = 3 * (n - d) * (n - d) >= 2 * n
    return BoundEntry(
        name="regular_window",
        observed=d,
        threshold=None,
        relation="in window",
        status="holds" if (low_ok and high_ok) else "violated",
        note="window sqrt(2n) < d <= n - sqrt(2n/3) in exact squared form",
        extra={
            "lower_squared": [d * d, 2 * n],
            "upper_scaled": [3 * (n - d) * (n - d), 2 * n],
        },
    )


def check_regular_window(g: Graph) -> BoundEntry:
    """The degree window for regular triangle-distinct graphs; graphs that
    are not regular, or not triangle-distinct, get a not_applicable entry."""
    return _regular_window(_Facts(g))


def _edge_lb(f: _Facts) -> BoundEntry:
    n = f.n
    e = f.m
    lhs = (6 * e + 12 * n + 8) ** 2
    rhs = 8 * n * (n + 6) ** 2
    cube_ok = lhs > rhs
    caps = []
    caps_ok = True
    at_most_d = sum(f.hist[:2])
    for d in range(2, n):
        at_most_d += f.hist[d]
        cap = comb(d, 2) + 1
        caps.append({"degree": d, "count": at_most_d, "cap": cap})
        if at_most_d > cap:
            caps_ok = False
    return BoundEntry(
        name="edge_lb",
        observed=lhs,
        threshold=rhs,
        relation=">",
        status="holds" if (cube_ok and caps_ok) else "violated",
        note=(
            "exact square of 6e + 12n + 8 > (2n + 12) sqrt(2n), equivalent to "
            "2e > (1/3)(sqrt(2n) - 2)^3; plus per-degree caps C(d,2)+1"
        ),
        extra={"edges": e, "cube_bound_ok": cube_ok, "degree_caps_ok": caps_ok, "degree_caps": caps},
    )


def check_edge_lower_bound(g: Graph) -> BoundEntry:
    """Rationalized cube bound on the edge count plus the per-degree caps."""
    return _edge_lb(_Facts(g, "edge lower bound"))


def _planarity(f: _Facts) -> BoundEntry:
    n = f.n
    threshold = 3 * n - 6
    exceeds = n >= 3 and f.m > threshold
    return BoundEntry(
        name="planarity_edge_excess",
        observed=f.m,
        threshold=threshold,
        relation=">",
        status="holds" if exceeds else "indeterminate",
        note="edge count above 3n-6 is a one-sided non-planarity certificate",
    )


def check_planarity_edge_excess(g: Graph) -> BoundEntry:
    """e > 3n - 6 certifies non-planarity; otherwise indeterminate.

    The inequality only means anything from n = 3 on; below that every
    graph is planar and the entry stays indeterminate.
    """
    return _planarity(_Facts(g))


# ---------------------------------------------------------------------------
# common-neighbor census


# Search nodes one census_bound evaluation may visit over all its (k, t)
# pairs; no member of the constructed family 7..200 needs more than 210.
_CENSUS_NODE_BUDGET = 1_000_000


class _OutOfNodes(Exception):
    """A census search used up its node budget."""


def _max_common_subset(nbrs, threshold: int, universe: int, best0: int = 0, budget=None):
    """(size, finished): the largest subset of the listed neighborhoods whose
    intersection has at least `threshold` bits.  Branch and bound: the
    intersection only shrinks along a branch, and a branch that cannot beat
    the best is cut.  budget, a one-item list, holds the search nodes left
    and is drawn down; a search that empties it stops unfinished, and its
    size is then only a lower bound."""
    s = len(nbrs)
    best = best0

    def dfs(idx: int, count: int, inter: int):
        nonlocal best
        if budget is not None:
            if not budget[0]:
                raise _OutOfNodes
            budget[0] -= 1
        if count > best:
            best = count
        for i in range(idx, s):
            if count + (s - i) <= best:
                break
            m2 = inter & nbrs[i]
            if m2.bit_count() >= threshold:
                dfs(i + 1, count + 1, m2)

    try:
        dfs(0, 0, universe)
    except _OutOfNodes:
        return best, False
    return best, True


def common_neighbor_census(g: Graph, k: int, t: int) -> int:
    """r_t: the maximum number of vertices of complement degree k-1 whose
    complement neighborhoods share at least k-1-t common vertices.

    Exact by branch and bound over subsets of the degree class.  r_0 <= 1 on
    a triangle-distinct graph (two vertices cannot share their whole
    neighborhood) and r_{k-1} is the full class size, both of which make
    good sanity checks on callers.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ValueError("k must be in 1..%d, got %d" % (n, k))
    if not 0 <= t <= k - 1:
        raise ValueError("t must be in 0..%d, got %d" % (k - 1, t))
    f = _Facts(g, "common-neighbor census")
    return _max_common_subset(f.comp_classes[k - 1], k - 1 - t, (1 << n) - 1)[0]


def _census_bound(f: _Facts) -> BoundEntry:
    full = (1 << f.n) - 1
    prefix = list(accumulate(f.terms))  # bound sums, shared across every (k, t)
    budget = [_CENSUS_NODE_BUDGET]  # shared by every search of this graph
    pairs_checked = 0
    worst = None  # (slack, k, t, r, bound); violated iff its slack > 0
    unfinished = []  # the same tuples for searches the budget stopped
    for k, nbrs in enumerate(f.comp_classes, 1):
        s = len(nbrs)
        if s == 0:
            continue
        r_prev = 0
        for t in range(k):
            finished = True
            if s == 1:
                r = 1
            elif t == k - 1:
                r = s
            else:
                r, finished = _max_common_subset(nbrs, k - 1 - t, full, r_prev, budget)
            r_prev = r
            bound = prefix[t]
            pairs_checked += 1
            pair = (r - bound, k, t, r, bound)
            if worst is None or pair[0] > worst[0]:
                worst = pair
            if not finished:
                unfinished.append(pair)
    extra = {"c": f.c, "four_cn_ceil": f.base, "pairs_checked": pairs_checked}
    if worst is not None:
        extra["worst"] = {
            "k": worst[1],
            "t": worst[2],
            "r": worst[3],
            "bound": worst[4],
        }
    if unfinished:
        _, k, t, r, bound = max(unfinished, key=lambda pair: pair[0])
        extra["unfinished"] = {
            "pairs": len(unfinished),
            "node_budget": _CENSUS_NODE_BUDGET,
            "k": k,
            "t": t,
            "r_at_least": r,
            "bound": bound,
        }
    if worst and worst[0] > 0:
        status = "violated"
    else:
        status = "indeterminate" if unfinished else "holds"
    return BoundEntry(
        name="census_bound",
        observed=worst[3] if worst else 0,
        threshold=worst[4] if worst else None,
        relation="<=",
        status=status,
        note="r_t <= sum of (4cn)^(1-1/2^i), i=0..t, bound rounded up",
        extra=extra,
    )


def check_census_bounds(g: Graph, c: Fraction | None = None) -> BoundEntry:
    """r_t against the rounded-up bound sum for every degree class and every
    t; the worst (r - bound) pair is reported."""
    return _census_bound(_Facts(g, "census bound", c))


def _degree_class_bound(f: _Facts) -> BoundEntry:
    n = f.n
    if f.c * n < f.ebar:
        return BoundEntry(
            name="degree_class_bound",
            observed=None,
            threshold=None,
            relation="",
            status="not_applicable",
            note="precondition e >= C(n,2) - c n fails for c = %s" % f.c,
            extra={"c": f.c},
        )
    worst = None  # (slack, k, count, bound); violated iff its slack > 0
    for k in range(1, n + 1):
        t_k = f.hist[n - k]
        if t_k == 0:
            continue
        bound = k * f.terms[k - 1]
        slack = t_k - bound
        if worst is None or slack > worst[0]:
            worst = (slack, k, t_k, bound)
    extra = {"c": f.c, "four_cn_ceil": f.base}
    if worst is not None:
        extra["worst"] = {"k": worst[1], "count": worst[2], "bound": worst[3]}
    return BoundEntry(
        name="degree_class_bound",
        observed=worst[2] if worst else 0,
        threshold=worst[3] if worst else None,
        relation="<=",
        status="violated" if worst and worst[0] > 0 else "holds",
        note="vertices of degree n-k at most k (4cn)^(1-1/2^(k-1)), bound rounded up",
        extra=extra,
    )


def check_degree_class_bound(g: Graph, c: Fraction | None = None) -> BoundEntry:
    """At most k (4cn)^(1 - 1/2^(k-1)) vertices of degree n-k, for each k,
    provided e(G) >= C(n,2) - c n.  c defaults to ebar/n, which satisfies
    the precondition with equality."""
    return _degree_class_bound(_Facts(g, "degree-class bound", c))


# every bound by name, in report order
_CHECKS = {
    "max_degree_lb": _max_degree_lb,
    "min_degree_ub": _min_degree_ub,
    "regular_window": _regular_window,
    "edge_lb": _edge_lb,
    "planarity_edge_excess": _planarity,
    "census_bound": _census_bound,
    "degree_class_bound": _degree_class_bound,
}
_ALL_CHECKS = tuple(_CHECKS)


def check_all(g: Graph, names=None) -> BoundsReport:
    """Every bound (or the named subset) on one triangle-distinct graph."""
    f = _Facts(g, "bounds sweep")
    if names is not None:
        unknown = set(names) - _CHECKS.keys()
        if unknown:
            raise ValueError("unknown bound names: %s" % sorted(unknown))
    entries = tuple(fn(f) for name, fn in _CHECKS.items() if names is None or name in names)
    return BoundsReport(order=g.n, size=g.m, entries=entries, triangle_degrees=f.t)
