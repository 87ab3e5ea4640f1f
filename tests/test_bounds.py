import json
import math
from fractions import Fraction

import pytest

import oracles
import trideg.bounds as bounds
from trideg.bounds import (
    _ALL_CHECKS,
    _term_table,
    BoundEntry,
    check_all,
    check_census_bounds,
    check_degree_bounds,
    check_degree_class_bound,
    check_edge_lower_bound,
    check_planarity_edge_excess,
    check_regular_window,
    common_neighbor_census,
)
from trideg.construction import construct
from trideg.graphs import complete_graph, cycle_graph, empty_graph


def test_check_all_on_seed(g7):
    rep = check_all(g7.graph)
    assert rep.order == 7 and rep.size == 15
    assert [e.name for e in rep.entries] == list(_ALL_CHECKS)
    assert rep.violations == ()
    statuses = {e.name: e.status for e in rep.entries}
    assert statuses["max_degree_lb"] == "holds"
    assert statuses["min_degree_ub"] == "holds"
    assert statuses["regular_window"] == "not_applicable"  # seed is irregular
    assert statuses["edge_lb"] == "holds"
    assert statuses["planarity_edge_excess"] == "indeterminate"  # 15 = 3n-6
    assert statuses["census_bound"] == "holds"
    assert statuses["degree_class_bound"] == "holds"


def test_report_serializes_fractions(g7):
    rep = check_all(g7.graph)
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert "Fraction" not in text
    assert "6/7" in text  # default c = complement edges over n


def test_seed_degree_bound_numbers(g7):
    by_name = {e.name: e for e in check_degree_bounds(g7.graph)}
    lb = by_name["max_degree_lb"]
    assert (lb.observed, lb.threshold, lb.relation) == (36, 14, ">")
    ub = by_name["min_degree_ub"]
    # 3 (n - 1 - delta)^3 with delta = 3
    assert (ub.observed, ub.threshold, ub.relation) == (81, 14, ">=")


def test_checks_demand_distinct_triangle_degrees():
    c5 = cycle_graph(5)
    for fn in (
        check_all,
        check_degree_bounds,
        check_edge_lower_bound,
        check_census_bounds,
        check_degree_class_bound,
    ):
        with pytest.raises(ValueError):
            fn(c5)
    with pytest.raises(ValueError):
        common_neighbor_census(complete_graph(4), 1, 0)


def test_check_all_tests_and_complements_once(monkeypatch):
    # distinctness is read off the one triangle-degree pass
    calls = {"triangle_degrees": 0, "complement": 0}
    for name in calls:
        def counted(g, real=getattr(bounds, name), name=name):
            calls[name] += 1
            return real(g)

        monkeypatch.setattr(bounds, name, counted)
    assert check_all(construct(50).graph).violations == ()
    assert calls == {"triangle_degrees": 1, "complement": 1}


def test_check_all_name_selection(g7):
    # selection keeps the canonical report order, whatever the caller wrote
    rep = check_all(g7.graph, names=["planarity_edge_excess", "max_degree_lb"])
    assert [e.name for e in rep.entries] == ["max_degree_lb", "planarity_edge_excess"]
    with pytest.raises(ValueError):
        check_all(g7.graph, names=["bogus"])


def test_planarity_direction():
    # one-sided: an excess certifies non-planarity, no excess says nothing
    assert check_planarity_edge_excess(complete_graph(5)).status == "holds"
    assert check_planarity_edge_excess(complete_graph(4)).status == "indeterminate"
    for n in (0, 1, 2):
        assert check_planarity_edge_excess(empty_graph(n)).status == "indeterminate"
    assert check_planarity_edge_excess(construct(8).graph).status == "indeterminate"
    assert check_planarity_edge_excess(construct(9).graph).status == "holds"


def test_regular_window_entry(g7):
    assert check_regular_window(complete_graph(5)).status == "not_applicable"
    assert check_regular_window(g7.graph).status == "not_applicable"
    assert check_regular_window(empty_graph(4)).status == "not_applicable"


def test_edge_bound_restatement_matches_decimal():
    # the squared integer comparison must agree with the cube root statement
    for n in range(2, 260):
        approx = int((2 * n) ** 0.5 * 10)  # rough center for e probes
        for e in range(0, approx + 6):
            exact = (6 * e + 12 * n + 8) ** 2 > 8 * n * (n + 6) ** 2
            assert exact == oracles.edge_bound_truth(n, e), (n, e)


def test_edge_bound_on_family(family40):
    for gc in family40.values():
        g = gc.graph
        entry = check_edge_lower_bound(g)
        # the public checks and check_all evaluate the same functions
        singles = check_degree_bounds(g) + [
            check_regular_window(g),
            entry,
            check_planarity_edge_excess(g),
            check_census_bounds(g),
            check_degree_class_bound(g),
        ]
        assert {e.name: e for e in singles} == {e.name: e for e in check_all(g).entries}
        assert entry.status == "holds"
        assert entry.extra["cube_bound_ok"] is True
        assert entry.extra["degree_caps_ok"] is True
        assert oracles.edge_bound_truth(gc.graph.n, gc.graph.m)
        for cap in entry.extra["degree_caps"]:
            d = cap["degree"]
            count = sum(1 for x in gc.graph.degrees() if x <= d)
            assert cap["count"] == count
            assert cap["cap"] == d * (d - 1) // 2 + 1
            assert count <= cap["cap"]


def test_census_matches_slow(family40):
    for n in (7, 9, 11):
        g = family40[n].graph
        for k in range(1, n + 1):
            for t in range(0, min(k, 4)):
                assert common_neighbor_census(g, k, t) == oracles.census_slow(g, k, t)


def test_census_structural_facts(family40):
    for n in (7, 9):
        g = family40[n].graph
        comp_deg = [g.n - 1 - d for d in g.degrees()]
        for k in range(1, n + 1):
            class_size = sum(1 for d in comp_deg if d == k - 1)
            values = [common_neighbor_census(g, k, t) for t in range(k)]
            assert values == sorted(values)  # loosening t cannot shrink r
            assert values[0] <= 1  # distinct triangle degrees split twins
            assert values[-1] == class_size
    with pytest.raises(ValueError):
        common_neighbor_census(family40[7].graph, 0, 0)
    with pytest.raises(ValueError):
        common_neighbor_census(family40[7].graph, 2, 2)


def test_census_bound_worst_case_on_seed(g7):
    entry = check_census_bounds(g7.graph)
    assert entry.status == "holds"
    assert entry.extra["c"] == Fraction(6, 7)
    assert entry.extra["four_cn_ceil"] == 24
    assert entry.extra["worst"] == {"k": 1, "t": 0, "r": 1, "bound": 1}


def test_census_budget_makes_unfinished_searches_indeterminate(monkeypatch, family40):
    g = family40[40].graph
    full = check_census_bounds(g)
    assert full.status == "holds" and "unfinished" not in full.extra
    monkeypatch.setattr(bounds, "_CENSUS_NODE_BUDGET", 3)
    cut = check_census_bounds(g)
    assert cut.status == "indeterminate"
    left = cut.extra["unfinished"]
    assert left["pairs"] > 0 and left["node_budget"] == 3
    assert left["r_at_least"] <= left["bound"]
    assert left["r_at_least"] <= common_neighbor_census(g, left["k"], left["t"])
    assert check_all(g).violations == ()
    # the exact census takes no budget
    assert common_neighbor_census(g, left["k"], left["t"]) == oracles.census_slow(g, left["k"], left["t"])


def test_census_violation_found_within_budget_stands(monkeypatch, family40):
    # bound sums 1, 1, then 40 and up: only a searched pair (k, 1) whose
    # class holds two vertices with k - 2 common complement neighbors can
    # exceed its bound, and construct(40) has one at k = 19
    g = family40[40].graph
    monkeypatch.setattr(bounds, "_term_table", lambda base, count: [1, 0] + [40] * (count - 2))
    exact = check_census_bounds(g)
    assert exact.status == "violated" and "unfinished" not in exact.extra
    assert exact.extra["worst"] == {"k": 19, "t": 1, "r": 2, "bound": 1}
    monkeypatch.setattr(bounds, "_CENSUS_NODE_BUDGET", 5)
    entry = check_census_bounds(g)  # found before the budget ran out
    assert entry.status == "violated" and entry.extra["unfinished"]["pairs"] > 0
    assert entry.extra["worst"] == exact.extra["worst"]
    monkeypatch.setattr(bounds, "_CENSUS_NODE_BUDGET", 3)
    entry = check_census_bounds(g)  # the budget ran out first
    assert entry.status == "indeterminate"
    assert entry.extra["unfinished"]["k"] == 19 and entry.extra["unfinished"]["r_at_least"] == 1


def test_degree_class_bound_precondition(g7):
    entry = check_degree_class_bound(g7.graph)
    assert entry.status == "holds"
    assert entry.extra["worst"] == {"k": 1, "count": 1, "bound": 1}
    # a smaller c breaks e >= C(n,2) - cn and the check steps aside
    small = check_degree_class_bound(g7.graph, c=Fraction(1, 2))
    assert small.status == "not_applicable"
    bigger = check_degree_class_bound(g7.graph, c=Fraction(2))
    assert bigger.status == "holds"


def test_term_ceil_sound_and_tight():
    for base in (1, 2, 3, 10, 17, 100, 4096, 10**6):
        table = _term_table(base, 13)
        assert len(table) == 13
        for i, got in enumerate(table):
            assert got == math.ceil(oracles.power_term_exact(base, i)), (base, i)
    assert _term_table(5, 1) == [1]  # exponent collapses to zero
    assert _term_table(4, 51)[50] == 4  # a giant exponent still has its exact ceiling
    assert _term_table(7, 0) == []
    with pytest.raises(ValueError):
        _term_table(0, 3)


def test_term_table_matches_exact_powers_on_family():
    # every (base, i) of the criterion-7 family whose power base^(2^i - 1)
    # has at most 400,000 bits, against the iterated integer square root
    lengths = {}
    for n in range(7, 201):
        base = bounds._Facts(construct(n).graph).base
        lengths[base] = max(lengths.get(base, 0), n)
    checked = 0
    for base, count in sorted(lengths.items()):
        table = _term_table(base, count)
        for i in range(count):
            if ((1 << i) - 1) * (base.bit_length() - 1) >= 400_000:
                break  # the power has more than 400,000 bits, and so do later ones
            if (base ** ((1 << i) - 1)).bit_length() > 400_000:
                break
            assert table[i] == oracles.term_ceil_power(base, i), (base, i)
            checked += 1
    assert checked > 1000


def test_term_table_shortcut_boundary():
    # from the first i with 2^i > (base - 1)^2 on, every term is base; the
    # last term before it comes from the chain and is still exact
    for base in (2, 3, 5, 17, 100):
        first = next(i for i in range(64) if 1 << i > (base - 1) ** 2)
        table = _term_table(base, first + 2)
        for i in range(max(first - 2, 0), first + 2):
            assert table[i] == oracles.term_ceil_power(base, i), (base, i)
        assert table[first] == table[first + 1] == base


def test_term_table_perfect_powers_are_exact():
    assert _term_table(2**16, 5)[4] == 2**15  # (2^16)^(15/16)
    assert _term_table(3**8, 4)[3] == 3**7
    assert _term_table(10**4, 3) == [1, 100, 1000]


def test_term_table_refines_a_coarse_chain(monkeypatch):
    # starting the chain with 1 or 3 fractional bits forces the two ceilings
    # apart, and doubling the precision must still give every exact ceiling
    for bits in (1, 3):
        monkeypatch.setattr(bounds, "_TERM_BITS", bits)
        for base in (2, 3, 10, 17, 100, 4096, 2**16, 39_600):
            assert _term_table(base, 12) == [oracles.term_ceil_power(base, i) for i in range(12)], base


def test_bounds_report_shape(g7):
    rep = check_all(g7.graph)
    d = rep.to_json_dict()
    assert d["kind"] == "bounds"
    assert d["schema_version"] == 1
    assert len(d["entries"]) == len(_ALL_CHECKS)
    entry = BoundEntry("x", 1, None, "<=", "holds", "note")
    assert entry.to_json_dict()["threshold"] is None
