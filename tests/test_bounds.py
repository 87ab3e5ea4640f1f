import decimal
import json
from fractions import Fraction

import pytest

import oracles
import trideg.bounds as bounds
from trideg.bounds import (
    _ALL_CHECKS,
    _term_ceil,
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
    calls = {"is_triangle_distinct": 0, "complement": 0}
    for name in calls:
        def counted(g, real=getattr(bounds, name), name=name):
            calls[name] += 1
            return real(g)

        monkeypatch.setattr(bounds, name, counted)
    assert check_all(construct(50).graph).violations == ()
    assert calls == {"is_triangle_distinct": 1, "complement": 1}


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
        for i in range(0, 13):
            got = _term_ceil(base, i)
            exact = oracles.power_term_exact(base, i)
            assert decimal.Decimal(got) >= exact
            # never rounds past the next integer above the true value
            assert got <= int(exact) + 1
    assert _term_ceil(5, 0) == 1  # exponent collapses to zero
    assert _term_ceil(4, 50) == 4  # giant-exponent fallback keeps soundness


def test_bounds_report_shape(g7):
    rep = check_all(g7.graph)
    d = rep.to_json_dict()
    assert d["kind"] == "bounds"
    assert d["schema_version"] == 1
    assert len(d["entries"]) == len(_ALL_CHECKS)
    entry = BoundEntry("x", 1, None, "<=", "holds", "note")
    assert entry.to_json_dict()["threshold"] is None
