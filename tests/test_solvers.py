from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import geopack as gp
from geopack.errors import BudgetExceeded, ContractViolation, DomainError

from conftest import graphs_st, trees_st
from oracles import (
    oracle_gpack,
    oracle_gt,
    oracle_induced_p3_packing,
    oracle_maximal_geodesics,
)

DATA = Path(__file__).resolve().parent.parent / "data"

TIGHT = gp.SolveLimits(node_budget=3)


def fig1() -> gp.Graph:
    return gp.parse_edge_list((DATA / "fig1.edges").read_text())


# ---------------------------------------------------------------------------
# gpack
# ---------------------------------------------------------------------------

def test_gpack_known_values():
    assert gp.gpack_value(gp.complete_graph(5)) == 2
    assert gp.gpack_value(gp.complete_bipartite_graph(3, 3)) == 2
    assert gp.gpack_value(gp.rook_graph(3)) == 3
    assert gp.gpack_value(gp.rook_graph(4)) == 5


def test_gpack_thirteen_vertex_example_drops_after_smoothing():
    g = fig1()
    assert gp.gpack_value(g) == 4
    assert gp.gpack_value(gp.smooth(g).graph) == 3


@pytest.mark.slow
def test_gpack_on_a_large_root_certified_grid():
    # 81k maximal geodesics; the greedy packing meets n // 9 at the root.
    assert gp.gpack_value(gp.diagonal_grid((9, 9))) == 9


def test_gpack_witness_is_lexicographically_least():
    value, packing = gp.gpack_exact(gp.complete_graph(4))
    assert value == 2
    assert [p.vertices for p in packing.geodesics] == [(0, 1), (2, 3)]


def test_gpack_single_vertex():
    value, packing = gp.gpack_exact(gp.complete_graph(1))
    assert value == 1 and packing.geodesics[0].vertices == (0,)


def test_gpack_empty_graph():
    value, packing = gp.gpack_exact(gp.Graph.from_edges(0, []))
    assert value == 0 and packing.size == 0


# ---------------------------------------------------------------------------
# gt
# ---------------------------------------------------------------------------

def test_gt_known_values():
    assert gp.gt_value(gp.complete_graph(5)) == 4
    assert gp.gt_value(gp.complete_bipartite_graph(3, 3)) == 3
    assert gp.gt_value(gp.rook_graph(4)) == 10


def test_gt_witness_is_lexicographically_least():
    value, transversal = gp.gt_exact(gp.complete_graph(4))
    assert value == 3 and transversal.vertices == (0, 1, 2)


def test_gt_witness_hits_everything():
    g = gp.rook_graph(3)
    value, transversal = gp.gt_exact(g)
    assert value == 5
    chosen = set(transversal.vertices)
    for p in gp.enumerate_maximal_geodesics(g).geodesics:
        assert chosen.intersection(p.vertices)


def test_gt_isolated_vertices_are_forced():
    g = gp.Graph.from_edges(3, [(0, 1)])
    value, transversal = gp.gt_exact(g)
    assert value == 2 and 2 in transversal.vertices


# ---------------------------------------------------------------------------
# Upper bound and duality
# ---------------------------------------------------------------------------

def test_packing_upper_bound_families():
    for n in range(2, 8):
        g = gp.complete_graph(n)
        assert gp.gpack_upper_bound(g, gp.enumerate_maximal_geodesics(g)) == n // 2
    for n in range(2, 5):
        g = gp.complete_bipartite_graph(n, n)
        assert gp.gpack_upper_bound(g, gp.enumerate_maximal_geodesics(g)) == (2 * n) // 3
    grid = gp.diagonal_grid((3, 4))
    assert gp.gpack_upper_bound(grid, gp.enumerate_maximal_geodesics(grid)) == 4


def test_duality_complete_graphs():
    for n in range(2, 8):
        report = gp.duality_check(gp.complete_graph(n))
        assert report.gpack == n // 2 and report.gt == n - 1
        assert report.ratio == Fraction(n - 1, n // 2)


def test_duality_rook3():
    report = gp.duality_check(gp.rook_graph(3))
    assert (report.gpack, report.gt, report.ratio) == (3, 5, Fraction(5, 3))


def test_duality_on_trees_is_one():
    t = gp.Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert gp.duality_check(t).ratio == 1


def test_duality_empty_graph_rejected():
    with pytest.raises(DomainError):
        gp.duality_check(gp.Graph.from_edges(0, []))


@given(graphs_st(max_n=7))
@settings(max_examples=30)
def test_duality_never_violated(g):
    if g.n == 0:
        return
    report = gp.duality_check(g)
    assert report.gpack <= report.gt


# ---------------------------------------------------------------------------
# Induced P3 packing and the derived-graph identity
# ---------------------------------------------------------------------------

def test_p3_packing_examples():
    assert gp.induced_p3_packing_exact(gp.path_graph(3)) == 1
    assert gp.induced_p3_packing_exact(gp.complete_graph(3)) == 0
    assert gp.induced_p3_packing_exact(gp.cycle_graph(6)) == 2


def test_reduction_identity_on_triangle_free_inputs():
    assert gp.verify_np_reduction(gp.path_graph(3))
    assert gp.verify_np_reduction(gp.cycle_graph(6))
    assert gp.verify_np_reduction(gp.star_graph(3))


def test_reduction_identity_fails_on_k2():
    # The edge of K2 survives as a length-1 maximal geodesic of the derived
    # graph, so the packing gains it on top of the hub path: gpack is 2, not
    # 1 + 0.  The brute-force oracle agrees; verify_np_reduction flags the
    # broken length assertion.
    k2 = gp.complete_graph(2)
    derived = gp.derived_graph(k2)
    assert oracle_gpack(derived) == 2
    assert gp.gpack_value(derived) == 2
    assert (0, 1) in oracle_maximal_geodesics(derived)
    assert 1 + gp.induced_p3_packing_exact(k2) == 1
    with pytest.raises(ContractViolation):
        gp.verify_np_reduction(k2)


def test_reduction_length_assertion_fires_on_dominated_edges():
    # In the diamond the central edge cannot extend to an induced path, so
    # the derived graph keeps a length-1 maximal geodesic even though the
    # packing identity itself happens to hold.
    diamond = gp.Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    derived = gp.derived_graph(diamond)
    assert gp.gpack_value(derived) == 1 + gp.induced_p3_packing_exact(diamond)
    with pytest.raises(ContractViolation):
        gp.verify_np_reduction(diamond)


@given(graphs_st(min_n=1, max_n=6))
@settings(max_examples=30)
def test_p3_packing_matches_oracle(g):
    assert gp.induced_p3_packing_exact(g) == oracle_induced_p3_packing(g)


# ---------------------------------------------------------------------------
# Witness validity and oracle agreement
# ---------------------------------------------------------------------------

@given(graphs_st(max_n=6))
def test_solver_values_match_bruteforce(g):
    assert gp.gpack_value(g) == oracle_gpack(g)
    assert gp.gt_value(g) == oracle_gt(g)


@given(graphs_st(max_n=7))
@settings(max_examples=30)
def test_witnesses_are_valid(g):
    table = gp.all_pairs_distances(g)
    catalog = {p.vertices for p in gp.enumerate_maximal_geodesics(g).geodesics}
    value, packing = gp.gpack_exact(g)
    assert packing.size == value
    used: set[int] = set()
    for p in packing.geodesics:
        assert p.vertices in catalog
        assert gp.is_maximal_geodesic(g, p, table)
        assert not used.intersection(p.vertices)
        used.update(p.vertices)
    gt_value, transversal = gp.gt_exact(g)
    assert transversal.size == gt_value
    chosen = set(transversal.vertices)
    for verts in catalog:
        assert chosen.intersection(verts)


@given(trees_st(max_n=10))
@settings(max_examples=25)
def test_gpack_never_exceeds_bound_or_gt(t):
    catalog = gp.enumerate_maximal_geodesics(t)
    value = gp.gpack_value(t)
    assert value <= gp.gpack_upper_bound(t, catalog)
    assert value <= gp.gt_value(t)


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

def test_budget_exceeded_carries_bounds():
    with pytest.raises(BudgetExceeded) as info:
        gp.gt_exact(gp.rook_graph(4), TIGHT)
    assert info.value.lower is not None and info.value.upper is not None
    assert info.value.lower <= 10 <= info.value.upper


def test_gpack_budget_exceeded():
    with pytest.raises(BudgetExceeded) as info:
        gp.gpack_exact(gp.rook_graph(4), gp.SolveLimits(node_budget=1))
    assert info.value.lower >= 1


def test_p3_packing_budget_exceeded():
    g = gp.generate(gp.parse_family("cartesian(path:3,path:3)"))
    with pytest.raises(BudgetExceeded) as info:
        gp.induced_p3_packing_exact(g, gp.SolveLimits(node_budget=1))
    assert info.value.lower <= oracle_induced_p3_packing(g) <= info.value.upper == g.n // 3


@pytest.mark.parametrize(
    "solve, value, exact",
    [
        (gp.solvers._solve_gpack, gp.gpack_value, gp.gpack_exact),
        (gp.solvers._solve_gt, gp.gt_value, gp.gt_exact),
    ],
)
def test_witness_extraction_budget_exceeded(solve, value, exact):
    # A budget the value search fits in, but not the witness extraction.
    g = gp.rook_graph(3)
    budget = solve(g, gp.DEFAULT_LIMITS, want_witness=False).stats.nodes
    assert budget >= 1
    limits = gp.SolveLimits(node_budget=budget)
    assert value(g, limits) == value(g)
    with pytest.raises(BudgetExceeded) as info:
        exact(g, limits)
    assert info.value.nodes == budget + 1
    assert info.value.lower <= value(g) <= info.value.upper


def test_enumeration_cap_propagates():
    with pytest.raises(BudgetExceeded):
        gp.gpack_exact(gp.rook_graph(3), gp.SolveLimits(max_geodesics=5))


def test_limits_validation():
    with pytest.raises(ValueError):
        gp.SolveLimits(node_budget=0)


# ---------------------------------------------------------------------------
# Result JSON
# ---------------------------------------------------------------------------

def test_result_json_shape():
    report = gp.gpack_report(gp.complete_graph(4))
    doc = gp.solvers.solve_result_to_json_dict("gpack", report)
    assert list(doc.keys()) == ["invariant", "value", "exact", "witness", "bounds", "stats"]
    assert doc["value"] == 2 and doc["exact"] is True
    assert doc["witness"] == [[0, 1], [2, 3]]
    assert doc["bounds"] == {"lower": 2, "upper": 2}
    assert doc["stats"]["millis"] == 0


def test_solvers_match_catalog_bruteforce_on_random_graphs():
    import random

    from geopack.verify import random_graph
    from oracles import brute_lex_least_packing, brute_min_hitting

    rng = random.Random(1234)
    for _ in range(200):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.9), rng)
        geos = gp.enumerate_maximal_geodesics(g).geodesics
        least = brute_lex_least_packing([set(p.vertices) for p in geos])
        value, packing = gp.gpack_exact(g)
        assert value == len(least)
        assert packing.geodesics == tuple(geos[j] for j in least)
        assert gp.gt_value(g) == brute_min_hitting([set(p.vertices) for p in geos], g.n)
