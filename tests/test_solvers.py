from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geopack as gp
from geopack.cli import main
from geopack.errors import BudgetExceeded, ContractViolation, DomainError, EnumerationOverflow
from geopack.verify import random_graph

from conftest import counted, graphs_st, trees_st, walks
from oracles import (
    greedy_packing_reference,
    nx_maximal_geodesics,
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


def test_gpack_on_a_large_root_certified_grid(monkeypatch):
    # 81k maximal geodesics; the greedy packing meets n // 9, so the value
    # solve numbers nothing.
    numberings = counted(monkeypatch, "_number_sets", gp.solvers)
    family = gp.parse_family("diagonal_grid:9,9")
    assert gp.gpack_value(gp.generate(family)) == gp.formula_value(family, "gpack") == 9
    assert numberings == []


def test_gpack_fractional_bound_on_a_sparse_random_graph():
    # Each live vertex bounds the packing by 1 / (its shortest candidate's
    # size); the vertex-count bound alone searched about 1.3M nodes here.
    g = random_graph(30, 0.2, random.Random(2))
    assert gp.gpack_value(g, gp.SolveLimits(node_budget=20_000)) == 8


def test_solves_build_geodesics_only_for_the_witness(monkeypatch):
    built = []
    new = gp.Geodesic.__new__

    def counting(cls, vertices):
        built.append(vertices)
        return new(cls, vertices)

    monkeypatch.setattr(gp.Geodesic, "__new__", counting)
    g = gp.diagonal_grid((4, 4, 4))  # 13,468 maximal geodesics
    assert gp.gpack_value(g) == 16 and gp.gt_value(gp.rook_graph(4)) == 10
    assert built == []
    report = gp.gpack_report(g)
    value, packing = report.value, report.witness
    assert value == 16 and built == [p.vertices for p in packing.geodesics]


def test_gpack_witness_is_lexicographically_least():
    report = gp.gpack_report(gp.complete_graph(4))
    value, packing = report.value, report.witness
    assert value == 2
    assert [p.vertices for p in packing.geodesics] == [(0, 1), (2, 3)]


def test_gpack_single_vertex():
    report = gp.gpack_report(gp.complete_graph(1))
    value, packing = report.value, report.witness
    assert value == 1 and packing.geodesics[0].vertices == (0,)


def test_gpack_empty_graph():
    report = gp.gpack_report(gp.Graph.from_edges(0, []))
    value, packing = report.value, report.witness
    assert value == 0 and packing.size == 0


# ---------------------------------------------------------------------------
# gt
# ---------------------------------------------------------------------------

def test_gt_known_values():
    assert gp.gt_value(gp.complete_graph(5)) == 4
    assert gp.gt_value(gp.complete_bipartite_graph(3, 3)) == 3
    assert gp.gt_value(gp.rook_graph(4)) == 10


@pytest.mark.slow
def test_gt_rook6_north_star():
    # gt(K_n x K_n) = n^2 - 2n + 2; the value search spends 38,413 nodes.
    assert gp.gt_value(gp.rook_graph(6), gp.SolveLimits(node_budget=40_000)) == 26


@pytest.mark.slow
def test_gt_rook6_witness():
    # The lex-least witness is the 5 x 5 block of the first five rows and
    # columns plus cell 35; value and witness take about 53k nodes.
    report = gp.gt_report(gp.rook_graph(6), gp.SolveLimits(node_budget=60_000))
    value, transversal = report.value, report.witness
    block = tuple(6 * r + c for r in range(5) for c in range(5))
    assert value == 26 and transversal.vertices == block + (35,)


def test_gt_witness_from_the_incumbent():
    # A prefix test the optimal cover in hand already decides spends no
    # nodes; value and witness take 4,121 nodes.
    assert gp.gt_report(gp.rook_graph(5)).stats.nodes <= 4_500


def test_gt_report_rook3():
    report = gp.gt_report(gp.rook_graph(3))
    assert report.value == 5 and report.witness.vertices == (0, 1, 3, 4, 8)


def test_gt_witness_is_lexicographically_least():
    report = gp.gt_report(gp.complete_graph(4))
    value, transversal = report.value, report.witness
    assert value == 3 and transversal.vertices == (0, 1, 2)


def test_gt_witness_hits_everything():
    g = gp.rook_graph(3)
    report = gp.gt_report(g)
    value, transversal = report.value, report.witness
    assert value == 5
    chosen = set(transversal.vertices)
    for p in gp.enumerate_maximal_geodesics(g).geodesics:
        assert chosen.intersection(p.vertices)


def test_gt_on_a_300_vertex_tree():
    # The root reduction settles each search on this tree in its root node,
    # so the general engine reaches gt = gpack(T); without it a 20 s budget
    # ran out at bounds 41..53.
    t = gp.random_tree(300, random.Random(1))
    report = gp.gt_report(t, gp.SolveLimits(node_budget=1_000))
    value, transversal = report.value, report.witness
    assert value == gp.gpack_tree(t)[0] == 46
    chosen = set(transversal.vertices)
    assert len(chosen) == value
    assert all(chosen.intersection(p) for p in gp.enumerate_maximal_geodesics(t).paths)


@pytest.mark.slow
def test_gt_on_a_1000_vertex_tree():
    t = gp.random_tree(1000, random.Random(1))
    assert gp.gt_value(t, gp.SolveLimits(time_budget=60)) == gp.gpack_tree(t)[0] == 161


@pytest.mark.parametrize("spec, picked_without_0", [("path:5", 0b10), ("star:4", 0)])
def test_reduce_forces_and_drops_the_higher_of_equal_stars(spec, picked_without_0):
    # path:5 has one maximal geodesic, so its five stars are equal: only
    # vertex 0 survives, and it is forced.  In star:4 the centre 0 dominates
    # every leaf.  With vertex 0 forbidden the path forces vertex 1 and the
    # star's leaves are left to the search; with every vertex forbidden
    # nothing hits the sets, the reduction leaves them live and picks
    # nothing, and the search finds no cover.
    g = gp.generate(gp.parse_family(spec))
    sets, covers = gp.solvers._number_sets(gp.enumerate_maximal_geodesics(g).paths, g.n)
    everything = (1 << len(sets)) - 1
    assert gp.solvers._reduce(everything, 0, sets, covers)[:3] == (0, 0b11111, 0b1)
    assert gp.solvers._reduce(everything, 0b1, sets, covers)[2] == picked_without_0
    assert gp.solvers._reduce(everything, 0b11111, sets, covers) == (everything, 0b11111, 0, 0)
    budget = gp.solvers._Budget("gt search", gp.SolveLimits(), time.monotonic())
    assert gp.solvers._hs_search(everything, 0b11111, g.n + 1, 0, sets, covers, budget) is None


@pytest.mark.parametrize("spec, reduces", [("star:4", True), ("path:5", True), ("cycle:5", False)])
def test_reduce_takes_a_set_through_a_hub(spec, reduces):
    # Every leaf-to-leaf path of star:4 runs through the centre, so the first
    # one is taken and the centre's star dropped; path:5 has one maximal
    # geodesic.  In cycle:5 no vertex lies on every set meeting another.
    g = gp.generate(gp.parse_family(spec))
    sets, covers = gp.solvers._number_sets(gp.enumerate_maximal_geodesics(g).paths, g.n)
    everything = (1 << len(sets)) - 1
    live, _, _, taken = gp.solvers._reduce(everything, 0, sets, covers)
    assert (live, taken) == ((0, 0b1) if reduces else (everything, 0))


@given(
    st.lists(st.frozensets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=9),
    st.integers(0, 7),
)
@settings(max_examples=300)
def test_reduce_keeps_the_optimum(family, k):
    # The packing engine packs any vertex sets.  The taken sets are pairwise
    # disjoint, meet no set left, and with a largest packing of the rest make
    # a largest packing of the family.  With the vertices below k forbidden,
    # the picked vertices are allowed, hit every set they settled, and with a
    # smallest allowed hitting set of the rest make a smallest allowed
    # hitting set of the family; or neither family has one.
    from oracles import brute_lex_least_hitting, brute_lex_least_packing

    sets, covers = gp.solvers._number_sets([sorted(f) for f in family], 7)
    everything = (1 << len(sets)) - 1

    def largest(mask):
        return len(brute_lex_least_packing([set(sets[j]) for j in range(len(sets)) if mask >> j & 1]))

    rest, _, _, taken = gp.solvers._reduce(everything, 0, sets, covers)
    used = [v for j in range(len(sets)) if taken >> j & 1 for v in sets[j]]
    assert len(used) == len(set(used))
    assert not any(set(sets[j]) & set(used) for j in range(len(sets)) if rest >> j & 1)
    assert taken.bit_count() + largest(rest) == largest(everything)

    def smallest(mask, forbidden):
        gone = {v for v in range(7) if forbidden >> v & 1}
        allowed = [set(sets[j]) - gone for j in range(len(sets)) if mask >> j & 1]
        return None if set() in allowed else len(brute_lex_least_hitting(allowed, 7))

    prefix = (1 << k) - 1
    live, forbidden, picked, _ = gp.solvers._reduce(everything, prefix, sets, covers)
    chosen = {v for v in range(7) if picked >> v & 1}
    assert not picked & prefix
    assert all(chosen & set(sets[j]) for j in range(len(sets)) if (everything & ~live) >> j & 1)
    reduced = smallest(live, forbidden)
    assert (None if reduced is None else len(chosen) + reduced) == smallest(everything, prefix)


@st.composite
def reduce_instances(draw):
    n = draw(st.integers(1, 9))
    family = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=14))
    sets, covers = gp.solvers._number_sets([sorted(f) for f in family], n)
    live = draw(st.integers(0, (1 << len(sets)) - 1))
    forbidden = draw(st.one_of(
        st.just(0),
        st.integers(0, (1 << n) - 1),
        st.integers(0, n).map(lambda k: (1 << k) - 1),  # a gt prefix test
    ))
    return live, forbidden, sets, covers


@given(reduce_instances())
@settings(max_examples=500)
def test_reduce_matches_the_all_vertex_reference(instance):
    # Visiting only the vertices still in play gives the fixpoint of the
    # routine that rebuilds every star and tests every vertex each round.
    from oracles import reduce_reference

    assert gp.solvers._reduce(*instance) == reduce_reference(*instance)


@given(reduce_instances())
@settings(max_examples=200)
def test_greedy_bound_sees_the_forbidden_vertices(instance):
    # The greedy takes live sets pairwise disjoint outside ``forbidden``, and
    # each other live set meets a taken one there.  Each taken set needs its
    # own allowed vertex, so no hitting set avoiding ``forbidden`` is smaller.
    live, forbidden, sets, covers = instance
    taken = gp.solvers._greedy_disjoint(live, forbidden, sets, covers)
    allowed = [{v for v in s if not forbidden >> v & 1} for s in sets]
    rows = [j for j in range(len(sets)) if live >> j & 1]
    picks = [j for j in rows if taken >> j & 1]
    assert taken & ~live == 0
    assert all(not allowed[i] & allowed[j] for i in picks for j in picks if i < j)
    assert all(any(allowed[i] & allowed[j] for i in picks) for j in rows if j not in picks)
    free = [v for v in range(len(covers)) if not forbidden >> v & 1]
    for k in range(len(free) + 1):
        if any(all(allowed[j].intersection(c) for j in rows) for c in itertools.combinations(free, k)):
            assert len(picks) <= k
            break


@given(reduce_instances())
@settings(max_examples=200)
def test_greedy_cover_matches_the_rescan_reference(instance):
    # Recounting only the stars whose last count beats the best so far takes
    # the same stars, ties to the lowest index, as recounting every star.
    from oracles import greedy_cover_reference

    live, _, sets, covers = instance
    budget = gp.solvers._Budget("gt search", gp.SolveLimits(), time.monotonic())
    assert gp.solvers._greedy_cover(live, covers, budget) == greedy_cover_reference(live, covers)


# (kind, seed, gpack value, gpack report nodes, gt value, gt report nodes)
PINNED_NODES = [
    ("tree", 0, 7, 19, 7, 21),
    ("graph", 0, 5, 91, 7, 214),
    ("tree", 1, 8, 6, 8, 12),
    ("graph", 1, 5, 18, 6, 33),
    ("tree", 2, 7, 9, 7, 22),
    ("graph", 2, 4, 133, 7, 141),
    ("tree", 3, 8, 27, 8, 25),
    ("graph", 3, 4, 39, 6, 149),
    ("tree", 4, 7, 13, 7, 15),
    ("graph", 4, 5, 5, 8, 217),
]


@pytest.mark.parametrize("kind, seed, gpack, gpack_nodes, gt, gt_nodes", PINNED_NODES)
def test_report_nodes_are_pinned(kind, seed, gpack, gpack_nodes, gt, gt_nodes):
    # Search-node counts are deterministic, so exact pins catch any change
    # to the searches, the bounds or the reduction that the values miss.
    rng = random.Random(seed)
    g = gp.random_tree(42, rng) if kind == "tree" else random_graph(18, 0.25, rng)
    packing, transversal = gp.gpack_report(g), gp.gt_report(g)
    assert (packing.value, packing.stats.nodes) == (gpack, gpack_nodes)
    assert (transversal.value, transversal.stats.nodes) == (gt, gt_nodes)


def test_gpack_witness_is_lex_least_on_small_trees(small_trees):
    from oracles import brute_lex_least_packing

    for t in small_trees:
        paths = gp.enumerate_maximal_geodesics(t).paths
        expected = [paths[j] for j in brute_lex_least_packing([set(p) for p in paths])]
        assert [p.vertices for p in gp.gpack_report(t).witness.geodesics] == expected


def test_gpack_on_a_300_vertex_tree():
    # The root reduction empties the value search in its root node and
    # settles each witness prefix test at its root.
    t = gp.random_tree(300, random.Random(1))
    report = gp.gpack_report(t, gp.SolveLimits(node_budget=1_000))
    value, packing = report.value, report.witness
    assert value == gp.gpack_tree(t)[0] == 46
    assert gp.solvers._solve(t, gp.SolveLimits(node_budget=1), "gpack", want_witness=False).stats.nodes == 1
    used = [v for p in packing.geodesics for v in p.vertices]
    assert len(used) == len(set(used))


@pytest.mark.slow
def test_gpack_on_a_1000_vertex_tree():
    # The value search ends in its root node; the witness took 1,225 nodes.
    t = gp.random_tree(1000, random.Random(1))
    assert gp.gpack_value(t, gp.SolveLimits(node_budget=1)) == gp.gpack_tree(t)[0] == 161
    packing = gp.gpack_report(t, gp.SolveLimits(node_budget=2_000, time_budget=120)).witness
    assert packing.size == 161
    used = [v for p in packing.geodesics for v in p.vertices]
    assert len(used) == len(set(used))
    assert {p.vertices for p in packing.geodesics} <= set(gp.enumerate_maximal_geodesics(t).paths)


def test_gt_witness_is_lex_least_on_small_trees(small_trees):
    from oracles import brute_lex_least_hitting

    for t in small_trees:
        sets = [set(p) for p in gp.enumerate_maximal_geodesics(t).paths]
        assert gp.gt_report(t).witness.vertices == brute_lex_least_hitting(sets, t.n)


def test_gt_isolated_vertices_are_forced():
    g = gp.Graph.from_edges(3, [(0, 1)])
    report = gp.gt_report(g)
    value, transversal = report.value, report.witness
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


# The smallest ratio-3 graph: 6 vertices, gpack 1 and gt 3.
RATIO_THREE_EDGES = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (3, 4), (4, 5)]


def test_duality_reaches_three_on_six_vertices():
    g = gp.Graph.from_edges(6, RATIO_THREE_EDGES)
    assert gp.duality_check(g) == (1, 3, 3)
    assert (oracle_gpack(g), oracle_gt(g)) == (1, 3)


def test_duality_ratio_at_most_three_on_the_atlas():
    # Every connected graph with n <= 7: the ratio never passes 3, and the
    # graph above is the first in atlas order to reach it.
    nx = pytest.importorskip("networkx")
    best, first, count = 0, None, 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 0 or not nx.is_connected(h):
            continue
        count += 1
        ratio = gp.duality_check(gp.Graph.from_edges(h.number_of_nodes(), h.edges())).ratio
        if ratio > best:
            best, first = ratio, sorted(h.edges())
    assert (count, best, first) == (996, 3, RATIO_THREE_EDGES)


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
    with pytest.raises(ContractViolation, match=r"maximal pair \(0, 1\) at distance 1$"):
        gp.verify_np_reduction(k2)
    # The length check reads the pair pass, so the cap does not stop it.
    with pytest.raises(ContractViolation):
        gp.verify_np_reduction(k2, gp.SolveLimits(max_geodesics=1))


def test_reduction_length_assertion_fires_on_dominated_edges():
    # In the diamond the central edge cannot extend to an induced path, so
    # the derived graph keeps a length-1 maximal geodesic even though the
    # packing identity itself happens to hold.
    diamond = gp.Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    derived = gp.derived_graph(diamond)
    assert gp.gpack_value(derived) == 1 + gp.induced_p3_packing_exact(diamond)
    with pytest.raises(ContractViolation, match=r"maximal pair \(1, 2\) at distance 1$"):
        gp.verify_np_reduction(diamond)


def test_reduction_holds_exactly_on_graphs_without_a_closed_twin_edge(atlas_connected):
    # z is universal in the derived graph, so an edge uv of G is a maximal
    # geodesic there exactly when N[u] = N[v], and the length check raises.
    # On the atlas graphs (n = 3..7) without such an edge the identity holds:
    # checked here, not proved.
    twins = plain = 0
    for g in atlas_connected:
        if g.n < 3:
            continue
        closed = [{v, *g.adj[v]} for v in range(g.n)]
        if any(closed[u] == closed[v] for u in range(g.n) for v in g.adj[u]):
            with pytest.raises(ContractViolation, match="at distance 1$"):
                gp.verify_np_reduction(g)
            twins += 1
        else:
            assert gp.verify_np_reduction(g) is True
            plain += 1
    assert (twins, plain) == (411, 583)


def test_reduction_check_lists_the_derived_graph_at_most_once(monkeypatch):
    # The length check reads the pair pass; gpack_value's solve is the only walk.
    from geopack.verify import random_connected_bipartite_max3

    listed = walks(monkeypatch)
    assert gp.verify_np_reduction(random_connected_bipartite_max3(10, random.Random(7)))
    assert len(listed) <= 1


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
    catalog = {p.vertices for p in gp.enumerate_maximal_geodesics(g).geodesics}
    report = gp.gpack_report(g)
    value, packing = report.value, report.witness
    assert packing.size == value
    used: set[int] = set()
    for p in packing.geodesics:
        assert p.vertices in catalog
        assert gp.is_maximal_geodesic(g, p)
        assert not used.intersection(p.vertices)
        used.update(p.vertices)
    report = gp.gt_report(g)
    gt_value, transversal = report.value, report.witness
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


def _fractional_bound(paths: tuple[tuple[int, ...], ...], n: int) -> int:
    # Each vertex holds at most 1 / (the order of its shortest entry) of a packing.
    shortest: dict[int, int] = {}
    for p in paths:
        for v in p:
            shortest[v] = min(shortest.get(v, n), len(p))
    return math.floor(sum((Fraction(1, k) for k in shortest.values()), Fraction(0)))


@given(graphs_st(min_n=15, max_n=30, connected=True))
@settings(max_examples=15, deadline=None)
def test_solver_properties_at_n_15_to_30(g):
    paths = gp.complete_catalog(g, gp.enumerate_maximal_geodesics(g)).paths
    catalog = set(paths)
    budget = gp.solvers._Budget("gpack search", gp.DEFAULT_LIMITS, time.monotonic())
    gp.solvers._pack(gp.solvers._number_sets(paths, g.n), budget, want_witness=False)
    bound = _fractional_bound(paths, g.n)
    cold = []
    for report in (gp.gpack_report, gp.gt_report):
        gp.solvers._kept = None
        cold.append(report(g))
    warm = [gp.gpack_report(g), gp.gt_report(g)]  # both read the catalog gt's report kept
    assert [r[:2] + (r.stats.nodes,) for r in warm] == [r[:2] + (r.stats.nodes,) for r in cold]
    packing, transversal = cold[0].witness, cold[1].witness
    assert packing.size == cold[0].value <= budget.upper == bound <= g.n // min(map(len, paths))
    used: set[int] = set()
    for p in packing.geodesics:
        assert p.vertices in catalog and gp.is_maximal_geodesic(g, p)
        assert not used.intersection(p.vertices)
        used.update(p.vertices)
    # A largest packing is inclusion-maximal, so its vertices hit every entry:
    # gt <= |used| <= gpack * (the order of the longest entry).
    assert cold[1].value <= len(used) and all(used.intersection(p) for p in paths)
    chosen = set(transversal.vertices)
    assert transversal.size == cold[1].value and all(chosen.intersection(p) for p in paths)


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

def test_budget_exceeded_carries_bounds():
    with pytest.raises(BudgetExceeded) as info:
        gp.gt_report(gp.rook_graph(4), TIGHT)
    assert info.value.lower is not None and info.value.upper is not None
    assert info.value.lower <= 10 <= info.value.upper


def test_gpack_budget_exceeded():
    with pytest.raises(BudgetExceeded) as info:
        gp.gpack_report(gp.rook_graph(5), gp.SolveLimits(node_budget=1))
    assert str(info.value) == "gpack search stopped: search node budget exhausted"
    assert (info.value.lower, info.value.upper, info.value.nodes) == (7, 8, 2)


def test_gpack_stop_reports_the_root_fractional_bound():
    # n // 3 would read 13; the fractional bound is 11, the optimum.
    g = random_graph(40, 0.15, random.Random(1))
    with pytest.raises(BudgetExceeded) as info:
        gp.gpack_report(g, gp.SolveLimits(node_budget=1))
    assert (info.value.lower, info.value.upper) == (9, 11)


def test_root_certified_gpack_witness_needs_no_search():
    # The greedy packing meets n // 3 at the root and holds every set of the
    # lex-least witness, so no prefix test searches.
    limits = gp.SolveLimits(node_budget=1)
    first = gp.gpack_report(gp.rook_graph(4), limits)
    value, packing = first.value, first.witness
    report = gp.gpack_report(gp.rook_graph(4), limits)
    assert value == 5 and report.stats.nodes == 0 and report.witness == packing


def test_time_budget_exceeded():
    # The budget counts from the start of the solve, and gt's root greedy
    # cover reads the clock at its first pick, before any node, with the
    # certified bounds set so far: the greedy packing and n.
    with pytest.raises(BudgetExceeded) as info:
        gp.gt_value(gp.rook_graph(5), gp.SolveLimits(time_budget=1e-9))
    assert str(info.value) == "gt search stopped: time budget exhausted"
    assert (info.value.lower, info.value.upper, info.value.nodes) == (7, 25, 0)


def test_the_time_budget_counts_from_the_start_of_the_solve():
    # The work before the search (enumeration, numbering, root bounds) counts.
    budget = gp.solvers._Budget("gt search", gp.SolveLimits(time_budget=1.0), time.monotonic() - 2.0)
    with pytest.raises(BudgetExceeded, match="time budget exhausted") as info:
        budget.spend()
    assert info.value.nodes == 1


def test_p3_packing_budget_exceeded():
    g = gp.generate(gp.parse_family("cartesian(path:3,path:3)"))
    with pytest.raises(BudgetExceeded) as info:
        gp.induced_p3_packing_exact(g, gp.SolveLimits(node_budget=1))
    assert info.value.lower <= oracle_induced_p3_packing(g) <= info.value.upper == g.n // 3
    assert str(info.value) == "induced P3 packing stopped: search node budget exhausted"


@pytest.mark.parametrize(
    "invariant, value, report",
    [
        ("gpack", gp.gpack_value, gp.gpack_report),
        ("gt", gp.gt_value, gp.gt_report),
    ],
)
def test_witness_extraction_budget_exceeded(invariant, value, report):
    # A budget the value search fits in, but not the witness extraction.
    g = gp.rook_graph(3)
    budget = gp.solvers._solve(g, gp.DEFAULT_LIMITS, invariant, want_witness=False).stats.nodes
    assert budget >= 1
    limits = gp.SolveLimits(node_budget=budget)
    assert value(g, limits) == value(g)
    with pytest.raises(BudgetExceeded) as info:
        report(g, limits)
    assert info.value.nodes == budget + 1
    assert info.value.lower <= value(g) <= info.value.upper


def test_enumeration_cap_propagates():
    with pytest.raises(BudgetExceeded):
        gp.gpack_report(gp.rook_graph(3), gp.SolveLimits(max_geodesics=5))


def test_limits_validation():
    with pytest.raises(ValueError):
        gp.SolveLimits(node_budget=0)
    with pytest.raises(ValueError):
        gp.SolveLimits(time_budget=float("nan"))


# ---------------------------------------------------------------------------
# The kept catalog
# ---------------------------------------------------------------------------

def test_reports_of_one_graph_share_one_catalog(monkeypatch):
    enumerations = walks(monkeypatch)
    numberings = counted(monkeypatch, "_number_sets", gp.solvers)
    g = gp.rook_graph(3)
    gp.gpack_report(g)
    gp.gt_report(g)
    assert len(enumerations) == len(numberings) == 1
    gp.gt_report(gp.Graph.from_edges(g.n, g.edges()))  # equal, not the same object
    assert len(enumerations) == len(numberings) == 1
    gp.gpack_report(gp.rook_graph(4))
    assert len(enumerations) == len(numberings) == 2
    gp.gpack_report(g, gp.SolveLimits(max_geodesics=1000))
    assert len(enumerations) == len(numberings) == 3
    gp.gpack_report(g)  # the kept entry is the cap-1000 one
    assert len(enumerations) == len(numberings) == 4


@pytest.mark.parametrize("g", [gp.complete_graph(6), gp.rook_graph(3)], ids=["complete:6", "rook:3"])
def test_a_duality_check_runs_one_pair_pass_and_at_most_one_walk(monkeypatch, g):
    # gt goes first and keeps its catalog, so gpack reads it: on complete:6,
    # whose gpack value settles, gpack first would keep nothing for gt.
    pair_passes = counted(monkeypatch, "_maximal_pairs", gp.geodesics, gp.solvers)
    listed = walks(monkeypatch)
    assert gp.duality_check(g)[:2] == (3, 5)
    assert len(pair_passes) == 1 and len(listed) <= 1


@pytest.mark.parametrize("spec", ["diagonal_grid:4,4", "diagonal_grid:7,7"])
def test_a_gpack_value_the_greedy_settles_numbers_nothing(monkeypatch, spec):
    # The greedy packing meets n // (the order of the shortest entry).
    numberings = counted(monkeypatch, "_number_sets", gp.solvers)
    family = gp.parse_family(spec)
    g = gp.generate(family)
    result = gp.solvers._solve(g, gp.DEFAULT_LIMITS, "gpack", want_witness=False)
    assert gp.gpack_value(g) == result.value == gp.formula_value(family, "gpack")
    assert result.stats.nodes == 0 and result.witness is None and numberings == []


@pytest.mark.parametrize("spec", ["cartesian(cycle:4,cycle:4)", "rook:5"])
def test_a_gpack_value_the_greedy_falls_short_of_numbers_once(monkeypatch, spec):
    numberings = counted(monkeypatch, "_number_sets", gp.solvers)
    g = gp.generate(gp.parse_family(spec))
    value = gp.gpack_value(g)
    assert len(numberings) == 1
    assert value == gp.gpack_report(g).value


def test_the_catalog_grids_settle_without_a_catalog(monkeypatch):
    import geopack.geodesics

    def listing(*args, **kwargs):
        raise AssertionError("a catalog was listed")

    monkeypatch.setattr(geopack.geodesics, "enumerate_maximal_geodesics", listing)
    monkeypatch.setattr(gp.solvers, "_list_geodesics", listing)
    for spec in ("7,7", "6,8", "4,4,4", "7,8", "3,3,3,3", "8,8"):
        family = gp.parse_family(f"diagonal_grid:{spec}")
        assert gp.gpack_value(gp.generate(family)) == gp.formula_value(family, "gpack")


@st.composite
def sparse_or_dense_graphs(draw):
    # G(n, p) for n = 0..14: disconnected graphs and isolated vertices included.
    n = draw(st.integers(0, 14))
    p = draw(st.sampled_from([0.1, 0.2, 0.35, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return gp.Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@given(sparse_or_dense_graphs())
@settings(max_examples=300)
def test_the_pair_greedy_matches_the_greedy_over_the_catalog(g):
    catalog = gp.enumerate_maximal_geodesics(g)
    assert list(catalog.paths) == nx_maximal_geodesics(g)
    pairs = gp.geodesics._maximal_pairs(g.adj)
    packing = list(gp.geodesics._greedy_packing(g.adj, pairs, ()))
    assert packing == greedy_packing_reference(catalog.paths)
    # P is a packing of maximal geodesics that no maximal geodesic misses,
    # so |P| <= gpack <= gt <= |V(P)|; the value solve, which may settle on
    # P, agrees with the search over the catalog.
    covered = [v for path in packing for v in path]
    assert len(set(covered)) == len(covered)
    assert all(gp.is_maximal_geodesic(g, path) for path in packing)
    assert not any(gp.geodesics._greedy_packing(g.adj, pairs, covered))
    gpack = gp.gpack_value(g)
    assert len(packing) <= gpack == gp.gpack_report(g).value <= gp.gt_value(g) <= len(covered)


def test_gt_of_a_2d_grid_is_its_first_row_plus_first_column():
    # gt = a + b - 1 on every a x b grid here, and the lex-least witness is
    # the vertices labelled (0, j) or (i, 0). In general it is a conjecture.
    for a in range(2, 7):
        for b in range(a, 7):
            g = gp.diagonal_grid((a, b))
            cross = tuple(v for v, (i, j) in enumerate(g.labels) if i == 0 or j == 0)
            report = gp.gt_report(g)
            assert report.value == a + b - 1 == len(cross)
            assert report.witness.vertices == cross


def test_small_hypercubes():
    # Q_d as nested products of K2; a label's weight is its number of ones.
    cubes = {1: gp.path_graph(2)}
    for d in range(2, 10):
        cubes[d] = gp.cartesian_product(gp.path_graph(2), cubes[d - 1])
    for d, gpack, gt in ((2, 1, 2), (3, 2, 3), (4, 2, 6), (5, 5, 10)):
        assert gp.gpack_value(cubes[d]) == gpack
        assert gp.gt_value(cubes[d]) == gt == math.comb(d, d // 2)
    # The middle layer meets every maximal geodesic (each joins an antipodal
    # pair, so its weight crosses d // 2), and less one vertex it does not.
    for d in range(2, 10):
        g = cubes[d]
        pairs = gp.geodesics._maximal_pairs(g.adj)
        middle = [v for v, label in enumerate(g.labels) if sum(label) == d // 2]
        assert not any(gp.geodesics._greedy_packing(g.adj, pairs, middle))
        assert any(gp.geodesics._greedy_packing(g.adj, pairs, middle[1:]))


def test_a_settled_gpack_value_needs_no_catalog_past_the_cap():
    # diagonal_grid:5,5 has more than 50 maximal geodesics.
    capped = gp.SolveLimits(max_geodesics=50)
    assert gp.gpack_value(gp.diagonal_grid((5, 5)), capped) == 5
    # The witness needs the whole catalog, and rook:5's greedy falls short.
    with pytest.raises(EnumerationOverflow, match="exceeded 50 entries"):
        gp.gpack_report(gp.diagonal_grid((5, 5)), capped)
    with pytest.raises(EnumerationOverflow, match="exceeded 10 entries"):
        gp.gpack_value(gp.rook_graph(5), gp.SolveLimits(max_geodesics=10))


@pytest.mark.parametrize("dims", [(10, 10), (30, 30), (5, 9, 13), (10, 10, 10)])
def test_settled_gpack_values_past_the_default_cap(dims):
    family = gp.FamilySpec("diagonal_grid", dims)
    assert gp.gpack_value(gp.generate(family)) == gp.formula_value(family, "gpack")


def test_gpack_value_on_graphs_without_edges():
    # The empty catalog has no shortest entry, so it goes to the search.
    assert gp.gpack_value(gp.Graph.from_edges(0, [])) == 0
    assert gp.gpack_value(gp.Graph.from_edges(3, [])) == 3


def test_every_solve_that_numbers_keeps_its_catalog(monkeypatch):
    kept_while_enumerating = []
    enumerate_ = gp.geodesics._list_geodesics

    def watching(*args, **kwargs):
        kept_while_enumerating.append(gp.solvers._kept)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(gp.geodesics, "_list_geodesics", watching)
    monkeypatch.setattr(gp.solvers, "_list_geodesics", watching)
    assert gp.gt_value(gp.rook_graph(3)) == 5
    assert gp.solvers._kept is not None and gp.solvers._kept[0][0] == 9
    assert gp.gpack_value(gp.rook_graph(3)) == 3  # reads the kept catalog
    assert kept_while_enumerating == [None]
    assert gp.gt_value(gp.rook_graph(4)) == 10  # the old entry goes before the new catalog is built
    assert kept_while_enumerating == [None, None] and gp.solvers._kept[0][0] == 16
    # A gpack value the greedy packing settles lists no catalog and keeps nothing.
    assert gp.gpack_value(gp.diagonal_grid((4, 4))) == 4
    assert kept_while_enumerating == [None, None] and gp.solvers._kept is None


def test_a_capped_catalog_is_never_kept():
    gp.gt_report(gp.rook_graph(3))
    with pytest.raises(BudgetExceeded):
        gp.gt_report(gp.rook_graph(3), gp.SolveLimits(max_geodesics=10))
    assert gp.solvers._kept is None


def test_a_kept_catalog_solves_like_a_fresh_one():
    rng = random.Random(18)
    graphs = [random_graph(rng.randint(8, 16), rng.uniform(0.15, 0.5), rng) for _ in range(10)]
    graphs += [gp.random_tree(rng.randint(10, 40), rng) for _ in range(10)]
    # A cold gpack value solve settles these from the greedy packing; a warm
    # one reads the kept catalog and searches it, with the same nodes.
    graphs += [gp.diagonal_grid((3, 4)), gp.diagonal_grid((2, 2, 3))]

    def gpack_value_solve(g):
        return gp.solvers._solve(g, gp.DEFAULT_LIMITS, "gpack", want_witness=False)

    solves = (gp.gpack_report, gp.gt_report, gp.gpack_report, gp.gpack_value, gpack_value_solve, gp.gt_value)

    def outcome(result):
        return result if isinstance(result, int) else (result.value, result.witness, result.stats.nodes)

    for g in graphs:
        cold = []
        for solve in solves:
            gp.solvers._kept = None
            cold.append(outcome(solve(g)))
        assert [outcome(solve(g)) for solve in solves] == cold  # all but the first read the kept catalog


# ---------------------------------------------------------------------------
# Result JSON
# ---------------------------------------------------------------------------

def test_result_json_shape(capsys):
    assert main(["compute", "--family", "complete:4", "--invariant", "gpack", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc.keys()) == ["invariant", "value", "exact", "witness", "bounds", "stats"]
    assert doc["value"] == 2 and doc["exact"] is True
    assert doc["witness"] == [[0, 1], [2, 3]]
    assert doc["bounds"] == {"lower": 2, "upper": 2}
    assert doc["stats"]["millis"] == 0


def test_solvers_match_catalog_bruteforce_on_random_graphs():
    import random

    from geopack.verify import random_graph
    from oracles import brute_lex_least_hitting, brute_lex_least_packing

    rng = random.Random(1234)
    for _ in range(200):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.9), rng)
        geos = gp.enumerate_maximal_geodesics(g).geodesics
        sets = [set(p.vertices) for p in geos]
        least = brute_lex_least_packing(sets)
        report = gp.gpack_report(g)
        value, packing = report.value, report.witness
        assert value == len(least)
        assert packing.geodesics == tuple(geos[j] for j in least)
        hitting = brute_lex_least_hitting(sets, g.n)
        report = gp.gt_report(g)
        value, transversal = report.value, report.witness
        assert value == gp.gt_value(g) == len(hitting)
        assert transversal.vertices == hitting
