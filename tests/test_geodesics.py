from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings

import geopack as gp
from geopack.errors import ContractViolation, DomainError, EnumerationOverflow
from geopack.verify import random_graph

from conftest import graphs_st
from oracles import nx_maximal_geodesics, oracle_maximal_geodesics


def catalog_tuples(g: gp.Graph, cap: int = 100_000) -> set[tuple[int, ...]]:
    return {p.vertices for p in gp.enumerate_maximal_geodesics(g, cap=cap).geodesics}


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def test_path_end_distance():
    table = gp.all_pairs_distances(gp.path_graph(4))
    assert table.dist(0, 3) == 3


def test_rook_distances_bounded_by_two():
    table = gp.all_pairs_distances(gp.rook_graph(3))
    offdiag = [table.dist(u, v) for u in range(9) for v in range(9) if u != v]
    assert set(offdiag) == {1, 2}
    assert table.diameter() == 2


def test_disconnected_distance_is_infinite():
    g = gp.Graph.from_edges(4, [(0, 1), (2, 3)])
    table = gp.all_pairs_distances(g)
    assert table.dist(0, 2) == math.inf
    assert not table.is_connected()
    with pytest.raises(DomainError):
        table.diameter()


@given(graphs_st(max_n=7))
def test_distance_table_axioms(g):
    table = gp.all_pairs_distances(g)
    for u in range(g.n):
        assert table.dist(u, u) == 0
        for v in range(g.n):
            assert table.dist(u, v) == table.dist(v, u)
            for w in range(g.n):
                assert table.dist(u, w) <= table.dist(u, v) + table.dist(v, w)


# ---------------------------------------------------------------------------
# Geodesic predicates
# ---------------------------------------------------------------------------

def test_is_geodesic_on_cycle():
    c4 = gp.cycle_graph(4)
    assert gp.is_geodesic(c4, [0, 1, 2])
    assert not gp.is_geodesic(c4, [0, 1, 2, 3])  # longer than dist(0, 3) = 1


def test_is_geodesic_rejects_ill_formed():
    c4 = gp.cycle_graph(4)
    assert not gp.is_geodesic(c4, [0, 2])      # not adjacent
    assert not gp.is_geodesic(c4, [0, 1, 0])   # repeat
    assert not gp.is_geodesic(c4, [0, 9])      # unknown id
    assert not gp.is_geodesic(c4, [])


def test_is_geodesic_in_rook():
    g = gp.rook_graph(3)
    ids = g.label_index()
    walk = [ids[(1, 2)], ids[(1, 1)], ids[(2, 1)]]
    assert gp.is_geodesic(g, walk)


def test_full_path_is_maximal_subpaths_are_not():
    p5 = gp.path_graph(5)
    assert gp.is_maximal_geodesic(p5, gp.Geodesic((0, 1, 2, 3, 4)))
    assert not gp.is_maximal_geodesic(p5, gp.Geodesic((1, 2, 3)))


def test_complete_graph_edges_are_maximal():
    k3 = gp.complete_graph(3)
    assert gp.is_maximal_geodesic(k3, gp.Geodesic((0, 1)))


def test_bipartite_cross_paths_are_maximal():
    g = gp.complete_bipartite_graph(3, 3)
    # two vertices of one part through the other part
    assert gp.is_maximal_geodesic(g, gp.Geodesic((0, 3, 1)))


def test_maximality_requires_a_geodesic():
    with pytest.raises(ContractViolation):
        gp.is_maximal_geodesic(gp.cycle_graph(4), gp.Geodesic((0, 1, 2, 3)))


def test_geodesic_canonical_orientation():
    assert gp.Geodesic.from_vertices([4, 3, 2]).vertices == (2, 3, 4)
    with pytest.raises(ValueError):
        gp.Geodesic((3, 1))
    with pytest.raises(ValueError):
        gp.Geodesic(())


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_path_has_single_maximal_geodesic():
    assert catalog_tuples(gp.path_graph(5)) == {(0, 1, 2, 3, 4)}


def test_k4_maximal_geodesics_are_edges():
    assert catalog_tuples(gp.complete_graph(4)) == {
        (u, v) for u in range(4) for v in range(u + 1, 4)
    }


def test_grid_geodesic_orders():
    g = gp.diagonal_grid((2, 3))
    orders = {len(p.vertices) for p in gp.enumerate_maximal_geodesics(g).geodesics}
    assert orders == {2, 3}


def test_isolated_vertices_are_trivial_geodesics():
    g = gp.Graph.from_edges(3, [(0, 1)])
    assert catalog_tuples(g) == {(0, 1), (2,)}


def test_empty_graph_catalog():
    catalog = gp.enumerate_maximal_geodesics(gp.Graph.from_edges(0, []))
    assert catalog.count == 0 and catalog.complete


def test_catalog_is_sorted_and_canonical():
    catalog = gp.enumerate_maximal_geodesics(gp.cycle_graph(6))
    verts = [p.vertices for p in catalog.geodesics]
    assert verts == sorted(verts)
    assert all(p.vertices[0] <= p.vertices[-1] for p in catalog.geodesics)


def test_cap_truncates_catalog():
    catalog = gp.enumerate_maximal_geodesics(gp.complete_graph(5), cap=4)
    assert not catalog.complete and catalog.count == 4
    with pytest.raises(EnumerationOverflow):
        gp.shortest_maximal_geodesic_length(catalog)


def test_cap_boundary_exact_fit():
    catalog = gp.enumerate_maximal_geodesics(gp.complete_graph(4), cap=6)
    assert catalog.complete and catalog.count == 6


@given(graphs_st(max_n=7))
@example(gp.Graph.from_edges(6, [(0, 2), (0, 5), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]))
@settings(max_examples=200)
def test_cap_truncates_to_a_prefix(g):
    # The example's first entry is (0, 2, 4); a scan by endpoint pair meets
    # (0, 5, 1), between 0 and 1, first.
    full = gp.enumerate_maximal_geodesics(g)
    for k in range(1, full.count + 2):
        catalog = gp.enumerate_maximal_geodesics(g, cap=k)
        assert catalog.geodesics == full.geodesics[:k]
        assert catalog.complete == (k >= full.count)


# ---------------------------------------------------------------------------
# Shortest maximal geodesic and uniformity
# ---------------------------------------------------------------------------

def test_shortest_maximal_lengths():
    for n in range(2, 6):
        catalog = gp.enumerate_maximal_geodesics(gp.complete_graph(n))
        assert gp.shortest_maximal_geodesic_length(catalog) == 1
    for n in range(2, 5):
        catalog = gp.enumerate_maximal_geodesics(gp.complete_bipartite_graph(n, n))
        assert gp.shortest_maximal_geodesic_length(catalog) == 2
    grid = gp.diagonal_grid((3, 4))
    catalog = gp.enumerate_maximal_geodesics(grid)
    assert gp.shortest_maximal_geodesic_length(catalog) == 2


def test_shortest_maximal_empty_catalog():
    catalog = gp.enumerate_maximal_geodesics(gp.Graph.from_edges(0, []))
    with pytest.raises(DomainError):
        gp.shortest_maximal_geodesic_length(catalog)


def test_uniform_families():
    for g in (gp.complete_graph(5), gp.cycle_graph(6), gp.path_graph(4)):
        assert gp.is_uniform_geodesic(g, gp.enumerate_maximal_geodesics(g))
    for n in range(2, 5):
        g = gp.rook_graph(n)
        assert gp.is_uniform_geodesic(g, gp.enumerate_maximal_geodesics(g))


def test_uneven_star_is_not_uniform():
    # star with one leaf subdivided: maximal geodesics of lengths 2 and 3
    g = gp.Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    assert not gp.is_uniform_geodesic(g, gp.enumerate_maximal_geodesics(g))


def test_uniform_needs_connected():
    g = gp.Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DomainError):
        gp.is_uniform_geodesic(g, gp.enumerate_maximal_geodesics(g))


@given(graphs_st(min_n=2, max_n=5, connected=True), graphs_st(min_n=2, max_n=5, connected=True))
@settings(max_examples=25)
def test_uniform_closed_under_box_product(g, h):
    def uniform(x):
        return gp.is_uniform_geodesic(x, gp.enumerate_maximal_geodesics(x))

    if uniform(g) and uniform(h):
        prod = gp.cartesian_product(g, h)
        assert uniform(prod)


# ---------------------------------------------------------------------------
# Oracle equivalence and extension soundness
# ---------------------------------------------------------------------------

@given(graphs_st(max_n=6))
def test_catalog_matches_bruteforce(g):
    assert catalog_tuples(g) == oracle_maximal_geodesics(g)


def test_catalog_matches_networkx_beyond_bruteforce():
    graphs = [gp.random_tree(60, random.Random(s)) for s in range(6)]
    graphs += [random_graph(24, 0.15, random.Random(s)) for s in range(6)]  # disconnected at times
    graphs.append(gp.diagonal_grid((5, 6)))
    for g in graphs:
        catalog = gp.enumerate_maximal_geodesics(g)
        assert catalog.complete
        assert [p.vertices for p in catalog.geodesics] == nx_maximal_geodesics(g)


@pytest.mark.slow
def test_catalog_matches_networkx_on_a_large_tree():
    g = gp.random_tree(1000, random.Random(0))
    assert [p.vertices for p in gp.enumerate_maximal_geodesics(g).geodesics] == nx_maximal_geodesics(g)


@given(graphs_st(max_n=7))
@settings(max_examples=30)
def test_enumerated_geodesics_have_no_extension(g):
    table = gp.all_pairs_distances(g)
    for p in gp.enumerate_maximal_geodesics(g).geodesics:
        assert gp.is_geodesic(g, p.vertices, table)
        assert gp.is_maximal_geodesic(g, p, table)
        first, last = p.vertices[0], p.vertices[-1]
        for w in g.adj[first]:
            assert table.dist(w, last) <= p.length
        for w in g.adj[last]:
            assert table.dist(first, w) <= p.length


def test_catalog_json_shape():
    doc = json.loads(gp.catalog_to_json(gp.enumerate_maximal_geodesics(gp.path_graph(3))))
    assert doc == {"complete": True, "count": 1, "geodesics": [[0, 1, 2]]}
