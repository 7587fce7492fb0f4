from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geopack as gp
from geopack.cli import main
from geopack.errors import ContractViolation, DomainError, EnumerationOverflow
from geopack.verify import random_graph

from conftest import graphs_st
from oracles import all_simple_paths, bfs_distances, nx_maximal_geodesics, oracle_maximal_geodesics


def catalog_tuples(g: gp.Graph, cap: int = 100_000) -> set[tuple[int, ...]]:
    return {p.vertices for p in gp.enumerate_maximal_geodesics(g, cap=cap).geodesics}


def _count_bfs_sources(monkeypatch) -> list[int]:
    sources: list[int] = []
    bfs = gp.geodesics._bfs

    def counting(adj, source):
        sources.append(source)
        return bfs(adj, source)

    monkeypatch.setattr(gp.geodesics, "_bfs", counting)
    return sources


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def test_path_end_distance():
    rows = gp.all_pairs_distances(gp.path_graph(4))
    assert rows[0][3] == 3


def test_rook_distances_bounded_by_two():
    rows = gp.all_pairs_distances(gp.rook_graph(3))
    offdiag = [rows[u][v] for u in range(9) for v in range(9) if u != v]
    assert set(offdiag) == {1, 2}
    assert max(map(max, rows)) == 2


def test_disconnected_distance_is_infinite():
    g = gp.Graph.from_edges(4, [(0, 1), (2, 3)])
    rows = gp.all_pairs_distances(g)
    assert rows[0][2] == math.inf


@given(graphs_st(max_n=8))
def test_bfs_rows_order_and_sinks(g):
    for s in range(g.n):
        dist, order, sinks = gp.geodesics._bfs(g.adj, s)
        reached = bfs_distances(g, s)
        assert dist == [reached.get(v, g.n) for v in range(g.n)]
        assert order[0] == s and sorted(order) == sorted(reached)
        assert all(dist[a] <= dist[b] for a, b in zip(order, order[1:]))
        outward = {x for x in reached for y in g.adj[x] if reached[y] == reached[x] + 1}
        assert sinks == sum(1 << x for x in reached if x not in outward)


@given(graphs_st(max_n=7))
def test_distance_table_axioms(g):
    rows = gp.all_pairs_distances(g)
    for u in range(g.n):
        assert rows[u][u] == 0
        for v in range(g.n):
            assert rows[u][v] == rows[v][u]
            for w in range(g.n):
                assert rows[u][w] <= rows[u][v] + rows[v][w]


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


@given(graphs_st(max_n=6))
def test_maximality_matches_the_containment_definition(g):
    # Every geodesic, maximal or not, in both orientations: the predicate's
    # sink rule against the oracle's "contained in no longer geodesic".
    maximal = oracle_maximal_geodesics(g)
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for p in all_simple_paths(g):
        if dist[p[0]].get(p[-1]) == len(p) - 1:
            assert gp.is_maximal_geodesic(g, p) == (p in maximal)
            assert gp.is_maximal_geodesic(g, p[::-1]) == (p in maximal)


def test_geodesic_canonical_orientation():
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


def test_isolated_vertices_are_trivial_geodesics(monkeypatch):
    g = gp.Graph.from_edges(3, [(0, 1)])
    assert catalog_tuples(g) == {(0, 1), (2,)}
    # Isolated 0 and 7 beside a path 1-2-3, whose cut vertex 2 is no source,
    # and a triangle.
    sources = _count_bfs_sources(monkeypatch)
    g = gp.Graph.from_edges(8, [(1, 2), (2, 3), (4, 5), (4, 6), (5, 6)])
    assert catalog_tuples(g) == {(0,), (1, 2, 3), (4, 5), (4, 6), (5, 6), (7,)}
    assert sorted(sources) == [0, 1, 3, 4, 5, 6, 7]


def test_empty_graph_catalog():
    catalog = gp.enumerate_maximal_geodesics(gp.Graph.from_edges(0, []))
    assert catalog.count == 0 and catalog.complete


def test_catalog_is_sorted_and_canonical():
    catalog = gp.enumerate_maximal_geodesics(gp.cycle_graph(6))
    verts = [p.vertices for p in catalog.geodesics]
    assert verts == sorted(verts)
    assert all(p.vertices[0] <= p.vertices[-1] for p in catalog.geodesics)
    assert catalog.paths == tuple(verts)


def test_cap_truncates_catalog():
    catalog = gp.enumerate_maximal_geodesics(gp.complete_graph(5), cap=4)
    assert not catalog.complete and catalog.count == 4
    with pytest.raises(EnumerationOverflow):
        gp.shortest_maximal_geodesic_length(catalog)
    with pytest.raises(ValueError, match="^cap must be positive$"):
        gp.enumerate_maximal_geodesics(gp.complete_graph(5), cap=0)


def test_complete_catalog_refuses_a_capped_prefix():
    g = gp.complete_graph(5)
    full = gp.complete_catalog(g)
    assert gp.complete_catalog(g, catalog=full) is full and full.count == 10
    capped = gp.enumerate_maximal_geodesics(g, cap=4)
    for read, bounds in (
        (lambda: gp.complete_catalog(g, 4), (0, 5)),
        (lambda: gp.is_uniform_geodesic(g, capped), (0, 5)),
        (lambda: gp.shortest_maximal_geodesic_length(capped), (None, None)),
    ):
        with pytest.raises(EnumerationOverflow, match="^maximal-geodesic catalog exceeded 4 entries$") as info:
            read()
        assert (info.value.lower, info.value.upper) == bounds


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
    empty = gp.Graph.from_edges(0, [])
    with pytest.raises(DomainError):
        gp.is_uniform_geodesic(empty, gp.enumerate_maximal_geodesics(empty))
    # Connectivity is checked before completeness: a capped catalog of a
    # disconnected graph is a DomainError, not an EnumerationOverflow.
    capped = gp.enumerate_maximal_geodesics(g, cap=1)
    assert not capped.complete
    with pytest.raises(DomainError):
        gp.is_uniform_geodesic(g, capped)


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


def test_enumeration_runs_no_bfs_from_a_cut_vertex(monkeypatch):
    # A tree's cut vertices are its inner vertices, so only leaves are sources.
    sources = _count_bfs_sources(monkeypatch)
    t = gp.random_tree(40, random.Random(3))
    gp.enumerate_maximal_geodesics(t)
    assert sorted(sources) == [v for v in range(t.n) if len(t.adj[v]) == 1]
    # Two triangles sharing vertex 2.
    sources.clear()
    bowtie = gp.Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert catalog_tuples(bowtie) == oracle_maximal_geodesics(bowtie)
    assert sorted(sources) == [0, 1, 3, 4]


@given(graphs_st(max_n=9))
@settings(max_examples=150)
def test_cut_vertices_match_networkx(g):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    cut = gp.geodesics._cut_vertices(g.adj)
    assert {v for v in range(g.n) if cut >> v & 1} == set(nx.articulation_points(G))


@given(graphs_st(max_n=5, connected=True), graphs_st(max_n=5, connected=True), st.integers(0, 4))
@settings(max_examples=60)
def test_catalog_of_graphs_glued_at_a_cut_vertex(g, h, at):
    # h's vertex 0 becomes g's vertex ``at``; h's others follow g's.
    glue = at % g.n
    ids = [glue] + list(range(g.n, g.n + h.n - 1))
    edges = list(g.edges()) + [(ids[u], ids[v]) for u, v in h.edges()]
    glued = gp.Graph.from_edges(g.n + h.n - 1, edges)
    assert catalog_tuples(glued) == oracle_maximal_geodesics(glued)


def test_catalog_matches_networkx_beyond_bruteforce():
    graphs = [gp.random_tree(60, random.Random(s)) for s in range(6)]
    graphs += [random_graph(24, 0.15, random.Random(s)) for s in range(6)]  # disconnected at times
    graphs.append(gp.diagonal_grid((5, 6)))
    # A path's only partners are its ends; every vertex of an odd cycle has two sinks.
    graphs += [gp.path_graph(200), gp.cycle_graph(201)]
    # Dense inputs, where most arcs run backward or within a layer.
    graphs.append(gp.diagonal_grid((3, 3, 3)))
    graphs += [gp.generate(gp.parse_family(f)) for f in ("rook:5", "complete_bipartite:6,7")]
    graphs += [random_graph(20, 0.6, random.Random(s)) for s in range(2)]
    # Two components, a 4-cycle and a triangle with a pendant, and isolated 0, 5 and 10.
    graphs.append(gp.Graph.from_edges(11, [(1, 2), (2, 3), (3, 4), (1, 4), (6, 7), (7, 8), (6, 8), (8, 9)]))
    for g in graphs:
        catalog = gp.enumerate_maximal_geodesics(g)
        assert catalog.complete
        assert [p.vertices for p in catalog.geodesics] == nx_maximal_geodesics(g)


@pytest.mark.slow
def test_catalog_matches_networkx_on_a_large_tree():
    g = gp.random_tree(1000, random.Random(0))
    assert list(gp.enumerate_maximal_geodesics(g).paths) == nx_maximal_geodesics(g)


@pytest.mark.slow
def test_catalog_matches_networkx_on_a_benchmark_grid():
    g = gp.diagonal_grid((7, 7))  # 6.8k maximal geodesics
    assert list(gp.enumerate_maximal_geodesics(g).paths) == nx_maximal_geodesics(g)


@pytest.mark.slow
def test_catalog_matches_networkx_on_a_dense_benchmark_grid():
    g = gp.diagonal_grid((3, 3, 3, 3))  # 16,448 maximal geodesics on 1,160 edges
    assert list(gp.enumerate_maximal_geodesics(g).paths) == nx_maximal_geodesics(g)


@given(graphs_st(min_n=0, max_n=9), st.data())
@settings(max_examples=200)
def test_transversal_check_matches_the_catalog(g, data):
    # Random sets, an optimal transversal, and that transversal less one vertex.
    paths = gp.enumerate_maximal_geodesics(g).paths
    chosen = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
    optimal = list(gp.gt_report(g).witness.vertices)
    for vertices in (chosen, optimal, optimal[1:]):
        hits_all = all(not set(vertices).isdisjoint(p) for p in paths)
        assert gp.geodesics._is_transversal(g, vertices) == hits_all


@given(graphs_st(max_n=7))
@settings(max_examples=30)
def test_enumerated_geodesics_have_no_extension(g):
    rows = gp.all_pairs_distances(g)
    for p in gp.enumerate_maximal_geodesics(g).geodesics:
        assert gp.is_geodesic(g, p.vertices)
        assert gp.is_maximal_geodesic(g, p)
        first, last = p.vertices[0], p.vertices[-1]
        for w in g.adj[first]:
            assert rows[w][last] <= p.length
        for w in g.adj[last]:
            assert rows[first][w] <= p.length


def test_catalog_json_shape(capsys):
    assert main(["enumerate", "--family", "path:3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"complete": True, "count": 1, "geodesics": [[0, 1, 2]]}
