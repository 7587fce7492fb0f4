from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given

import geopack as gp
from geopack.errors import ContractViolation, DomainError, ParseError, SpecError
from geopack.graphs import _suppress as suppress

from conftest import graphs_st, trees_st

DATA = Path(__file__).resolve().parent.parent / "data"


def degree_multiset(g: gp.Graph) -> list[int]:
    return sorted(g.degree(v) for v in range(g.n))


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def test_parse_path():
    g = gp.parse_edge_list("0 1\n1 2")
    assert (g.n, g.edge_count) == (3, 2)
    assert g.adj == ((1,), (0, 2), (1,))


def test_parse_header_and_comments():
    g = gp.parse_edge_list("# a square\n\nn 4\n0 1\n1 2\n2 3\n3 0\n")
    assert (g.n, g.edge_count) == (4, 4)
    assert degree_multiset(g) == [2, 2, 2, 2]


def test_parse_header_allows_isolated_vertices():
    g = gp.parse_edge_list("n 5\n0 1")
    assert g.n == 5
    assert g.degree(4) == 0


def test_parse_self_loop_rejected():
    with pytest.raises(ParseError, match="line 1.*self-loop"):
        gp.parse_edge_list("0 0")


def test_parse_duplicate_rejected():
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        gp.parse_edge_list("0 1\n1 2\n1 0")


def test_parse_malformed_token():
    with pytest.raises(ParseError, match="line 2"):
        gp.parse_edge_list("0 1\n1 x")


def test_parse_id_above_header_count():
    with pytest.raises(ParseError, match="exceeds"):
        gp.parse_edge_list("n 2\n0 5")


def test_parse_crlf_accepted():
    g = gp.parse_edge_list("0 1\r\n1 2\r\n")
    assert g.edge_count == 2


def test_edge_list_roundtrip():
    g = gp.rook_graph(3)
    again = gp.parse_edge_list(gp.graph_to_edge_list(g))
    assert again.n == g.n and again.adj == g.adj


def test_graph_json_shape():
    g = gp.path_graph(3)
    doc = json.loads(gp.graph_to_json(g))
    assert list(doc.keys()) == ["n", "edges", "labels"]
    assert doc["edges"] == [[0, 1], [1, 2]]
    assert doc["labels"]["2"] == [2]
    unlabelled = gp.parse_edge_list("0 1")
    assert "labels" not in json.loads(gp.graph_to_json(unlabelled))


def test_from_edges_validation():
    with pytest.raises(ValueError):
        gp.Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        gp.Graph.from_edges(2, [(0, 3)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        gp.Graph.from_edges(3, [(1, 2), (2, 1)])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_complete_counts():
    assert gp.complete_graph(4).edge_count == 6


def test_rook3_is_four_regular():
    g = gp.rook_graph(3)
    assert g.n == 9 and degree_multiset(g) == [4] * 9


def test_diagonal_grid_counts():
    g = gp.diagonal_grid((2, 3))
    assert (g.n, g.edge_count) == (6, 11)


def test_cycle_minimum():
    with pytest.raises(SpecError):
        gp.cycle_graph(2)


def test_star_shape():
    g = gp.star_graph(4)
    assert g.n == 5 and g.degree(0) == 4 and degree_multiset(g) == [1, 1, 1, 1, 4]


DIRECT_BUILDS = {
    "path:4": lambda: gp.path_graph(4),
    "cycle:5": lambda: gp.cycle_graph(5),
    "complete:4": lambda: gp.complete_graph(4),
    "complete_bipartite:2,3": lambda: gp.complete_bipartite_graph(2, 3),
    "star:3": lambda: gp.star_graph(3),
    "rook:3": lambda: gp.rook_graph(3),
    "diagonal_grid:2,3": lambda: gp.diagonal_grid((2, 3)),
    "cartesian(path:2,cycle:3)": lambda: gp.cartesian_product(gp.path_graph(2), gp.cycle_graph(3)),
    "strong(path:2,path:3)": lambda: gp.strong_product(gp.path_graph(2), gp.path_graph(3)),
}


@pytest.mark.parametrize("text", DIRECT_BUILDS)
def test_generate_matches_direct(text):
    # Graph equality covers n, the adjacency and the labels.
    assert gp.generate(gp.parse_family(text)) == DIRECT_BUILDS[text]()


WRONG_ARITY = {
    "path:2,3": "path takes 1 parameter(s), got 2",
    "cycle": "cycle takes 1 parameter(s), got 0",
    "complete:2,3": "complete takes 1 parameter(s), got 2",
    "complete_bipartite:3": "complete_bipartite takes 2 parameter(s), got 1",
    "star:1,2,3": "star takes 1 parameter(s), got 3",
    "rook": "rook takes 1 parameter(s), got 0",
    "diagonal_grid": "diagonal_grid needs at least one dimension",
}


@pytest.mark.parametrize("text", WRONG_ARITY)
def test_generate_wrong_arity(text):
    with pytest.raises(SpecError) as info:
        gp.generate(gp.parse_family(text))
    assert str(info.value) == WRONG_ARITY[text]


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def test_k2_box_k2_is_c4():
    g = gp.cartesian_product(gp.complete_graph(2), gp.complete_graph(2))
    assert (g.n, g.edge_count) == (4, 4)
    assert degree_multiset(g) == [2, 2, 2, 2]


def test_p2_box_p3_grid():
    g = gp.cartesian_product(gp.path_graph(2), gp.path_graph(3))
    assert (g.n, g.edge_count) == (6, 7)


def test_k3_box_k3_edges():
    g = gp.cartesian_product(gp.complete_graph(3), gp.complete_graph(3))
    assert g.edge_count == 18


def test_strong_k2_k2_is_k4():
    g = gp.strong_product(gp.complete_graph(2), gp.complete_graph(2))
    assert (g.n, g.edge_count) == (4, 6)


def test_strong_of_three_paths_is_k8():
    g = gp.diagonal_grid((2, 2, 2))
    assert (g.n, g.edge_count) == (8, 28)


def test_product_labels_are_coordinates():
    g = gp.diagonal_grid((2, 3))
    assert g.labels is not None
    assert set(g.labels) == {(i, j) for i in range(2) for j in range(3)}


def test_empty_factor_rejected():
    with pytest.raises(SpecError):
        gp.cartesian_product(gp.Graph.from_edges(0, []), gp.path_graph(2))


@given(graphs_st(min_n=1, max_n=5), graphs_st(min_n=1, max_n=5))
def test_strong_edge_count_law(g, h):
    box = gp.cartesian_product(g, h)
    strong = gp.strong_product(g, h)
    assert strong.edge_count == box.edge_count + 2 * g.edge_count * h.edge_count


@given(graphs_st(min_n=1, max_n=5), graphs_st(min_n=1, max_n=5))
def test_product_commutes_up_to_isomorphism(g, h):
    gh = gp.cartesian_product(g, h)
    hg = gp.cartesian_product(h, g)
    assert gh.edge_count == hg.edge_count
    assert degree_multiset(gh) == degree_multiset(hg)
    sgh, shg = gp.strong_product(g, h), gp.strong_product(h, g)
    assert sgh.edge_count == shg.edge_count
    assert degree_multiset(sgh) == degree_multiset(shg)


# ---------------------------------------------------------------------------
# Derived graph
# ---------------------------------------------------------------------------

def test_derived_k1_is_star():
    g = gp.derived_graph(gp.complete_graph(1))
    assert (g.n, g.edge_count) == (4, 3)
    assert g.degree(3) == 3  # z


def test_derived_p3_hub_degree():
    g = gp.derived_graph(gp.path_graph(3))
    assert g.n == 6 and g.degree(5) == 5


def test_derived_k2_edge_count():
    assert gp.derived_graph(gp.complete_graph(2)).edge_count == 5


def test_derived_empty_rejected():
    with pytest.raises(DomainError):
        gp.derived_graph(gp.Graph.from_edges(0, []))


@given(graphs_st(min_n=1, max_n=6))
def test_derived_diameter_at_most_two(g):
    d = gp.derived_graph(g)
    z = g.n + 2
    assert all(d.has_edge(v, z) for v in range(g.n))
    rows = gp.all_pairs_distances(d)
    assert max(map(max, rows)) <= 2


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

def test_smooth_p5_keeps_leaf_ids():
    result = gp.smooth(gp.path_graph(5))
    assert result.graph.n == 2 and result.graph.edge_count == 1
    assert sorted(result.old_to_new) == [0, 4]


def test_smooth_keeps_isolated_vertices():
    result = gp.smooth(gp.Graph.from_edges(5, [(0, 1), (1, 2)]))
    assert result.graph.n == 4 and result.graph.edges() == [(0, 1)]
    assert result.old_to_new == {0: 0, 2: 1, 3: 2, 4: 3}


def test_suppress_refuses_a_parallel_edge():
    adj = [set(nbrs) for nbrs in gp.complete_graph(3).adj]
    with pytest.raises(ContractViolation, match="parallel edge"):
        suppress(adj, 0)
    assert adj == [{1, 2}, {0, 2}, {0, 1}]


def test_smooth_spider_to_star():
    spider = gp.Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    result = gp.smooth(spider)
    assert result.graph.n == 4
    assert sorted(result.old_to_new) == [0, 4, 5, 6]
    assert result.graph.degree(result.old_to_new[0]) == 3


def test_smooth_thirteen_vertex_example():
    g = gp.parse_edge_list((DATA / "fig1.edges").read_text())
    result = gp.smooth(g)
    assert result.graph.n == 9
    assert sorted(result.old_to_new) == [0, 1, 2, 7, 8, 9, 10, 11, 12]


def test_smooth_skips_triangle_vertices():
    assert gp.smooth(gp.complete_graph(3)).graph.n == 3
    # a square loses exactly one vertex before every survivor sits on a triangle
    result = gp.smooth(gp.cycle_graph(4))
    assert result.graph.n == 3 and 0 not in result.old_to_new


@given(graphs_st(max_n=8))
def test_smooth_idempotent(g):
    once = gp.smooth(g)
    twice = gp.smooth(once.graph)
    assert twice.graph == once.graph
    assert twice.old_to_new == {v: v for v in range(once.graph.n)}


@given(trees_st(max_n=12))
def test_smooth_preserves_tree_leaves(t):
    result = gp.smooth(t)
    original_leaves = {v for v in range(t.n) if t.degree(v) == 1}
    surviving_leaves = {
        old for old, new in result.old_to_new.items() if result.graph.degree(new) == 1
    }
    assert original_leaves == surviving_leaves


# ---------------------------------------------------------------------------
# Family spec grammar
# ---------------------------------------------------------------------------

def test_parse_family_atoms():
    assert gp.parse_family("complete:6") == gp.FamilySpec("complete", (6,))
    assert gp.parse_family("diagonal_grid:2,3,4") == gp.FamilySpec("diagonal_grid", (2, 3, 4))
    assert gp.parse_family("complete_bipartite:3,3") == gp.FamilySpec("complete_bipartite", (3, 3))


def test_parse_family_products():
    spec = gp.parse_family("strong(path:3,path:4)")
    assert spec.kind == "strong_product"
    assert spec.operands[0] == gp.FamilySpec("path", (3,))
    nested = gp.parse_family("cartesian(strong(path:2,path:2),complete:3)")
    assert nested.kind == "cartesian_product"
    assert gp.generate(nested).n == 12


def test_parse_family_errors():
    for bad in ("nonsense:3", "complete:", "cartesian(path:2)", "complete:2 junk"):
        with pytest.raises(SpecError):
            gp.parse_family(bad)


def test_generate_bad_params():
    with pytest.raises(SpecError):
        gp.generate(gp.FamilySpec("complete", (0,)))
    with pytest.raises(SpecError):
        gp.generate(gp.FamilySpec("complete", (2, 3)))
