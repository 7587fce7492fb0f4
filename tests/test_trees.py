from __future__ import annotations

import random
import time
from collections import deque

import pytest
from hypothesis import given, settings

import geopack as gp
from geopack.errors import ContractViolation, DomainError

from conftest import trees_st, walks
from oracles import find_end_support_vertex, oracle_gpack


def tree_path(t: gp.Graph, u: int, v: int) -> list[int]:
    parent: dict[int, int | None] = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in t.adj[x]:
            if w not in parent:
                parent[w] = x
                queue.append(w)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


def assert_valid_witness(t: gp.Graph, value: int, pairs: gp.LeafPairSet) -> None:
    assert pairs.size == value
    if t.n == 1:
        assert pairs.pairs == ((0, 0),)
        return
    used: set[int] = set()
    for u, v in pairs.pairs:
        assert u < v
        assert t.degree(u) == 1 and t.degree(v) == 1
        path = tree_path(t, u, v)
        assert gp.is_maximal_geodesic(t, path)
        assert not used.intersection(path)
        used.update(path)


# ---------------------------------------------------------------------------
# End support vertices
# ---------------------------------------------------------------------------

def test_end_support_star_centre():
    assert find_end_support_vertex(gp.star_graph(3)) == 0


def test_end_support_double_star_lowest_centre():
    t = gp.Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert find_end_support_vertex(t) == 0


def test_end_support_k2():
    assert find_end_support_vertex(gp.complete_graph(2)) == 0


def test_end_support_contract():
    with pytest.raises(ContractViolation):
        find_end_support_vertex(gp.path_graph(5))  # has degree-2 vertices
    with pytest.raises(ContractViolation):
        find_end_support_vertex(gp.cycle_graph(4))
    with pytest.raises(ContractViolation):
        find_end_support_vertex(gp.complete_graph(1))


# ---------------------------------------------------------------------------
# gpack_tree
# ---------------------------------------------------------------------------

def test_paths_pack_once():
    for n in range(2, 9):
        value, pairs = gp.gpack_tree(gp.path_graph(n))
        assert value == 1 and pairs.pairs == ((0, n - 1),)


def test_stars_pack_once():
    for n in range(2, 7):
        value, _ = gp.gpack_tree(gp.star_graph(n))
        assert value == 1


def test_double_star():
    t = gp.Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    value, pairs = gp.gpack_tree(t)
    assert value == 2 and pairs.pairs == ((2, 3), (4, 5))
    assert_valid_witness(t, value, pairs)


def test_spider_with_four_legs():
    # all leaf-to-leaf paths share the centre, so one geodesic is the best
    spider = gp.Graph.from_edges(
        9, [(0, i) for i in range(1, 5)] + [(i, i + 4) for i in range(1, 5)]
    )
    value, pairs = gp.gpack_tree(spider)
    assert value == 1 == oracle_gpack(spider)
    assert_valid_witness(spider, value, pairs)


def test_suppression_after_deleting_an_end_support_vertex():
    # Deleting 1 with leaves 3, 4 leaves 0 with degree 2; suppressing it
    # joins 2 and 7, so 2 becomes an end support vertex with leaves 5, 6, 7.
    t = gp.Graph.from_edges(8, [(0, 1), (0, 2), (0, 7), (1, 3), (1, 4), (2, 5), (2, 6)])
    value, pairs = gp.gpack_tree(t)
    assert value == 2 and pairs.pairs == ((3, 4), (5, 6))
    assert_valid_witness(t, value, pairs)


def test_single_vertex_tree():
    assert gp.gpack_tree(gp.complete_graph(1)) == (1, gp.LeafPairSet(((0, 0),)))


def test_empty_graph():
    assert gp.gpack_tree(gp.Graph.from_edges(0, [])) == (0, gp.LeafPairSet(()))
    assert not gp.is_tree(gp.Graph.from_edges(0, []))


def test_non_trees_rejected():
    with pytest.raises(DomainError):
        gp.gpack_tree(gp.cycle_graph(4))
    with pytest.raises(DomainError):
        gp.gpack_tree(gp.Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_pairs_sorted_by_first_element():
    rng = random.Random(3)
    for _ in range(20):
        t = gp.random_tree(rng.randint(2, 30), rng)
        _, pairs = gp.gpack_tree(t)
        firsts = [u for u, _ in pairs.pairs]
        assert firsts == sorted(firsts)


def test_exhaustive_small_trees(small_trees):
    for t in small_trees:
        value, pairs = gp.gpack_tree(t)
        assert_valid_witness(t, value, pairs)
        assert value == gp.gt_value(t) == gp.gpack_value(t)


@given(trees_st(max_n=11))
@settings(max_examples=30)
def test_tree_algorithm_matches_bruteforce(t):
    value, pairs = gp.gpack_tree(t)
    assert value == oracle_gpack(t)
    assert_valid_witness(t, value, pairs)


@given(trees_st(max_n=14))
@settings(max_examples=30)
def test_smoothing_leaves_value_unchanged(t):
    value, _ = gp.gpack_tree(t)
    smoothed, _ = gp.gpack_tree(gp.smooth(t).graph)
    assert value == smoothed


@given(trees_st(min_n=3, max_n=14))
@settings(max_examples=30)
def test_end_support_deletion_recurrence(t):
    t = gp.smooth(t).graph
    if t.n < 3:
        return
    p = find_end_support_vertex(t)
    doomed = {p} | {w for w in t.adj[p] if t.degree(w) == 1}
    kept = [v for v in range(t.n) if v not in doomed]
    relabel = {old: new for new, old in enumerate(kept)}
    rest = gp.Graph.from_edges(
        len(kept),
        [(relabel[u], relabel[v]) for u, v in t.edges() if u in relabel and v in relabel],
    )
    assert gp.gpack_tree(t)[0] == gp.gpack_tree(rest)[0] + 1


def test_equality_check_on_random_trees():
    rng = random.Random(5)
    for n in (2, 9, 25, 50):
        assert gp.verify_tree_equality(gp.random_tree(n, rng))


def test_equality_check_enumerates_once(monkeypatch):
    calls = walks(monkeypatch)
    assert gp.verify_tree_equality(gp.random_tree(30, random.Random(7)))
    assert len(calls) == 1


def test_equality_check_rejects_non_tree():
    with pytest.raises(DomainError):
        gp.verify_tree_equality(gp.cycle_graph(5))


# ---------------------------------------------------------------------------
# Pruefer utilities
# ---------------------------------------------------------------------------

def test_pruefer_decode_star():
    t = gp.tree_from_pruefer([0, 0], 4)
    assert t.adj == ((1, 2, 3), (0,), (0,), (0,))


def test_pruefer_decode_path():
    t = gp.tree_from_pruefer([1, 2], 4)
    assert t.edge_count == 3 and sorted(t.degree(v) for v in range(4)) == [1, 1, 2, 2]


def test_pruefer_validation():
    with pytest.raises(DomainError):
        gp.tree_from_pruefer([0], 4)
    with pytest.raises(DomainError):
        gp.tree_from_pruefer([], 1)


@pytest.mark.parametrize("entry", [3, 5, -1])
def test_pruefer_entry_outside_the_vertex_range(entry):
    # A negative entry would otherwise wrap around to a vertex at the end.
    with pytest.raises(DomainError, match=rf"Pruefer entry {entry} lies outside 0\.\.2"):
        gp.tree_from_pruefer([entry], 3)


def test_random_tree_is_deterministic_per_seed():
    a = gp.random_tree(20, random.Random(9))
    b = gp.random_tree(20, random.Random(9))
    assert a == b and gp.is_tree(a)


def test_random_tree_needs_a_vertex():
    with pytest.raises(DomainError, match="^random tree needs n >= 1$"):
        gp.random_tree(0, random.Random(9))


def test_random_tree_on_two_vertices_draws_nothing():
    rng = random.Random(9)
    state = rng.getstate()
    assert gp.random_tree(2, rng) == gp.Graph.from_edges(2, [(0, 1)])
    assert rng.getstate() == state


def test_large_tree_solves_quickly():
    t = gp.random_tree(3000, random.Random(1))
    started = time.monotonic()
    value, pairs = gp.gpack_tree(t)
    assert time.monotonic() - started < 2.0
    assert value == pairs.size > 0
