from __future__ import annotations

import pytest

import geopack as gp
from geopack.errors import DomainError, Unsupported


def spec(kind: str, *params: int) -> gp.FamilySpec:
    return gp.FamilySpec(kind, tuple(params))


# ---------------------------------------------------------------------------
# formula_value
# ---------------------------------------------------------------------------

def test_complete_formulas():
    assert gp.formula_value(spec("complete", 7), "gpack") == 3
    assert gp.formula_value(spec("complete", 7), "gt") == 6


def test_rook_transversal_formula():
    assert gp.formula_value(spec("rook", 4), "gt") == 10
    assert gp.formula_value(spec("rook", 1), "gt") == 1


def test_grid_packing_formula():
    assert gp.formula_value(spec("diagonal_grid", 2, 3, 4), "gpack") == 12
    # dimensions are normalized ascending before applying the formula
    assert gp.formula_value(spec("diagonal_grid", 4, 2, 3), "gpack") == 12


def test_path_and_bipartite_formulas():
    assert gp.formula_value(spec("path", 6), "gpack") == 1
    assert gp.formula_value(spec("path", 6), "gt") == 1
    assert gp.formula_value(spec("complete_bipartite", 4, 4), "gpack") == 2
    assert gp.formula_value(spec("complete_bipartite", 4, 4), "gt") == 4


def test_unsupported_pairs():
    with pytest.raises(Unsupported):
        gp.formula_value(spec("rook", 3), "gpack")
    with pytest.raises(Unsupported):
        gp.formula_value(spec("diagonal_grid", 2, 3), "gt")
    with pytest.raises(Unsupported):
        gp.formula_value(spec("cycle", 5), "gpack")
    with pytest.raises(Unsupported):
        gp.formula_value(spec("star", 4), "gt")


def test_formula_hypothesis_violations():
    with pytest.raises(DomainError):
        gp.formula_value(spec("complete", 1), "gpack")
    with pytest.raises(DomainError):
        gp.formula_value(spec("complete_bipartite", 2, 3), "gt")
    with pytest.raises(DomainError):
        gp.formula_value(spec("complete_bipartite", 1, 1), "gpack")
    with pytest.raises(DomainError):
        gp.formula_value(spec("diagonal_grid", 1, 3), "gpack")
    with pytest.raises(DomainError):
        gp.formula_value(spec("diagonal_grid", 5), "gpack")
    with pytest.raises(ValueError):
        gp.formula_value(spec("path", 4), "chromatic")
    with pytest.raises(DomainError, match="^path formula needs n >= 1$"):
        gp.formula_value(spec("path", 0), "gpack")
    with pytest.raises(DomainError, match="^rook formula needs n >= 1$"):
        gp.formula_value(spec("rook", 0), "gt")
    with pytest.raises(DomainError, match=r"^complete takes 1 parameter\(s\)$"):
        gp.formula_value(spec("complete", 2, 3), "gt")


def test_formulas_match_solver_at_small_parameters():
    for n in range(2, 8):
        g = gp.complete_graph(n)
        assert gp.formula_value(spec("complete", n), "gpack") == gp.gpack_value(g)
        assert gp.formula_value(spec("complete", n), "gt") == gp.gt_value(g)
    for n in range(2, 5):
        g = gp.complete_bipartite_graph(n, n)
        assert gp.formula_value(spec("complete_bipartite", n, n), "gpack") == gp.gpack_value(g)
        assert gp.formula_value(spec("complete_bipartite", n, n), "gt") == gp.gt_value(g)
    for n in range(2, 5):
        assert gp.formula_value(spec("rook", n), "gt") == gp.gt_value(gp.rook_graph(n))
    for n in range(1, 9):
        g = gp.path_graph(n)
        assert gp.gpack_value(g) == 1 and gp.gt_value(g) == 1


# ---------------------------------------------------------------------------
# Explicit grid packing
# ---------------------------------------------------------------------------

def test_grid_packing_two_by_two():
    packing = gp.diagonal_grid_packing((2, 2))
    assert packing.size == 2
    grid = gp.diagonal_grid((2, 2))
    for p in packing.geodesics:
        assert p.length == 1
        assert gp.is_maximal_geodesic(grid, p)


def test_grid_packing_sizes():
    assert gp.diagonal_grid_packing((2, 3)).size == 3
    assert gp.diagonal_grid_packing((3, 3)).size == 3
    assert gp.diagonal_grid_packing((2, 2, 3)).size == 6


def test_grid_packing_members_are_disjoint_columns():
    # Unsorted dimensions are taken as given: the members lie in diagonal_grid(dims).
    for dims in ((3, 3), (4, 3), (3, 2, 2), (5, 2, 3)):
        grid = gp.diagonal_grid(dims)
        packing = gp.diagonal_grid_packing(dims)
        used: set[int] = set()
        for p in packing.geodesics:
            assert len(p.vertices) == min(dims)
            assert gp.is_maximal_geodesic(grid, p.vertices)
            assert not used.intersection(p.vertices)
            used.update(p.vertices)
        assert packing.size == gp.formula_value(spec("diagonal_grid", *dims), "gpack")
        assert packing.size == gp.gpack_value(grid)


def test_grid_packing_hypothesis_violation():
    with pytest.raises(DomainError):
        gp.diagonal_grid_packing((1, 4))
    with pytest.raises(DomainError):
        gp.diagonal_grid_packing((3,))


# ---------------------------------------------------------------------------
# Rook complement construction
# ---------------------------------------------------------------------------

def test_rook_complement_sizes():
    for n in range(2, 6):
        free = gp.rook_complement_set(n)
        assert len(free) == 2 * n - 2


def test_rook_complement_is_a_transversal_complement():
    for n in range(2, 6):
        g = gp.rook_graph(n)
        transversal = set(range(g.n)) - set(gp.rook_complement_set(n))
        assert len(transversal) == n * n - 2 * n + 2
        for p in gp.enumerate_maximal_geodesics(g).geodesics:
            assert transversal.intersection(p.vertices)


def test_rook_complement_complement_is_optimal():
    for n in range(2, 5):
        assert gp.gt_value(gp.rook_graph(n)) == n * n - 2 * n + 2


def test_rook_complement_requires_two():
    with pytest.raises(DomainError):
        gp.rook_complement_set(1)


def test_rook_complement_is_checked_without_a_catalog(monkeypatch):
    # rook:19 has 116,964 maximal geodesics, past the default cap; the check
    # reads the maximal pairs and lists none of them.
    import geopack.geodesics

    def listing(*args, **kwargs):
        raise AssertionError("a catalog was listed")

    monkeypatch.setattr(geopack.geodesics, "enumerate_maximal_geodesics", listing)
    monkeypatch.setattr(geopack.geodesics, "_list_geodesics", listing)
    assert len(gp.rook_complement_set(19)) == 36


# ---------------------------------------------------------------------------
# Uniform product bound
# ---------------------------------------------------------------------------

def test_uniform_bound_values():
    k3 = gp.complete_graph(3)
    p3 = gp.path_graph(3)
    assert gp.uniform_product_bound([k3, k3]) == 3
    assert gp.uniform_product_bound([p3, p3]) == 1
    assert gp.uniform_product_bound([gp.cycle_graph(4)]) == 1


def test_uniform_bound_rejects_non_uniform_factor():
    lopsided = gp.Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    with pytest.raises(DomainError):
        gp.uniform_product_bound([lopsided])
    with pytest.raises(DomainError):
        gp.uniform_product_bound([])


def test_uniform_bound_dominates_solver():
    factors = [gp.complete_graph(3), gp.cycle_graph(4), gp.path_graph(3)]
    for a in factors:
        for b in factors:
            bound = gp.uniform_product_bound([a, b])
            assert bound >= gp.gpack_value(gp.cartesian_product(a, b))
