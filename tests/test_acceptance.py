"""End-to-end acceptance checks, one printed status line per criterion.

All checks are exact (integer equality, zero tolerance).  Solver time
budgets are enforced through SolveLimits, so a performance regression
surfaces as an honest BudgetExceeded failure rather than a silent hang.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import geopack as gp
from geopack.formulas import rook_ratio_curve
from geopack.verify import _GRID_DIMS, random_connected_bipartite_max3, random_graph

from oracles import oracle_gpack, oracle_gt, oracle_maximal_geodesics

DATA = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def criterion(number: str, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>3} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:>3} PASS  {title}")


def test_criterion_01_family_formulas():
    limits = gp.SolveLimits(time_budget=10.0)
    with criterion("1", "closed forms for complete and balanced bipartite graphs"):
        for n in range(2, 8):
            g = gp.complete_graph(n)
            assert gp.gpack_value(g, limits) == n // 2
            assert gp.gt_value(g, limits) == n - 1
        for n in range(2, 5):
            g = gp.complete_bipartite_graph(n, n)
            assert gp.gpack_value(g, limits) == (2 * n) // 3
            assert gp.gt_value(g, limits) == n


def test_criterion_02_rook_transversal():
    limits = gp.SolveLimits(time_budget=60.0)
    with criterion("2", "rook transversal number and complement construction"):
        for n in range(2, 5):
            assert gp.gt_value(gp.rook_graph(n), limits) == n * n - 2 * n + 2
        for n in range(2, 6):
            g = gp.rook_graph(n)
            transversal = set(range(g.n)) - set(gp.rook_complement_set(n))
            assert len(transversal) == n * n - 2 * n + 2
            for p in gp.enumerate_maximal_geodesics(g).geodesics:
                assert transversal.intersection(p.vertices)


def test_criterion_03_rook_ratio_chain():
    limits = gp.SolveLimits(time_budget=60.0)
    with criterion("3", "rook ratio table: gt = n^2-2n+2 and gpack <= floor(n^2/3)"):
        print()
        print("    n  gpack  gt  ratio  curve 3(1-2/n+2/n^2)")
        for n in range(2, 5):
            g = gp.rook_graph(n)
            gt = gp.gt_value(g, limits)
            gpack = gp.gpack_value(g, limits)
            assert gt == n * n - 2 * n + 2
            assert gpack <= (n * n) // 3
            ratio = Fraction(gt, gpack)
            print(f"    {n}  {gpack}      {gt:>2}  {str(ratio):<5}  {rook_ratio_curve(n)}")
            assert ratio >= rook_ratio_curve(n)


def test_criterion_04_duality(atlas_connected):
    limits = gp.SolveLimits(time_budget=300.0)
    with criterion("4", "gpack <= gt on all connected n<=7 plus 200 random graphs"):
        for g in atlas_connected:
            report = gp.duality_check(g, limits)
            assert report.gpack <= report.gt
        rng = random.Random(2024)
        for _ in range(200):
            g = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.9), rng)
            if g.n == 0:
                continue
            report = gp.duality_check(g, limits)
            assert report.gpack <= report.gt


def test_criterion_05_trees(small_trees):
    limits = gp.SolveLimits(time_budget=300.0)
    with criterion("5", "tree algorithm equals exact packing and transversal"):
        for t in small_trees:
            value, _ = gp.gpack_tree(t)
            assert value == gp.gpack_value(t, limits) == gp.gt_value(t, limits)
        # labelled exhaustive sweep at small orders
        for n in range(2, 7):
            seqs = [()] if n == 2 else product(range(n), repeat=n - 2)
            for seq in seqs:
                t = gp.tree_from_pruefer(list(seq), n)
                value, _ = gp.gpack_tree(t)
                assert value == gp.gt_value(t, limits)
        rng = random.Random(18)
        for _ in range(100):
            t = gp.random_tree(rng.randint(2, 18), rng)
            value, _ = gp.gpack_tree(t)
            assert value == gp.gpack_value(t, limits) == gp.gt_value(t, limits)
        rng = random.Random(50)
        for _ in range(100):
            t = gp.random_tree(50, rng)
            value, _ = gp.gpack_tree(t)
            assert value == gp.gt_value(t, limits)


def test_criterion_06_smoothing(small_trees):
    with criterion("6", "smoothing invariance on trees; 13-vertex counterexample off trees"):
        for t in small_trees:
            assert gp.gpack_tree(t)[0] == gp.gpack_tree(gp.smooth(t).graph)[0]
        rng = random.Random(6)
        for _ in range(100):
            t = gp.random_tree(rng.randint(2, 18), rng)
            assert gp.gpack_tree(t)[0] == gp.gpack_tree(gp.smooth(t).graph)[0]
        g = gp.parse_edge_list((DATA / "fig1.edges").read_text())
        assert gp.gpack_value(g) == 4
        assert gp.gpack_value(gp.smooth(g).graph) == 3


def test_criterion_07a_reduction_exhaustive_connected(atlas_connected):
    # Known-failing: the identity gpack(derived(G)) = 1 + packing of induced
    # P3s breaks whenever G has an edge whose endpoints dominate each
    # other's neighbourhoods; such an edge survives as a length-1 maximal
    # geodesic of the derived graph.  K2 is the smallest case (packing 2,
    # not 1 + 0).  Connected triangle-free graphs on >= 3 vertices have no
    # such edge, which is why 7b holds.  Asserted as stated regardless.
    limits = gp.SolveLimits(time_budget=300.0)
    with criterion("7a", "derived-graph identity on every connected graph n<=6"):
        failures = []
        for g in atlas_connected:
            if g.n > 6:
                continue
            derived = gp.derived_graph(g)
            catalog = gp.enumerate_maximal_geodesics(derived)
            lengths_ok = all(p.length == 2 for p in catalog.geodesics)
            identity_ok = (
                gp.gpack_value(derived, limits)
                == 1 + gp.induced_p3_packing_exact(g, limits)
            )
            if not (lengths_ok and identity_ok):
                failures.append(
                    (g.edges(), "lengths" if not lengths_ok else "", "identity" if not identity_ok else "")
                )
        assert not failures, (
            f"{len(failures)} connected graphs with n<=6 violate the derived-graph "
            f"claims; smallest cases: {failures[:3]}"
        )


def test_criterion_07b_reduction_bipartite():
    limits = gp.SolveLimits(time_budget=300.0)
    with criterion("7b", "derived-graph identity on 50 random bipartite max-degree-3 graphs"):
        rng = random.Random(7)
        for _ in range(50):
            g = random_connected_bipartite_max3(rng.randint(3, 10), rng)
            assert max(g.degree(v) for v in range(g.n)) <= 3
            assert gp.verify_np_reduction(g, limits)
            catalog = gp.enumerate_maximal_geodesics(gp.derived_graph(g))
            assert all(p.length == 2 for p in catalog.geodesics)


def test_criterion_08_diagonal_grids():
    with criterion("8", "diagonal grids: packing number, witness, orders, bound"):
        # Far above the 225 nodes (2, 3, 4) needs, so a search that loses its
        # pruning fails here instead of running for minutes.
        limits = gp.SolveLimits(node_budget=10_000)
        for dims in _GRID_DIMS:
            g = gp.diagonal_grid(dims)
            expected = 1
            for d in sorted(dims)[1:]:
                expected *= d
            assert gp.gpack_value(g, limits) == expected
            packing = gp.diagonal_grid_packing(dims)
            assert packing.size == expected
            used: set[int] = set()
            for p in packing.geodesics:
                assert gp.is_maximal_geodesic(g, p)
                assert not used.intersection(p.vertices)
                used.update(p.vertices)
            catalog = gp.enumerate_maximal_geodesics(g)
            assert {len(p.vertices) for p in catalog.geodesics}.issubset(set(dims))
            # The grids of 100 or more vertices pass the default cap: their
            # orders are checked on the capped prefix, and their bound only by
            # verify grids, from the maximal pairs.
            assert catalog.complete == (g.n < 100)
            if catalog.complete:
                assert gp.gpack_upper_bound(g, catalog) == expected


def test_criterion_09_uniform_products():
    with criterion("9", "box products of uniform factors stay uniform; bound holds"):
        factors = [
            gp.complete_graph(2),
            gp.complete_graph(3),
            gp.path_graph(2),
            gp.path_graph(3),
            gp.cycle_graph(4),
            gp.cycle_graph(5),
        ]
        for a, b in combinations_with_replacement(factors, 2):
            prod = gp.cartesian_product(a, b)
            catalog = gp.enumerate_maximal_geodesics(prod)
            assert gp.is_uniform_geodesic(prod, catalog)
            assert gp.uniform_product_bound([a, b]) >= gp.gpack_value(prod)


def test_criterion_10_oracle_equivalence(atlas_connected):
    limits = gp.SolveLimits(time_budget=600.0)
    with criterion("10", "enumeration, gpack and gt match brute force on all connected n<=7"):
        for g in atlas_connected:
            engine = {p.vertices for p in gp.enumerate_maximal_geodesics(g).geodesics}
            assert engine == oracle_maximal_geodesics(g)
            assert gp.gpack_value(g, limits) == oracle_gpack(g)
            assert gp.gt_value(g, limits) == oracle_gt(g)
