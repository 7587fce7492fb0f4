"""Built-in verification suites: formulas, trees, the derived-graph identity, grids.

Each suite cross-checks a family of closed forms or structural identities
against the exact solvers.  Every check is one item with one label, run at
once by ``_item``, which owns the stop rule: the item passes or fails by
the check's verdict, and is inconclusive when a budget or the catalog cap
stops it.  Random inputs are fully determined by the caller's seed.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from . import SUITE_NAMES
from .errors import BudgetExceeded, Unsupported
from .formulas import diagonal_grid_packing, formula_value, rook_complement_set
from .geodesics import _bfs, _greedy_packing, _length_classes, _maximal_pairs
from .graphs import FamilySpec, Graph, diagonal_grid, generate
from .solvers import (
    DEFAULT_LIMITS,
    SolveLimits,
    gpack_value,
    gt_value,
    verify_np_reduction,
    verify_tree_equality,
)
from .trees import random_tree, tree_from_pruefer

_GRID_DIMS = (
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4),
    (10, 10), (30, 30), (5, 9, 13),
)

# The closed-form families the formulas suite checks, with their printed names.
_FORMULA_SPECS = (
    *((FamilySpec("complete", (n,)), f"K{n}") for n in range(2, 8)),
    *((FamilySpec("complete_bipartite", (n, n)), f"K{n},{n}") for n in range(2, 5)),
    *((FamilySpec("path", (n,)), f"P{n}") for n in range(1, 9)),
    *((FamilySpec("rook", (n,)), f"rook {n}") for n in range(2, 5)),
)


class CheckResult(NamedTuple):
    label: str
    passed: bool | None  # None marks an inconclusive (budget-limited) check
    detail: str = ""


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_bipartite_max3(n: int, rng: random.Random) -> Graph:
    """Connected bipartite graph with maximum degree 3 on n >= 3 vertices.

    A degree-bounded random tree (Pruefer entries repeated at most twice)
    seeds the graph; extra cross-class edges are then added while both
    endpoints stay below degree 3.
    """
    if n < 3:
        raise ValueError("bipartite generator needs n >= 3")
    while True:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        if all(seq.count(a) <= 2 for a in set(seq)):
            break
    tree = tree_from_pruefer(seq, n)
    colour = [d & 1 for d in _bfs(tree.adj, 0)[0]]  # a tree's BFS layers alternate sides
    adj = [set(nbrs) for nbrs in tree.adj]
    for u in range(n):
        for v in range(u + 1, n):
            if colour[u] == colour[v] or v in adj[u]:
                continue
            if len(adj[u]) < 3 and len(adj[v]) < 3 and rng.random() < 0.25:
                adj[u].add(v)
                adj[v].add(u)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _item(label: str, check: Callable[[], tuple[bool, str]]) -> CheckResult:
    """Run ``check() -> (holds, detail)`` now; the detail is kept only when it fails."""
    try:
        holds, detail = check()
    except BudgetExceeded as exc:
        return CheckResult(label, None, str(exc))
    return CheckResult(label, holds, "" if holds else detail)


def _equal(got: int, want: int, says: str = "got") -> tuple[bool, str]:
    return got == want, f"{says} {got}"


def _formulas(size: int, count: int, seed: int, limits: SolveLimits) -> list[CheckResult]:
    results = []
    for spec, name in _FORMULA_SPECS:
        g = generate(spec)
        for invariant, solve in (("gpack", gpack_value), ("gt", gt_value)):
            try:
                want = formula_value(spec, invariant)
            except Unsupported:
                continue
            results.append(_item(
                f"{invariant}({name}) = {want}", lambda: _equal(solve(g, limits), want, "solver gave")
            ))
    for n in range(2, 6):
        # rook_complement_set certifies that its complement is a transversal.
        want = formula_value(FamilySpec("rook", (n,)), "gt")
        results.append(_item(
            f"rook {n} complement transversal of size {want}",
            lambda: _equal(n * n - len(rook_complement_set(n)), want, "size"),
        ))
    return results


def _trees(size: int, count: int, seed: int, limits: SolveLimits) -> list[CheckResult]:
    rng = random.Random(seed)
    trees = (random_tree(size, rng) for _ in range(count))
    return [
        _item(f"tree {i} (n={size}) packing equals transversal", lambda: (verify_tree_equality(t, limits), ""))
        for i, t in enumerate(trees)
    ]


def _reduction(size: int, count: int, seed: int, limits: SolveLimits) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    for i in range(count):
        n = rng.randint(3, size)
        g = random_connected_bipartite_max3(n, rng)
        results.append(_item(
            f"reduction {i} (n={n}) derived gpack = 1 + induced P3 packing",
            lambda: (verify_np_reduction(g, limits), ""),
        ))
    return results


def _grids(size: int, count: int, seed: int, limits: SolveLimits) -> list[CheckResult]:
    results = []
    for dims in _GRID_DIMS:
        g = diagonal_grid(dims)
        want = formula_value(FamilySpec("diagonal_grid", dims), "gpack")
        pairs = _maximal_pairs(g.adj)
        orders = [length + 1 for length in _length_classes(pairs)]  # ascending
        results += (
            _item(f"grid {dims}: gpack = {want}", lambda: _equal(gpack_value(g, limits), want)),
            _item(f"grid {dims}: explicit packing has size {want}",
                  lambda: (diagonal_grid_packing(dims).size == want, "")),
            _item(f"grid {dims}: maximal geodesic orders within {sorted(set(dims))}",
                  lambda: (set(orders).issubset(dims), f"orders {orders}")),
            _item(f"grid {dims}: packing bound = {want}", lambda: _equal(g.n // orders[0], want)),
        )
        if len(dims) == 2:
            # An upper bound on gt: no maximal geodesic misses the cross, so the
            # greedy packing avoiding it is empty, checked on the pairs.
            cross = [v for v, (i, j) in enumerate(g.labels) if i == 0 or j == 0]
            results.append(_item(f"grid {dims}: first row and column meet every maximal geodesic, gt <= {len(cross)}",
                                 lambda: (not any(_greedy_packing(g.adj, pairs, cross)), "")))
    return results


# Every suite takes (size, count, seed, limits); "all" runs them in this order.
_SUITES = {"formulas": _formulas, "trees": _trees, "reduction": _reduction, "grids": _grids}


def run_suite(
    name: str,
    *,
    size: int = 12,
    count: int = 25,
    seed: int = 0,
    limits: SolveLimits = DEFAULT_LIMITS,
) -> list[CheckResult]:
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    chosen = _SUITES if name == "all" else (name,)
    return [item for key in chosen for item in _SUITES[key](size, count, seed, limits)]
