"""Built-in verification suites: formulas, trees, the derived-graph identity, grids.

Each suite cross-checks a family of closed forms or structural identities
against the exact solvers and reports one result per item; an item whose
solve or catalog read stops on a budget or the cap is inconclusive.  Random
inputs are fully determined by the caller's seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, NamedTuple

from . import SUITE_NAMES
from .errors import BudgetExceeded, Unsupported
from .formulas import diagonal_grid_packing, formula_value, rook_complement_set
from .geodesics import complete_catalog
from .graphs import FamilySpec, Graph, diagonal_grid, generate, rook_graph
from .solvers import (
    DEFAULT_LIMITS,
    SolveLimits,
    gpack_upper_bound,
    gpack_value,
    gt_value,
    verify_np_reduction,
    verify_tree_equality,
)
from .trees import random_tree, tree_from_pruefer

if TYPE_CHECKING:  # rook_ratio_curve imports it when it runs
    from fractions import Fraction

_GRID_DIMS = (
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4),
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4),
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


def _check(label: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(label, bool(ok), detail if not ok else "")


def rook_ratio_curve(n: int) -> Fraction:
    """The rook-graph lower-bound curve 3(1 - 2/n + 2/n^2) as an exact rational."""
    from fractions import Fraction

    return Fraction(3 * (n * n - 2 * n + 2), n * n)


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
    colour = [-1] * n
    colour[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for w in tree.adj[u]:
            if colour[w] < 0:
                colour[w] = 1 - colour[u]
                stack.append(w)
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

def suite_formulas(limits: SolveLimits = DEFAULT_LIMITS) -> list[CheckResult]:
    results = []
    for spec, name in _FORMULA_SPECS:
        g = generate(spec)
        for invariant, solve in (("gpack", gpack_value), ("gt", gt_value)):
            try:
                want = formula_value(spec, invariant)
            except Unsupported:
                continue
            label = f"{invariant}({name}) = {want}"
            try:
                got = solve(g, limits)
            except BudgetExceeded as exc:
                results.append(CheckResult(label, None, str(exc)))
                continue
            results.append(_check(label, got == want, f"solver gave {got}"))
    for n in range(2, 6):
        g = rook_graph(n)
        free = set(rook_complement_set(n))
        transversal = set(range(g.n)) - free
        want = formula_value(FamilySpec("rook", (n,)), "gt")
        label = f"rook {n} complement transversal of size {want}"
        try:
            catalog = complete_catalog(g, limits.max_geodesics)
        except BudgetExceeded as exc:
            results.append(CheckResult(label, None, str(exc)))
            continue
        hits_all = all(transversal.intersection(p) for p in catalog.paths)
        results.append(
            _check(label, hits_all and len(transversal) == want, f"size {len(transversal)}, hits_all={hits_all}")
        )
    return results


def suite_trees(
    size: int = 12,
    count: int = 25,
    seed: int = 0,
    limits: SolveLimits = DEFAULT_LIMITS,
) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    for i in range(count):
        t = random_tree(size, rng)
        try:
            ok = verify_tree_equality(t, limits)
        except BudgetExceeded as exc:
            results.append(CheckResult(f"tree {i} (n={size})", None, str(exc)))
            continue
        results.append(_check(f"tree {i} (n={size}) packing equals transversal", ok))
    return results


def suite_reduction(
    size: int = 8,
    count: int = 25,
    seed: int = 0,
    limits: SolveLimits = DEFAULT_LIMITS,
) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []
    for i in range(count):
        n = rng.randint(3, max(3, size))
        g = random_connected_bipartite_max3(n, rng)
        try:
            ok = verify_np_reduction(g, limits)
        except BudgetExceeded as exc:
            results.append(CheckResult(f"reduction {i} (n={n})", None, str(exc)))
            continue
        results.append(
            _check(f"reduction {i} (n={n}) derived gpack = 1 + induced P3 packing", ok)
        )
    return results


def suite_grids(limits: SolveLimits = DEFAULT_LIMITS) -> list[CheckResult]:
    results = []
    for dims in _GRID_DIMS:
        g = diagonal_grid(dims)
        want = formula_value(FamilySpec("diagonal_grid", dims), "gpack")
        label = f"grid {dims}: gpack = {want}"
        try:
            got = gpack_value(g, limits)
        except BudgetExceeded as exc:
            results.append(CheckResult(label, None, str(exc)))
        else:
            results.append(_check(label, got == want, f"got {got}"))
        packing = diagonal_grid_packing(dims)
        results.append(
            _check(f"grid {dims}: explicit packing has size {want}", packing.size == want)
        )
        labels = (f"grid {dims}: maximal geodesic orders within {sorted(set(dims))}",
                  f"grid {dims}: packing bound = {want}")
        try:
            catalog = complete_catalog(g, limits.max_geodesics)
        except BudgetExceeded as exc:
            results.extend(CheckResult(label, None, str(exc)) for label in labels)
            continue
        orders = set(map(len, catalog.paths))
        results.append(_check(labels[0], orders.issubset(set(dims)), f"orders {sorted(orders)}"))
        bound = gpack_upper_bound(g, catalog)
        results.append(_check(labels[1], bound == want, f"got {bound}"))
    return results


def run_suite(
    name: str,
    *,
    size: int = 12,
    count: int = 25,
    seed: int = 0,
    limits: SolveLimits = DEFAULT_LIMITS,
) -> list[CheckResult]:
    if name == "formulas":
        return suite_formulas(limits)
    if name == "trees":
        return suite_trees(size, count, seed, limits)
    if name == "reduction":
        return suite_reduction(size, count, seed, limits)
    if name == "grids":
        return suite_grids(limits)
    if name == "all":
        out = suite_formulas(limits)
        out += suite_trees(size, count, seed, limits)
        out += suite_reduction(size, count, seed, limits)
        out += suite_grids(limits)
        return out
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
