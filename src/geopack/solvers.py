"""Exact solvers for geodesic packing (gpack) and geodesic transversal (gt).

Both invariants run on one mask state over the maximal-geodesic catalog:
the vertex mask of each entry and, for each vertex, the mask of the entries
through it (its star), O(m*n) bits for m entries on n vertices.  gpack packs
pairwise vertex-disjoint entries, branching on the lowest vertex a candidate
still holds; the induced-P3 packing of the NP-completeness reduction runs on
the same packing engine.  gt is a minimum hitting set over the same catalog.
The engines share their greedy bounds, as gpack <= gt suggests: disjoint
entries bound gt from below, and stars hitting every entry bound gpack from
above.  Each invariant has one deterministic bitmask branch and bound that
takes a starting bound and a stop target: run to the end it finds the
optimum, and stopped at a target it decides the prefix-feasibility tests
that build a lexicographically least optimal witness, so outputs are
reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    BudgetExceeded,
    ContractViolation,
    DomainError,
    EnumerationOverflow,
)
from .geodesics import Geodesic, GeodesicCatalog, enumerate_maximal_geodesics
from .graphs import Graph, derived_graph


@dataclass(frozen=True)
class SolveLimits:
    """Resource ceilings for the exact solvers."""

    max_geodesics: int = 100_000
    time_budget: float = 60.0
    node_budget: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_geodesics < 1 or self.time_budget <= 0 or self.node_budget < 1:
            raise ValueError("solve limits must be positive")


DEFAULT_LIMITS = SolveLimits()


@dataclass(frozen=True)
class Packing:
    """Pairwise vertex-disjoint maximal geodesics witnessing a gpack lower bound."""

    geodesics: tuple[Geodesic, ...]

    @property
    def size(self) -> int:
        return len(self.geodesics)


@dataclass(frozen=True)
class Transversal:
    """A vertex set hitting every maximal geodesic, as a sorted tuple."""

    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


class SolveStats(NamedTuple):
    nodes: int
    millis: int


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: Packing | Transversal | None
    stats: SolveStats


class DualityReport(NamedTuple):
    gpack: int
    gt: int
    ratio: Fraction


class _Budget:
    """Shared node/time accounting for one solve, including witness extraction."""

    __slots__ = ("node_budget", "deadline", "nodes")

    def __init__(self, limits: SolveLimits) -> None:
        self.node_budget = limits.node_budget
        self.deadline = time.monotonic() + limits.time_budget
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceeded("search node budget exhausted", nodes=self.nodes)
        if self.nodes % 256 == 0 and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted", nodes=self.nodes)


def _masks(sets: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Vertex mask of each set, and the set indices shortest first."""
    vmasks = []
    for vertices in sets:
        m = 0
        for v in vertices:
            m |= 1 << v
        vmasks.append(m)
    return vmasks, sorted(range(len(sets)), key=lambda j: (len(sets[j]), j))


def _stars(sets: Sequence[Sequence[int]], n: int) -> list[int]:
    """For each vertex, the mask of the sets holding it."""
    covers = [0] * n
    for j, vertices in enumerate(sets):
        bit = 1 << j
        for v in vertices:
            covers[v] |= bit
    return covers


# ---------------------------------------------------------------------------
# Greedy bounds shared by both engines
# ---------------------------------------------------------------------------

def _greedy_disjoint(uncovered: int, by_size: Sequence[int], vmasks: Sequence[int]) -> int:
    # Pairwise disjoint sets, shortest first: a packing, so a lower bound for
    # gpack, and each needs a private transversal vertex, so one for gt too.
    used = 0
    count = 0
    for j in by_size:
        if (uncovered >> j) & 1 and not (vmasks[j] & used):
            used |= vmasks[j]
            count += 1
    return count


def _greedy_cover(uncovered: int, stars: Sequence[int]) -> int:
    # Take the star (the sets through one vertex) holding the most uncovered
    # sets, lowest first on ties, until every set is hit: an upper bound for
    # gt, and for gpack too, since sets through one vertex pairwise meet.
    count = 0
    while uncovered:
        best_s, best_c = 0, 0
        for s in stars:
            c = (s & uncovered).bit_count()
            if c > best_c:
                best_c, best_s = c, s
        uncovered &= ~best_s
        count += 1
    return count


# ---------------------------------------------------------------------------
# Packing engine: pairwise disjoint sets (gpack, induced P3 packing)
# ---------------------------------------------------------------------------

def _pack_search(
    sets: Sequence[Sequence[int]],
    covers: Sequence[int],
    min_size: int,
    cand: int,
    best: int,
    target: int,
    budget: _Budget,
) -> int:
    """Most pairwise disjoint sets inside ``cand`` if that beats ``best``, else ``best``.

    The search stops as soon as it reaches ``target``.  With ``best`` a known
    size and ``target`` the size cap it finds the optimum; with
    ``best = need - 1`` and ``target = need`` it decides whether ``need`` fits.
    Each node branches on its lowest live vertex v (one some candidate holds):
    every lower vertex is decided, so either one of the candidates through v,
    shortest first, joins the packing, or v stays unused.
    """
    best = max(best, 0)  # the empty packing always exists
    if best >= target:
        return best
    n = len(covers)
    stack = [(cand, 0, 0)]
    while stack:
        cand, size, lo = stack.pop()
        budget.spend()
        if size > best:
            best = size
            if best >= target:
                break
        if not cand:
            continue
        slack = best - size
        if cand.bit_count() <= slack:
            continue
        stars = []
        for u in range(lo, n):
            s = covers[u] & cand
            if s:
                if not stars:
                    v = u
                stars.append(s)
        # A packed candidate spends min_size live vertices, and stars hitting
        # every candidate each hold at most one packed candidate.
        if len(stars) // min_size <= slack or _greedy_cover(cand, stars) <= slack:
            continue
        hold = stars[0]
        stack.append((cand & ~hold, size, v + 1))
        holders = []
        while hold:
            j = (hold & -hold).bit_length() - 1
            hold &= hold - 1
            holders.append(j)
        holders.sort(key=lambda j: (len(sets[j]), j), reverse=True)
        for j in holders:
            rest = cand
            for u in sets[j]:
                rest &= ~covers[u]
            stack.append((rest, size + 1, v + 1))
    return best


def _pack(
    sets: Sequence[Sequence[int]],
    n: int,
    what: str,
    budget: _Budget,
    want_witness: bool,
) -> tuple[int, list[int] | None]:
    """Maximum number of pairwise disjoint vertex sets, with the lexicographically
    least optimal list of set indices when ``want_witness``."""
    m = len(sets)
    if m == 0:
        return 0, [] if want_witness else None
    vmasks, by_size = _masks(sets)
    min_size = len(sets[by_size[0]])
    upper = n // min_size
    greedy = _greedy_disjoint((1 << m) - 1, by_size, vmasks)
    if greedy >= upper and not want_witness:
        return greedy, None  # certified at the root: no search, so no stars
    covers = _stars(sets, n)
    try:
        value = _pack_search(sets, covers, min_size, (1 << m) - 1, greedy, upper, budget)
        if not want_witness:
            return value, None
        # Commit the lowest set whose remainder still fits the optimum; each
        # prefix test is exact, so the result is the lex-least optimal set.
        chosen: list[int] = []
        cand = (1 << m) - 1
        for need in range(value - 1, -1, -1):
            c = cand
            while c:
                j = (c & -c).bit_length() - 1
                c &= c - 1
                rest = cand & ~((1 << (j + 1)) - 1)
                for u in sets[j]:
                    rest &= ~covers[u]
                if _pack_search(sets, covers, min_size, rest, need - 1, need, budget) >= need:
                    chosen.append(j)
                    cand = rest
                    break
            else:
                raise ContractViolation("witness extraction failed to match the optimum")
        return value, chosen
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"{what} stopped: {exc}",
            lower=greedy,
            upper=upper,
            nodes=budget.nodes,
        ) from None


def _catalog_for(g: Graph, limits: SolveLimits, catalog: GeodesicCatalog | None) -> GeodesicCatalog:
    if catalog is None:
        catalog = enumerate_maximal_geodesics(g, cap=limits.max_geodesics)
    if not catalog.complete:
        raise EnumerationOverflow(
            f"maximal-geodesic catalog exceeded {catalog.cap} entries",
            lower=0,
            upper=g.n,
        )
    return catalog


def _stats(budget: _Budget, started: float) -> SolveStats:
    return SolveStats(budget.nodes, int((time.monotonic() - started) * 1000))


def _solve_gpack(
    g: Graph,
    limits: SolveLimits,
    *,
    catalog: GeodesicCatalog | None = None,
    want_witness: bool = True,
) -> SolveResult:
    started = time.monotonic()
    budget = _Budget(limits)
    geos = _catalog_for(g, limits, catalog).geodesics
    value, idxs = _pack([p.vertices for p in geos], g.n, "gpack search", budget, want_witness)
    witness = None if idxs is None else Packing(tuple(geos[i] for i in idxs))
    return SolveResult(value, witness, _stats(budget, started))


def gpack_exact(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> tuple[int, Packing]:
    """Exact geodesic packing number with a lexicographically least witness."""
    result = _solve_gpack(g, limits, want_witness=True)
    assert isinstance(result.witness, Packing)
    return result.value, result.witness


def gpack_value(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> int:
    """Exact gpack value without witness extraction (faster for sweeps)."""
    return _solve_gpack(g, limits, want_witness=False).value


def gpack_report(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> SolveResult:
    return _solve_gpack(g, limits, want_witness=True)


# ---------------------------------------------------------------------------
# Hitting-set engine (gt)
# ---------------------------------------------------------------------------

def _branch_vertices(uncovered: int, forbidden: int, sets: Sequence[Sequence[int]]) -> list[int]:
    # The allowed vertices of the uncovered set with the fewest of them.
    best_allowed: list[int] = []
    best_count = -1
    c = uncovered
    while c:
        j = (c & -c).bit_length() - 1
        c &= c - 1
        allowed = [v for v in sets[j] if not (forbidden >> v) & 1]
        if best_count < 0 or len(allowed) < best_count:
            best_count = len(allowed)
            best_allowed = allowed
            if best_count <= 1:
                break
    return best_allowed


def _hs_search(
    uncovered: int,
    forbidden: int,
    best: int,
    target: int,
    sets: Sequence[Sequence[int]],
    covers: Sequence[int],
    vmasks: Sequence[int],
    by_size: Sequence[int],
    budget: _Budget,
) -> int:
    """Smallest hitting set of ``uncovered`` avoiding ``forbidden`` if below ``best``.

    The search stops at the first cover of at most ``target`` vertices.  With
    ``best`` a known cover size and ``target = 0`` it finds the optimum; with
    ``best = limit + 1`` and ``target = limit`` it decides whether ``limit``
    vertices suffice.
    """
    if not uncovered:
        return 0
    if best <= 1:  # a nonempty family needs a vertex
        return best
    stack = [(uncovered, forbidden, 0)]
    while stack:
        uncovered, forbidden, count = stack.pop()
        budget.spend()
        if not uncovered:
            if count < best:
                best = count
                if best <= target:
                    break
            continue
        if count + _greedy_disjoint(uncovered, by_size, vmasks) >= best:
            continue
        allowed = _branch_vertices(uncovered, forbidden, sets)
        if not allowed:
            continue
        # Partition by the first allowed vertex the solution uses.
        acc = forbidden
        pending = []
        for v in allowed:
            pending.append((uncovered & ~covers[v], acc, count + 1))
            acc |= 1 << v
        stack.extend(reversed(pending))
    return best


def _solve_gt(
    g: Graph,
    limits: SolveLimits,
    *,
    catalog: GeodesicCatalog | None = None,
    want_witness: bool = True,
) -> SolveResult:
    started = time.monotonic()
    budget = _Budget(limits)
    sets = [p.vertices for p in _catalog_for(g, limits, catalog).geodesics]
    m = len(sets)
    if m == 0:
        return SolveResult(0, Transversal(()) if want_witness else None, _stats(budget, started))
    vmasks, by_size = _masks(sets)
    covers = _stars(sets, g.n)
    all_mask = (1 << m) - 1
    greedy_size = _greedy_cover(all_mask, covers)
    root_lb = _greedy_disjoint(all_mask, by_size, vmasks)
    search = (sets, covers, vmasks, by_size, budget)
    try:
        value = greedy_size
        if root_lb < value:
            value = _hs_search(all_mask, 0, value, 0, *search)
        witness = None
        if want_witness:
            # Keep each vertex, in order, whose remainder still fits the optimum.
            chosen: list[int] = []
            uncovered = all_mask
            for v in range(g.n):
                if not uncovered:
                    break
                rest = uncovered & ~covers[v]
                if rest == uncovered:
                    continue
                limit = value - len(chosen) - 1
                if _hs_search(rest, (1 << (v + 1)) - 1, limit + 1, limit, *search) <= limit:
                    chosen.append(v)
                    uncovered = rest
            if uncovered:
                raise ContractViolation("witness extraction failed to match the optimum")
            witness = Transversal(tuple(chosen))
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"gt search stopped: {exc}",
            lower=root_lb,
            upper=greedy_size,
            nodes=budget.nodes,
        ) from None
    return SolveResult(value, witness, _stats(budget, started))


def gt_exact(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> tuple[int, Transversal]:
    """Exact geodesic transversal number with a lexicographically least witness."""
    result = _solve_gt(g, limits, want_witness=True)
    assert isinstance(result.witness, Transversal)
    return result.value, result.witness


def gt_value(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> int:
    """Exact gt value without witness extraction (faster for sweeps)."""
    return _solve_gt(g, limits, want_witness=False).value


def gt_report(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> SolveResult:
    return _solve_gt(g, limits, want_witness=True)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def gpack_upper_bound(g: Graph, catalog: GeodesicCatalog) -> int:
    """floor(n / (d + 1)) where d is the shortest maximal geodesic length."""
    if not catalog.complete:
        raise EnumerationOverflow("upper bound needs a complete catalog")
    if catalog.count == 0:
        raise DomainError("upper bound undefined for an empty catalog")
    min_size = min(len(p.vertices) for p in catalog.geodesics)
    return g.n // min_size


def duality_check(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> DualityReport:
    """Both invariants plus the exact rational gt/gpack."""
    catalog = _catalog_for(g, limits, None)
    gpack = _solve_gpack(g, limits, catalog=catalog, want_witness=False).value
    gt = _solve_gt(g, limits, catalog=catalog, want_witness=False).value
    if gpack > gt:
        raise ContractViolation(f"solver bug: gpack {gpack} exceeds gt {gt}")
    if gpack == 0:
        raise DomainError("gt/gpack ratio undefined for the empty graph")
    return DualityReport(gpack, gt, Fraction(gt, gpack))


def _induced_p3_paths(g: Graph) -> list[tuple[int, int, int]]:
    paths = []
    for mid in range(g.n):
        nbrs = g.adj[mid]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                a, c = nbrs[i], nbrs[j]
                if not g.has_edge(a, c):
                    paths.append((a, mid, c))
    return paths


def induced_p3_packing_exact(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> int:
    """Maximum number of vertex-disjoint induced three-vertex paths."""
    return _pack(_induced_p3_paths(g), g.n, "induced P3 packing", _Budget(limits), want_witness=False)[0]


def verify_np_reduction(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> bool:
    """Check gpack(derived(g)) == 1 + induced-P3-packing(g).

    Also asserts that every maximal geodesic of the derived graph has
    length 2; graphs containing an edge whose endpoints dominate each
    other's neighbourhoods violate that property (the edge survives as a
    length-1 maximal geodesic) and raise ContractViolation.
    """
    if g.n == 0:
        raise DomainError("reduction needs a nonempty graph")
    gp = derived_graph(g)
    catalog = _catalog_for(gp, limits, None)
    for p in catalog.geodesics:
        if p.length != 2:
            raise ContractViolation(
                f"derived graph has a maximal geodesic of length {p.length}: {p.vertices}"
            )
    lhs = _solve_gpack(gp, limits, catalog=catalog, want_witness=False).value
    rhs = 1 + induced_p3_packing_exact(g, limits)
    return lhs == rhs


def solve_result_to_json_dict(invariant: str, result: SolveResult) -> dict:
    """Result JSON with a fixed key order; millis is zeroed for reproducibility."""
    witness: list
    if isinstance(result.witness, Packing):
        witness = [list(p.vertices) for p in result.witness.geodesics]
    elif isinstance(result.witness, Transversal):
        witness = list(result.witness.vertices)
    else:
        witness = []
    return {
        "invariant": invariant,
        "value": result.value,
        "exact": True,
        "witness": witness,
        "bounds": {"lower": result.value, "upper": result.value},
        "stats": {"nodes": result.stats.nodes, "millis": 0},
    }
