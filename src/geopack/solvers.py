"""Exact solvers for geodesic packing (gpack) and geodesic transversal (gt).

Both invariants run on one mask state over the full maximal-geodesic
catalog, which ``geodesics.complete_catalog`` refuses when capped.  The
entries are numbered once per solve, shortest first, and the only masks are
the stars, one per vertex: O(m*n) bits for m entries on n vertices, so no
solver state grows with the square of the catalog.  A solve asking for both
invariants enumerates and numbers once.  Every solve that numbers a catalog
keeps it (``_kept``) for the next solve of the same graph and cap, and
releases the old one before enumerating, so at most one catalog is alive.
A value-only gpack solve lists, numbers and keeps nothing when the greedy
packing meets n // (the order of the shortest entry), as on the diagonal
grids: it finds that packing from the maximal pairs alone, so no cap
applies, and its value and its 0 nodes are what numbering and searching
would give.

Both engines are branch and bound, as gpack is NP-complete: ``_pack`` packs
pairwise disjoint sets (gpack, and the induced-P3 packing of the reduction)
and ``_cover`` finds a minimum hitting set (gt).  Both reduce only at the
root of a search, by one routine, ``_reduce``, with the two hitting-set
rules: drop a vertex another one dominates, and settle a set with one
vertex left (forced into the cover, or taken into the packing through its
hub).  The rules keep every optimum, so values, prefix decisions and
lex-least witnesses stay exact.  Each search takes a starting
bound and a stop target, so one search finds the optimum and also decides
the prefix tests that build the lexicographically least witness.  The
witness loop keeps an optimal solution that holds every committed set or
vertex and no rejected one, so a prefix test that solution already
satisfies passes with no search.  A solve out of nodes or time raises
``BudgetExceeded`` with certified root bounds.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import BudgetExceeded, ContractViolation, DomainError
from .geodesics import (
    DEFAULT_CAP,
    Geodesic,
    GeodesicCatalog,
    _greedy_settles,
    _list_geodesics,
    _maximal_pairs,
    complete_catalog,
    shortest_maximal_geodesic_length,
)
from .graphs import Graph, derived_graph
from .trees import gpack_tree, is_tree

if TYPE_CHECKING:  # duality_check imports it when it runs
    from fractions import Fraction


class _LimitFields(NamedTuple):  # a NamedTuple body cannot override __new__
    max_geodesics: int = DEFAULT_CAP
    time_budget: float = 60.0
    node_budget: int = 10_000_000


class SolveLimits(_LimitFields):
    """Resource ceilings for the exact solvers, each positive.  A settled
    value-only gpack solve lists no catalog, so ``max_geodesics`` never stops it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SolveLimits:
        self = super().__new__(cls, *args, **kwargs)
        if self.max_geodesics < 1 or not self.time_budget > 0 or self.node_budget < 1:
            raise ValueError("solve limits must be positive")
        return self


DEFAULT_LIMITS = SolveLimits()


class Packing(NamedTuple):
    """Pairwise vertex-disjoint maximal geodesics witnessing a gpack lower bound."""

    geodesics: tuple[Geodesic, ...]

    @property
    def size(self) -> int:
        return len(self.geodesics)


class Transversal(NamedTuple):
    """A vertex set hitting every maximal geodesic, as a sorted tuple."""

    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


class SolveStats(NamedTuple):
    nodes: int
    millis: int


class SolveResult(NamedTuple):
    value: int
    witness: Packing | Transversal | None
    stats: SolveStats


class DualityReport(NamedTuple):
    gpack: int
    gt: int
    ratio: Fraction


class _Budget:
    """Node/time accounting for one solve, witness extraction included.

    The time budget runs from ``started``, the start of the solve.  A stop
    raises ``BudgetExceeded`` naming the solve (``what``), with the root
    bounds its engine set in ``lower`` and ``upper`` before searching.
    """

    __slots__ = ("what", "node_budget", "deadline", "nodes", "lower", "upper")

    def __init__(self, what: str, limits: SolveLimits, started: float) -> None:
        self.what = what
        self.node_budget = limits.node_budget
        self.deadline = started + limits.time_budget
        self.nodes = 0
        self.lower: int | None = None
        self.upper: int | None = None

    def spend(self) -> None:
        # The clock is read at the first node, then every 256 nodes:
        # time.monotonic() costs about 0.1 us, and reading it at every node
        # took a call here from 0.10-0.17 to 0.16-0.27 us (best of 3 x 10^6
        # calls, Python 3.11, 2-vCPU machine).
        self.nodes += 1
        if self.nodes > self.node_budget:
            reason = "search node budget exhausted"
        elif self.nodes % 256 == 1 and time.monotonic() > self.deadline:
            reason = "time budget exhausted"
        else:
            return
        raise BudgetExceeded(f"{self.what} stopped: {reason}", lower=self.lower, upper=self.upper, nodes=self.nodes)


class _Numbered(NamedTuple):
    """``sets[i]`` is the set at position i, and ``covers[v]`` the star of
    vertex v: the mask of the positions holding it."""

    sets: list[Sequence[int]]
    covers: list[int]


def _number_sets(sets: Sequence[Sequence[int]], n: int) -> _Numbered:
    """Number the sets over vertices ``0..n-1`` shortest first, ties in input
    order.  Each star is read from a per-vertex byte row, O(m*L + n*m/8) for
    m sets of at most L vertices."""
    ordered = sorted(sets, key=len)
    rows = [bytearray((len(sets) + 7) >> 3) for _ in range(n)]
    for i, vertices in enumerate(ordered):
        byte, bit = i >> 3, 1 << (i & 7)
        for v in vertices:
            rows[v][byte] |= bit
    return _Numbered(ordered, [int.from_bytes(row, "little") for row in rows])


# ---------------------------------------------------------------------------
# The greedy packing, a bound for both engines
# ---------------------------------------------------------------------------

def _greedy_disjoint(uncovered: int, sets: Sequence[Sequence[int]], covers: Sequence[int]) -> int:
    # Pairwise disjoint sets, shortest first: a packing, so a lower bound for
    # gpack, and each needs a private transversal vertex, so one for gt too.
    # Take the lowest position left and strip every set meeting it; returns
    # the mask of the positions taken.
    picked = 0
    while uncovered:
        low = uncovered & -uncovered
        picked |= low
        for v in sets[low.bit_length() - 1]:
            uncovered &= ~covers[v]
    return picked


# ---------------------------------------------------------------------------
# The root reduction, one for both engines
# ---------------------------------------------------------------------------

def _reduce(
    live: int, forbidden: int, sets: Sequence[Sequence[int]], covers: Sequence[int]
) -> tuple[int, int, int, int]:
    """Drop dominated vertices and settle single sets until no set is single.

    These are Weihe's two hitting-set reductions (*Covering trains by
    stations or the power of data reduction*, 1998).  A vertex is allowed
    while ``forbidden`` lacks it, and its live star is the ``live`` sets
    through it.  An allowed v is dominated, and joins ``forbidden``, when its
    live star is empty or lies in another allowed vertex's; of two equal
    stars the higher vertex goes.  Such a dominator lies on v's lowest live
    set, so only that set's vertices are tested.  A live set with one allowed
    vertex r left is single: r joins ``picked``, the set joins ``taken``, and
    r's star leaves ``live``.  Containment survives deletion, so a vertex
    dropped once stays dropped.  Returns ``(live, forbidden, picked, taken)``.

    For a hitting set, r is forced and a dominated vertex can give way to its
    dominator, so ``picked`` and a smallest allowed hitting set of ``live``
    make a smallest allowed hitting set of the input, for every size.  For a
    packing (``forbidden`` 0), r dominates every vertex of its set A, so the
    live sets meeting A are r's live star: a packing holds at most one of
    them and A can replace it, so ``taken`` and a largest packing of ``live``
    make a largest packing.  A set with no allowed vertex is never single; it
    stays live for the search to refute.

    Each round visits only the vertices still in play: the allowed ones in
    the first round, then the ones the last round left undominated.  Every
    other vertex is forbidden and keeps star 0 in the one ``stars`` list, so
    a round tests the same vertices in the same order as a pass over all n,
    and the result is the same.  The subset test ``star & other == star``
    keeps both wide integers positive, which CPython handles faster than
    ``star & ~other``.
    """
    picked = taken = 0
    stars = [0] * len(covers)
    play = [v for v in range(len(covers)) if not forbidden >> v & 1]
    while True:
        for v in play:
            stars[v] = covers[v] & live
        once = twice = 0  # the live sets through one, and through two, undominated vertices
        kept = []
        for v in play:
            star = stars[v]
            if star:
                # u = v fails the tie test, and a dropped u has star 0.
                for u in sets[(star & -star).bit_length() - 1]:
                    other = stars[u]
                    if star & other == star and (u < v or star != other):
                        break
                else:
                    twice |= once & star
                    once |= star
                    kept.append(v)
                    continue
            forbidden |= 1 << v
            stars[v] = 0
        play = kept
        single = once & ~twice
        if not single:
            return live, forbidden, picked, taken
        while single:
            low = single & -single
            single ^= low
            if live & low:
                for r in sets[low.bit_length() - 1]:
                    if not forbidden >> r & 1:
                        break
                picked |= 1 << r
                taken |= low
                live &= ~covers[r]


# ---------------------------------------------------------------------------
# Packing engine: pairwise disjoint sets (gpack, induced P3 packing)
# ---------------------------------------------------------------------------

def _pack_search(
    sets: Sequence[Sequence[int]],
    covers: Sequence[int],
    weights: Sequence[int],
    unit: int,
    cand: int,
    best: int,
    target: int,
    budget: _Budget,
) -> int | None:
    """A largest packing inside ``cand``, as a position mask, if it beats ``best``.

    Returns None when no packing has more than ``best`` sets.  The search
    stops at the first packing of ``target`` sets.  With ``best`` a known
    size and ``target`` the size cap it finds the optimum; with
    ``best = need - 1`` and ``target = need`` it decides whether ``need`` fits
    and finds such a packing.  Each node branches on its lowest live vertex v
    (one some candidate holds): every lower vertex is decided, so either one
    of the candidates through v, shortest first, joins the packing, or v
    stays unused.  ``weights[j]`` is ``unit // len(sets[j])``, with ``unit``
    the lcm of the set sizes.  The root node, once past the count and
    fractional bounds, runs ``_reduce`` (drop dominated vertices, take each
    set with one undominated vertex left, a hub) and searches the reduced
    instance as the same node; a reduction that empties ``cand`` settles the
    search in that one node.  The bounds go first, as they stop most
    searches before a reduction would run: over perfbench's random seed 1,
    5,919 packing searches run 1,975 root reductions (gt: 6,684 and 1,837).
    """
    found = None
    if best < 0:  # the empty packing always exists
        best, found = 0, 0
    if best >= target:
        return found
    n = len(covers)
    root = True
    stack = [(cand, 0, 0)]
    while stack:
        cand, packed, lo = stack.pop()
        budget.spend()
        size = packed.bit_count()
        if size > best:
            best, found = size, packed
            if best >= target:
                break
        slack = best - size
        # The count test prunes nothing the fractional bound below misses:
        # a candidate's vertices weigh at most unit in all, so spread / unit
        # is at most the number of live candidates.  It only skips the O(n)
        # pass, at 5,467 of the 22,128 nodes that reach it over perfbench's
        # random seed 1 and at 7,436 of 742,118 on random_graph(40, 0.15).
        if cand.bit_count() <= slack:
            continue
        hold = spread = 0
        for u in range(lo, n):
            s = covers[u] & cand
            if s:
                if not hold:
                    v, hold = u, s
                spread += weights[(s & -s).bit_length() - 1]
        # Spread each packed candidate's weight of unit over its vertices: a
        # live vertex u takes at most unit / (the size of the shortest
        # candidate through u, its lowest star position), so the packing
        # holds at most spread / unit candidates.
        if spread < (slack + 1) * unit:
            continue
        if root:
            root = False
            cand, _, _, taken = _reduce(cand, 0, sets, covers)
            if taken:  # the reduced root is this same node, searched again
                budget.nodes -= 1
                stack.append((cand, packed | taken, 0))
                continue
        stack.append((cand & ~hold, packed, v + 1))
        while hold:  # highest position first, so the shortest set pops first
            j = hold.bit_length() - 1
            hold ^= 1 << j
            rest = cand
            for u in sets[j]:
                rest &= ~covers[u]
            stack.append((rest, packed | 1 << j, v + 1))
    return found


def _pack(numbered: _Numbered, budget: _Budget, want_witness: bool) -> tuple[int, list[Sequence[int]] | None]:
    """Maximum number of pairwise disjoint numbered sets, with the
    lexicographically least optimal list of sets when ``want_witness``."""
    sets, covers = numbered
    m = len(sets)
    unit = math.lcm(*{len(s) for s in sets})
    weights = [unit // len(s) for s in sets]
    search = (sets, covers, weights, unit)
    cand = (1 << m) - 1
    greedy = _greedy_disjoint(cand, sets, covers)
    budget.lower = greedy.bit_count()
    # The root fractional bound of ``_pack_search``, at most n // (the order
    # of the shortest set) since no weight exceeds unit // len(sets[0]).
    budget.upper = sum(weights[(s & -s).bit_length() - 1] for s in covers if s) // unit
    found = _pack_search(*search, cand, budget.lower, budget.upper, budget)
    best = greedy if found is None else found  # an optimal packing
    value = best.bit_count()
    if not want_witness:
        return value, None
    # Walk the sets in lexicographic order (catalog order, for the sorted
    # catalog) and commit each one whose remainder still fits the optimum;
    # each prefix test is exact, so the result is the lex-least optimal list
    # of sets.  ``best`` stays an optimal packing that holds every committed
    # set and no rejected one, so a set it holds passes with no search.
    chosen: list[Sequence[int]] = []
    committed = 0
    for j in sorted(range(m), key=sets.__getitem__):
        if len(chosen) == value:
            break
        bit = 1 << j
        if not cand & bit:
            continue
        cand &= ~bit
        rest = cand
        for u in sets[j]:
            rest &= ~covers[u]
        if not best & bit:
            need = value - len(chosen) - 1
            found = _pack_search(*search, rest, need - 1, need, budget)
            if found is None:
                continue
            best = committed | bit | found
        chosen.append(sets[j])
        committed |= bit
        cand = rest
    if len(chosen) < value:
        raise ContractViolation("witness extraction failed to match the optimum")
    return value, chosen


# ---------------------------------------------------------------------------
# Hitting-set engine (gt)
# ---------------------------------------------------------------------------

def _hs_search(
    uncovered: int,
    forbidden: int,
    best: int,
    target: int,
    sets: Sequence[Sequence[int]],
    covers: Sequence[int],
    budget: _Budget,
) -> int | None:
    """A smallest hitting set of ``uncovered`` avoiding ``forbidden``, as a
    vertex mask, if it has fewer than ``best`` vertices.

    Returns None when no such cover exists.  The search stops at the first
    cover of at most ``target`` vertices.  With ``best`` a known cover size
    and ``target = 0`` it finds the optimum; with ``best = limit + 1`` and
    ``target = limit`` it decides whether ``limit`` vertices suffice and finds
    such a cover.  The root node, once past the greedy bound, runs
    ``_reduce`` (drop dominated vertices, force the vertex of each set with
    one allowed vertex left) and searches the reduced instance; a reduction
    that hits every set settles the search with no further node.  Only the
    root reduces: on small random graphs the dominated rule would fire at two
    nodes in three below it, but applying the rules there cut nodes by a
    fifth and took 1.5 times as long.  Each node branches on the lowest
    uncovered set with at most one allowed vertex, else on the lowest
    uncovered set; a pick with no allowed vertex prunes the node.
    """
    if not uncovered:
        return 0
    if best <= 1:  # a nonempty family needs a vertex
        return None
    found = None
    root = True
    stack = [(uncovered, forbidden, 0)]
    while stack:
        uncovered, forbidden, picked = stack.pop()
        budget.spend()
        count = picked.bit_count()
        if uncovered:
            if count + _greedy_disjoint(uncovered, sets, covers).bit_count() >= best:
                continue
            if root:
                root = False
                uncovered, forbidden, picked, _ = _reduce(uncovered, forbidden, sets, covers)
                count = picked.bit_count()
        if not uncovered:
            if count < best:
                best, found = count, picked
                if best <= target:
                    break
            continue
        once = twice = 0  # the sets through one, and through two, allowed vertices
        for v, star in enumerate(covers):
            if not forbidden >> v & 1:
                twice |= once & star
                once |= star
        pick = uncovered & ~twice or uncovered
        allowed = [v for v in sets[(pick & -pick).bit_length() - 1] if not (forbidden >> v) & 1]
        if not allowed:
            continue
        # Partition by the first allowed vertex the solution uses.
        acc = forbidden
        pending = []
        for v in allowed:
            pending.append((uncovered & ~covers[v], acc, picked | 1 << v))
            acc |= 1 << v
        stack.extend(reversed(pending))
    return found


def _greedy_cover(uncovered: int, stars: Sequence[int]) -> int:
    # Take the star (the sets through one vertex) holding the most uncovered
    # sets, lowest first on ties, until every set is hit: a cover, so an
    # upper bound for gt.  Returns the mask of the star indices taken.
    # Counts only fall, so a star's last count bounds its count now, and a
    # pick recounts only the stars whose bound beats the best count so far.
    # On rook:30's root (861 picks) recounting every star took 35-37 s of
    # CPU, this 4.9-7.0 s (one core of a 2-vCPU machine).  A lazy heap took
    # 4.2-5.3 s there, but a quarter more than the full recount on
    # perfbench's random catalogs, where this takes a tenth less.
    bound = [uncovered.bit_count()] * len(stars)
    picked = 0
    while uncovered:
        best_c = 0
        for i, b in enumerate(bound):
            if b > best_c:
                c = bound[i] = (stars[i] & uncovered).bit_count()
                if c > best_c:
                    best_c, best_i = c, i
        uncovered &= ~stars[best_i]
        picked |= 1 << best_i
    return picked


def _cover(numbered: _Numbered, budget: _Budget, want_witness: bool) -> tuple[int, list[int] | None]:
    """Fewest vertices hitting every numbered set, with the lexicographically
    least optimal sorted vertex list when ``want_witness``."""
    sets, covers = numbered
    n = len(covers)
    all_mask = (1 << len(sets)) - 1
    budget.lower = _greedy_disjoint(all_mask, sets, covers).bit_count()
    best = _greedy_cover(all_mask, covers)
    budget.upper = best.bit_count()
    search = (sets, covers, budget)
    if budget.lower < budget.upper:
        found = _hs_search(all_mask, 0, budget.upper, 0, *search)
        if found is not None:
            best = found  # an optimal cover
    value = best.bit_count()
    if not want_witness:
        return value, None
    # Keep each vertex, in order, whose remainder still fits the optimum.
    # ``best`` stays an optimal cover that holds every kept vertex and no
    # skipped one, so a vertex it holds is kept with no search.
    kept = 0
    uncovered = all_mask
    for v in range(n):
        if not uncovered:
            break
        rest = uncovered & ~covers[v]
        if rest == uncovered:
            continue
        bit = 1 << v
        if not best & bit:
            limit = value - kept.bit_count() - 1
            found = _hs_search(rest, (bit << 1) - 1, limit + 1, limit, *search)
            if found is None:
                continue
            best = kept | bit | found
        kept |= bit
        uncovered = rest
    if uncovered:
        raise ContractViolation("witness extraction failed to match the optimum")
    return value, [v for v in range(n) if kept >> v & 1]


# ---------------------------------------------------------------------------
# Solving a graph: one catalog, numbered once, for every requested invariant
# ---------------------------------------------------------------------------

# The numbered catalog of the last solve that numbered one, as (key, numbered)
# with key = (n, adj, max_geodesics), or None.
_kept: tuple[tuple, _Numbered] | None = None


def _solve(
    g: Graph, limits: SolveLimits, invariants: Sequence[str], want_witness: bool = True
) -> list[SolveResult]:
    """Each of ``invariants`` ("gpack", "gt"), in order, from one numbered catalog.

    The catalog comes from ``_kept`` when its key matches ``g`` and the cap,
    and is enumerated, numbered and kept otherwise.  A capped catalog raises
    before it can be kept.  The engines only read the numbered state, so a
    kept catalog gives the same results as a fresh one.

    A value-only gpack solve that misses ``_kept`` runs the pair pass and
    lists no path when the greedy packing meets ``gpack_upper_bound``, which
    caps every packing (``geodesics._greedy_settles``): it returns the bound
    with 0 nodes, as ``_pack`` would, whose greedy is this one and whose
    fractional bound is at most the same.  Otherwise it lists the catalog
    from that pair pass.  Witness, both-invariant and ``_kept`` solves never
    take this path.
    """
    global _kept
    started = time.monotonic()
    key = (g.n, g.adj, limits.max_geodesics)
    if _kept is not None and _kept[0] == key:
        numbered = _kept[1]
    else:
        _kept = None
        cap = limits.max_geodesics
        if not want_witness and tuple(invariants) == ("gpack",):
            pairs = _maximal_pairs(g.adj)
            value = _greedy_settles(g.adj, pairs)
            if value is not None:
                return [SolveResult(value, None, SolveStats(0, int((time.monotonic() - started) * 1000)))]
            catalog = complete_catalog(g, cap, _list_geodesics(g.adj, pairs, cap))
        else:
            catalog = complete_catalog(g, cap)
        numbered = _number_sets(catalog.paths, g.n)
        _kept = (key, numbered)
    results = []
    for invariant in invariants:
        budget = _Budget(f"{invariant} search", limits, started)
        if invariant == "gpack":
            value, chosen = _pack(numbered, budget, want_witness)
            witness = None if chosen is None else Packing(tuple(Geodesic(p) for p in chosen))
        else:
            value, vertices = _cover(numbered, budget, want_witness)
            witness = None if vertices is None else Transversal(tuple(vertices))
        now = time.monotonic()
        results.append(SolveResult(value, witness, SolveStats(budget.nodes, int((now - started) * 1000))))
        started = now
    return results


def gpack_value(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> int:
    """Exact gpack value without witness extraction (faster for sweeps).

    Settled from the maximal pairs, with no catalog listed, when the greedy
    packing meets ``gpack_upper_bound``; the value is the same either way,
    and ``limits.max_geodesics`` does not stop such a solve.
    """
    return _solve(g, limits, ("gpack",), want_witness=False)[0].value


def gpack_report(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> SolveResult:
    return _solve(g, limits, ("gpack",))[0]


def gt_value(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> int:
    """Exact gt value without witness extraction (faster for sweeps)."""
    return _solve(g, limits, ("gt",), want_witness=False)[0].value


def gt_report(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> SolveResult:
    return _solve(g, limits, ("gt",))[0]


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def gpack_upper_bound(g: Graph, catalog: GeodesicCatalog) -> int:
    """floor(n / (d + 1)) where d is the shortest maximal geodesic length."""
    return g.n // (shortest_maximal_geodesic_length(catalog) + 1)


def duality_check(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> DualityReport:
    """Both invariants plus the exact rational gt/gpack."""
    from fractions import Fraction  # loaded only by the callers that want a ratio

    gpack, gt = (r.value for r in _solve(g, limits, ("gpack", "gt"), want_witness=False))
    if gpack > gt:
        raise ContractViolation(f"solver bug: gpack {gpack} exceeds gt {gt}")
    if gpack == 0:
        raise DomainError("gt/gpack ratio undefined for the empty graph")
    return DualityReport(gpack, gt, Fraction(gt, gpack))


def verify_tree_equality(t: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> bool:
    """Tree algorithm vs. exact transversal, cross-checked against exact packing
    solved from the same catalog."""
    if not is_tree(t):
        raise DomainError("equality check needs a tree")
    gt, gpack = (r.value for r in _solve(t, limits, ("gt", "gpack"), want_witness=False))
    return gpack_tree(t)[0] == gt == gpack


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
    started = time.monotonic()
    numbered = _number_sets(_induced_p3_paths(g), g.n)
    return _pack(numbered, _Budget("induced P3 packing", limits, started), want_witness=False)[0]


def verify_np_reduction(g: Graph, limits: SolveLimits = DEFAULT_LIMITS) -> bool:
    """Check gpack(derived(g)) == 1 + induced-P3-packing(g).

    Also asserts that every maximal geodesic of the derived graph has
    length 2; graphs containing an edge whose endpoints dominate each
    other's neighbourhoods violate that property (the edge survives as a
    length-1 maximal geodesic) and raise ContractViolation.
    """
    derived = derived_graph(g)
    for p in complete_catalog(derived, limits.max_geodesics).paths:
        if len(p) != 3:
            raise ContractViolation(f"derived graph has a maximal geodesic of length {len(p) - 1}: {p}")
    return gpack_value(derived, limits) == 1 + induced_p3_packing_exact(g, limits)
