"""Naive reference implementations, independent of the library internals.

Maximal geodesics are found from first principles: enumerate every simple
path, keep the shortest ones, and drop any path contained in a longer
shortest path.  The packing / transversal oracles then search exhaustively.
Past brute-force range, the catalog is rebuilt from networkx shortest paths.
Nothing here shares code with geopack beyond the Graph data type and the
ContractViolation error.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import networkx as nx

from geopack import Graph
from geopack.errors import ContractViolation


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def all_simple_paths(g: Graph) -> list[tuple[int, ...]]:
    """Every simple path with at least one vertex, in canonical orientation."""
    paths: list[tuple[int, ...]] = [(v,) for v in range(g.n)]

    def extend(path: list[int], seen: set[int]) -> None:
        for w in g.adj[path[-1]]:
            if w in seen:
                continue
            path.append(w)
            seen.add(w)
            if path[0] < path[-1]:
                paths.append(tuple(path))
            extend(path, seen)
            seen.remove(w)
            path.pop()

    for v in range(g.n):
        extend([v], {v})
    return paths


def _contains_subpath(longer: tuple[int, ...], shorter: tuple[int, ...]) -> bool:
    if len(shorter) > len(longer):
        return False
    rev = shorter[::-1]
    span = len(longer) - len(shorter)
    for start in range(span + 1):
        window = longer[start:start + len(shorter)]
        if window == shorter or window == rev:
            return True
    return False


def oracle_maximal_geodesics(g: Graph) -> set[tuple[int, ...]]:
    """Maximal geodesics straight from the containment definition."""
    dist = [bfs_distances(g, v) for v in range(g.n)]
    geodesics = [
        p
        for p in all_simple_paths(g)
        if dist[p[0]].get(p[-1]) == len(p) - 1
    ]
    maximal = set()
    for p in geodesics:
        if not any(q != p and _contains_subpath(q, p) for q in geodesics):
            maximal.add(p)
    return maximal


def nx_maximal_geodesics(g: Graph) -> list[tuple[int, ...]]:
    """The sorted catalog from networkx shortest paths, for graphs past brute force.

    A pair u < v is maximal when no neighbour of either end lies one step
    further from the other end; each of its shortest paths, read from u, is
    then a maximal geodesic.  The paths are traced back through networkx's
    shortest-path predecessors of u.  An isolated vertex u gives (u,).
    """
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    dist = dict(nx.all_pairs_shortest_path_length(G))
    found = [(u,) for u in range(g.n) if not g.adj[u]]
    for u in range(g.n):
        pred = nx.predecessor(G, u)
        paths = {u: [(u,)]}

        def paths_to(x: int) -> list[tuple[int, ...]]:
            if x not in paths:
                paths[x] = [p + (x,) for w in pred[x] for p in paths_to(w)]
            return paths[x]

        for v, d in dist[u].items():
            if v <= u:
                continue
            if any(dist[w][v] == d + 1 for w in g.adj[u]) or any(dist[u][w] == d + 1 for w in g.adj[v]):
                continue
            found.extend(paths_to(v))
    return sorted(found)


def oracle_gpack(g: Graph) -> int:
    """Exhaustive search over disjoint subsets of the maximal geodesics."""
    sets = sorted(frozenset(p) for p in oracle_maximal_geodesics(g))
    best = 0

    def rec(start: int, used: frozenset[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for j in range(start, len(sets)):
            if not (sets[j] & used):
                rec(j + 1, used | sets[j], size + 1)

    rec(0, frozenset(), 0)
    return best


def oracle_gt(g: Graph) -> int:
    """Smallest vertex subset hitting every maximal geodesic, by subset size."""
    targets = [set(p) for p in oracle_maximal_geodesics(g)]
    if not targets:
        return 0
    for k in range(g.n + 1):
        for subset in combinations(range(g.n), k):
            chosen = set(subset)
            if all(chosen & t for t in targets):
                return k
    raise AssertionError("unreachable: full vertex set hits everything")


def oracle_induced_p3_packing(g: Graph) -> int:
    triples = []
    for mid in range(g.n):
        for a, c in combinations(g.adj[mid], 2):
            if not g.has_edge(a, c):
                triples.append(frozenset((a, mid, c)))
    best = 0

    def rec(start: int, used: frozenset[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        for j in range(start, len(triples)):
            if not (triples[j] & used):
                rec(j + 1, used | triples[j], size + 1)

    rec(0, frozenset(), 0)
    return best


def find_end_support_vertex(t: Graph) -> int:
    """Lowest-id vertex with a leaf neighbour and at most one non-leaf neighbour.

    Requires a tree on at least two vertices with no degree-2 vertices;
    every such tree has one (the neighbour of an end of a longest path).
    """
    degree = [len(nbrs) for nbrs in t.adj]
    if t.n < 2 or sum(degree) != 2 * (t.n - 1) or len(bfs_distances(t, 0)) < t.n:
        raise ContractViolation("end support lookup needs a tree on >= 2 vertices")
    if 2 in degree:
        raise ContractViolation("end support lookup needs a tree with no degree-2 vertices")
    for v in range(t.n):
        leaves = sum(1 for w in t.adj[v] if degree[w] == 1)
        if leaves and degree[v] - leaves <= 1:
            return v
    raise AssertionError("unreachable")


def brute_lex_least_packing(sets: list[set[int]]) -> list[int]:
    """Lexicographically least largest pairwise-disjoint subfamily, as sorted indices.

    The recursion visits index lists in lexicographic order, so the first
    list of the largest size it meets is the least one.
    """
    best: list[int] = []

    def rec(start: int, used: set[int], chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for j in range(start, len(sets)):
            if not (sets[j] & used):
                chosen.append(j)
                rec(j + 1, used | sets[j], chosen)
                chosen.pop()

    rec(0, set(), [])
    return best


def brute_lex_least_hitting(sets: list[set[int]], n: int) -> tuple[int, ...]:
    """Lexicographically least smallest vertex subset meeting every set.

    Subsets are enumerated by size, each size in lexicographic order, so the
    first one meeting every set is the answer.
    """
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            chosen = set(subset)
            if all(chosen & s for s in sets):
                return subset
    raise AssertionError("unreachable")


def reduce_reference(live: int, forbidden: int, sets, covers) -> tuple[int, int, int, int]:
    """The root reduction as first written: every round rebuilds all n live
    stars and tests every vertex, forbidden ones included.

    It drops each allowed vertex whose live star is empty or lies in another
    allowed vertex's (of equal stars the higher goes), then settles each live
    set with one allowed vertex r left (r joins ``picked``, the set
    ``taken``, r's star leaves ``live``), until no set is single.  Returns
    ``(live, forbidden, picked, taken)``.
    """
    picked = taken = 0
    while True:
        stars = [0 if forbidden >> v & 1 else s & live for v, s in enumerate(covers)]
        once = twice = 0
        for v, star in enumerate(stars):
            if star:
                for u in sets[(star & -star).bit_length() - 1]:
                    other = stars[u]
                    if not star & ~other and (u < v or star != other):
                        break
                else:
                    twice |= once & star
                    once |= star
                    continue
            elif forbidden >> v & 1:
                continue
            forbidden |= 1 << v
            stars[v] = 0
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


def greedy_cover_reference(uncovered: int, stars: list[int]) -> int:
    """The greedy cover as first written: each pick rescans every star and
    takes the one holding the most uncovered sets, the lowest on ties.
    Returns the mask of the star indices taken."""
    picked = 0
    while uncovered:
        best_i, best_c = 0, 0
        for i, s in enumerate(stars):
            c = (s & uncovered).bit_count()
            if c > best_c:
                best_c, best_i = c, i
        uncovered &= ~stars[best_i]
        picked |= 1 << best_i
    return picked


def greedy_reaches_reference(sets, bound: int) -> bool:
    """The greedy packing over listed sets, shortest first with ties in input
    order: True once it holds ``bound`` pairwise disjoint sets.  Run on the
    sorted catalog, it is the packing ``geodesics._greedy_settles`` finds from
    the maximal pairs without listing a path."""
    used: set[int] = set()
    count = 0
    for vertices in sorted(sets, key=len):
        if used.isdisjoint(vertices):
            used.update(vertices)
            count += 1
            if count == bound:
                return True
    return False
