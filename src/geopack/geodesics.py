"""Distances, geodesic predicates, and exhaustive maximal-geodesic enumeration.

The maximal pairs (``_maximal_pairs``) come first; the enumeration, the
greedy packing that settles a gpack value and the transversal check read them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import ContractViolation, DomainError, EnumerationOverflow
from .graphs import Graph

DEFAULT_CAP = 100_000

INF = math.inf


def _bfs(adj: Sequence[Sequence[int]], source: int) -> tuple[list[int], list[int], int]:
    """One BFS: the distance row, holding ``len(adj)`` at unreached vertices
    (no reached vertex is that far), the reached vertices in BFS order (layer
    by layer), and the mask of the sinks, the reached vertices with no
    neighbour one layer further out."""
    n = len(adj)
    dist = [n] * n
    dist[source] = 0
    order = [source]
    sinks = 0
    for x in order:  # the loop reaches the vertices appended as it runs
        d1 = dist[x] + 1
        sink = True
        for y in adj[x]:
            dy = dist[y]
            if dy >= d1:  # one layer further out, or unreached
                sink = False
                if dy > d1:
                    dist[y] = d1
                    order.append(y)
        if sink:
            sinks |= 1 << x
    return dist, order, sinks


def _cut_vertices(adj: Sequence[Sequence[int]]) -> int:
    """The mask of the cut vertices, from one iterative lowpoint DFS, O(n + |E|).

    A non-root v is a cut vertex when some DFS child's subtree reaches no
    vertex discovered before v; a root when it has two DFS children.
    """
    n = len(adj)
    disc = [0] * n  # discovery number, from 1; 0 while undiscovered
    low = [0] * n
    cut = 0
    clock = 0
    for root in range(n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            x, parent, nbrs = stack[-1]
            for y in nbrs:
                if not disc[y]:
                    clock += 1
                    disc[y] = low[y] = clock
                    stack.append((y, x, iter(adj[y])))
                    break
                if y != parent and disc[y] < low[x]:
                    low[x] = disc[y]
            else:
                stack.pop()
                if parent == root:
                    children += 1
                elif parent >= 0:
                    if low[x] >= disc[parent]:
                        cut |= 1 << parent
                    if low[x] < low[parent]:
                        low[parent] = low[x]
        if children >= 2:
            cut |= 1 << root
    return cut


def all_pairs_distances(g: Graph) -> tuple[tuple[float, ...], ...]:
    """The BFS distance row of every vertex; unreachable pairs hold ``math.inf``."""
    n = g.n
    return tuple(tuple(INF if d == n else d for d in _bfs(g.adj, s)[0]) for s in range(n))


class _GeodesicFields(NamedTuple):  # a NamedTuple body cannot override __new__
    vertices: tuple[int, ...]


class Geodesic(_GeodesicFields):
    """A shortest path stored in canonical orientation (first id <= last id)."""

    __slots__ = ()

    def __new__(cls, vertices: tuple[int, ...]) -> Geodesic:
        if not vertices:
            raise ValueError("a geodesic has at least one vertex")
        if vertices[0] > vertices[-1]:
            raise ValueError("geodesic not in canonical orientation")
        return super().__new__(cls, vertices)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


class GeodesicCatalog(NamedTuple):
    """Deduplicated maximal geodesics of one graph, sorted lexicographically.

    ``paths`` holds each entry as its vertex tuple in canonical orientation;
    ``geodesics`` wraps them in ``Geodesic`` on every access.
    ``complete`` is False when the full catalog has more than ``cap`` entries,
    in which case the stored entries are its lexicographically first ``cap``.
    The ``count`` property, the number of entries, shadows ``tuple.count``.
    """

    paths: tuple[tuple[int, ...], ...]
    complete: bool
    cap: int

    @property
    def geodesics(self) -> tuple[Geodesic, ...]:
        return tuple(map(Geodesic, self.paths))

    @property
    def count(self) -> int:
        return len(self.paths)


def _geodesic_sinks(g: Graph, verts: tuple[int, ...]) -> int | None:
    """The sinks of the BFS from ``verts[0]``, or None unless ``verts`` is a geodesic."""
    if not verts:
        return None
    if any(not (0 <= v < g.n) for v in verts):
        return None
    if len(set(verts)) != len(verts):
        return None
    for a, b in zip(verts, verts[1:]):
        if not g.has_edge(a, b):
            return None
    dist, _, sinks = _bfs(g.adj, verts[0])
    return sinks if dist[verts[-1]] == len(verts) - 1 else None


def is_geodesic(g: Graph, path: Sequence[int]) -> bool:
    """True iff ``path`` is a walk of distinct adjacent vertices of shortest length.

    Ill-formed sequences (repeats, non-adjacent steps, unknown ids) return
    False rather than raising.
    """
    return _geodesic_sinks(g, tuple(path)) is not None


def is_maximal_geodesic(g: Graph, p: Geodesic | Sequence[int]) -> bool:
    """True iff no one-vertex extension of ``p`` at either end is a geodesic.

    The enumerator's rule: a geodesic from u to v extends past v exactly when
    v is not a sink of u's BFS, so ``p`` is maximal when v is a sink of u and
    u a sink of v.  At most two BFS per call.
    """
    verts = tuple(p.vertices) if isinstance(p, Geodesic) else tuple(p)
    sinks = _geodesic_sinks(g, verts)
    if sinks is None:
        raise ContractViolation(f"sequence {verts!r} is not a geodesic")
    u, v = verts[0], verts[-1]
    return bool(sinks >> v & 1) and bool(_bfs(g.adj, v)[2] >> u & 1)


def _maximal_pairs(adj: Sequence[Sequence[int]]) -> list[tuple[int, list[int], list[int], list[int]]]:
    """The pair pass: ``(u, partners, dist, order)`` for every source u with
    a maximal partner v >= u, ascending, with the partners ascending and u's
    BFS row and order.

    One BFS per source gives its sinks: the reached vertices with no
    neighbour one layer further from u.  A geodesic from u to v extends past
    v exactly when v is not a sink of u, so (u, v) is a maximal pair when v
    is a sink of u and u a sink of v; an isolated vertex is its own partner.
    Every geodesic between a maximal pair is maximal.  Only the k vertices
    that are not cut vertices (in a tree, the leaves) are sources: O(k*|E|)
    after one lowpoint DFS.
    """
    n = len(adj)
    # Sources in descending order, so the sinks of every v > u are known when
    # u's partners are read off; only sources with partners keep their BFS.
    # A cut vertex c is never a sink: some part of the graph cut off by c
    # misses the source, and c's neighbour there is one layer further out,
    # since every path to it passes c.  So c ends no maximal geodesic and
    # runs no BFS.
    cut = _cut_vertices(adj)
    sinks = [0] * n
    sources = []
    for u in reversed(range(n)):
        if cut >> u & 1:
            continue
        dist, order, sinks[u] = _bfs(adj, u)
        partners = []
        rest = sinks[u] >> u
        while rest:
            low = rest & -rest
            v = u + low.bit_length() - 1
            if sinks[v] >> u & 1:
                partners.append(v)
            rest ^= low
        if partners:
            sources.append((u, partners, dist, order))
    sources.reverse()
    return sources


def _list_geodesics(
    adj: Sequence[Sequence[int]], sources: list[tuple[int, list[int], list[int], list[int]]], cap: int
) -> GeodesicCatalog:
    """The walk: the maximal geodesics between the pairs of ``_maximal_pairs``,
    sorted, up to ``cap`` entries.

    Per source u, a reverse sweep of u's layers, seeded with the partners,
    pushes each vertex on a geodesic to a partner onto its neighbours one
    layer closer to u (Brandes' accumulation over the shortest-path DAG), so
    a vertex on none scans no edge; one depth-first walk from u then lists
    the geodesics, lowest neighbour first.
    """
    paths: list[tuple[int, ...]] = []
    for u, partners, dist, order in sources:
        # Sweep u's layers from the outermost inward, starting from the
        # partners: each kept vertex joins the kids of its neighbours one layer
        # closer to u, and so keeps them.  The kept vertices are those on a
        # geodesic from u to a partner; any other costs one membership test.
        succ: dict[int, list[int]] = {v: [] for v in partners}
        for x in reversed(order):
            if x in succ:
                d = dist[x] - 1
                for y in adj[x]:
                    if dist[y] == d:
                        if y in succ:
                            succ[y].append(x)
                        else:
                            succ[y] = [x]
        for kids in succ.values():
            if len(kids) > 1:
                kids.sort()
        # Depth first from u, lowest successor first: preorder is lexicographic
        # order, and every step lies on a geodesic the walk emits.  The root
        # level holds u alone and adds nothing to the path, so an isolated u
        # comes out as (u,).
        path: list[int] = []
        stack = [iter((u,))]
        while stack:
            y = next(stack[-1], None)
            if y is None:
                stack.pop()
                if path:
                    path.pop()
            elif succ[y]:
                path.append(y)
                stack.append(iter(succ[y]))
            elif len(paths) == cap:
                return GeodesicCatalog(tuple(paths), False, cap)
            else:
                paths.append((*path, y))
    return GeodesicCatalog(tuple(paths), True, cap)


def enumerate_maximal_geodesics(g: Graph, cap: int = DEFAULT_CAP) -> GeodesicCatalog:
    """Enumerate every maximal geodesic of ``g``, up to ``cap`` entries.

    The pair pass (``_maximal_pairs``) finds the maximal pairs, and the walk
    (``_list_geodesics``) lists the geodesics between them, sorted, in
    O(k*|E|) for k sources plus the size of the output.  If there are more
    than ``cap`` entries the catalog holds the lexicographically first
    ``cap`` of them with ``complete=False``; ``complete_catalog`` refuses
    such a catalog.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    return _list_geodesics(g.adj, _maximal_pairs(g.adj), cap)


def _first_geodesic(
    adj: Sequence[Sequence[int]], dist: Sequence[int], u: int, length: int, ends: set[int], used: bytearray
) -> list[int] | None:
    # The lexicographically least path from u down u's BFS layers (``dist``)
    # through unused vertices to a vertex of ``ends`` at depth ``length``, or
    # None.  Depth first, lowest neighbour first; a vertex found to lead to
    # no such end stays dead, so a search costs O(|E|).
    if not length:
        return [u]
    path = [u]
    dead = set()
    stack = [iter(adj[u])]
    while stack:
        depth = len(path)
        for y in stack[-1]:
            if dist[y] == depth and not used[y] and y not in dead:
                if depth < length:
                    path.append(y)
                    stack.append(iter(adj[y]))
                    break
                if y in ends:
                    path.append(y)
                    return path
        else:
            stack.pop()
            dead.add(path.pop())
    return None


def _greedy_settles(adj: Sequence[Sequence[int]], pairs: list) -> int | None:
    """``n // (d + 1)``, d the shortest pair distance, if the greedy packing
    of ``solvers._greedy_disjoint`` over the sorted catalog reaches it, else None.

    That packing goes shortest first, then in catalog order, so by source u:
    each unused u takes its lexicographically least geodesic of the length
    through unused vertices, and a used or refuted u stays so.  It gives up
    once the unused vertices cannot make up the bound.
    """
    classes: dict[int, list] = {}  # length -> the sources with a partner that far, ascending
    for source in pairs:
        _, partners, dist, _ = source
        for length in {dist[v] for v in partners}:
            classes.setdefault(length, []).append(source)
    if not classes:
        return None
    bound = len(adj) // (min(classes) + 1)
    used = bytearray(len(adj))
    free = len(adj)
    count = 0
    for length in sorted(classes):
        if count + free // (length + 1) < bound:
            return None
        for u, partners, dist, _ in classes[length]:
            if used[u]:
                continue
            path = _first_geodesic(adj, dist, u, length, set(partners), used)
            if path is not None:
                for x in path:
                    used[x] = 1
                free -= length + 1
                count += 1
                if count == bound:
                    return bound
    return None


def _is_transversal(g: Graph, vertices: Sequence[int]) -> bool:
    """True iff ``vertices`` (S) meets every maximal geodesic of ``g``, with no catalog.

    A maximal geodesic missing S is a path of G - S between its maximal pair
    as long as their distance in G, and such a path is a geodesic of G, so
    maximal.  So S is a transversal exactly when no maximal pair outside S
    keeps its distance in G - S: one BFS of G - S per source outside S (a
    partner in S is unreached there).
    """
    hit = set(vertices)
    rest = [() if x in hit else tuple(y for y in nbrs if y not in hit) for x, nbrs in enumerate(g.adj)]
    for u, partners, dist, _ in _maximal_pairs(g.adj):
        if u not in hit:
            far = _bfs(rest, u)[0]
            if any(far[v] == dist[v] for v in partners):
                return False
    return True


def complete_catalog(
    g: Graph | None, cap: int = DEFAULT_CAP, catalog: GeodesicCatalog | None = None
) -> GeodesicCatalog:
    """Every maximal geodesic: ``catalog`` if given, else ``g``'s, enumerated up to ``cap``.

    gpack and gt are defined over the whole catalog, so every reader of it
    comes here: a capped prefix raises ``EnumerationOverflow``, with the
    bounds 0..n of both invariants when ``g`` is given.
    """
    if catalog is None:
        catalog = enumerate_maximal_geodesics(g, cap)
    if not catalog.complete:
        bounds = {} if g is None else {"lower": 0, "upper": g.n}
        raise EnumerationOverflow(f"maximal-geodesic catalog exceeded {catalog.cap} entries", **bounds)
    return catalog


def shortest_maximal_geodesic_length(catalog: GeodesicCatalog) -> int:
    """Minimum length over the full catalog."""
    paths = complete_catalog(None, catalog=catalog).paths
    if not paths:
        raise DomainError("empty catalog has no shortest maximal geodesic")
    return min(map(len, paths)) - 1


def is_uniform_geodesic(g: Graph, catalog: GeodesicCatalog) -> bool:
    """True iff every maximal geodesic length equals the diameter.

    A diametral pair cannot extend, so the longest maximal geodesic is a
    diameter long, and the catalog is uniform iff its entries share one length.
    """
    if g.n == 0 or len(_bfs(g.adj, 0)[1]) < g.n:
        raise DomainError("uniform-geodesic check needs a connected graph")
    return len(set(map(len, complete_catalog(g, catalog=catalog).paths))) == 1
